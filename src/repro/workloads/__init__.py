"""Workload substrate: traces, synthetic generators, bursts, predictors."""

from repro.workloads.ms_trace import (
    DEFAULT_MS_SEED,
    MS_REAL_BURST_DURATION_S,
    MS_TRACE_DURATION_S,
    default_ms_trace,
    generate_ms_family_trace,
    generate_ms_trace,
)
from repro.workloads.forecasting import (
    BurstDurationEstimator,
    EwmaForecaster,
    HoltForecaster,
    OnlineBurstForecaster,
)
from repro.workloads.io import (
    load_trace_csv,
    load_trace_json,
    save_trace_csv,
    save_trace_json,
)
from repro.workloads.library import (
    generate_batch_trace,
    generate_diurnal_trace,
    generate_flash_crowd_trace,
)
from repro.workloads.prediction import (
    ErroredPredictor,
    OnlineBurstDetector,
    predicted_burst_duration_s,
)
from repro.workloads.traces import (
    BurstInterval,
    SpanStats,
    Trace,
    find_bursts,
)
from repro.workloads.yahoo_trace import (
    BURST_START_S,
    DEFAULT_YAHOO_SEED,
    YAHOO_TRACE_DURATION_S,
    generate_yahoo_aggregate,
    generate_yahoo_server_traces,
    generate_yahoo_trace,
    inject_burst,
)

__all__ = [
    "BURST_START_S",
    "BurstDurationEstimator",
    "BurstInterval",
    "EwmaForecaster",
    "HoltForecaster",
    "OnlineBurstForecaster",
    "DEFAULT_MS_SEED",
    "DEFAULT_YAHOO_SEED",
    "SpanStats",
    "ErroredPredictor",
    "MS_REAL_BURST_DURATION_S",
    "MS_TRACE_DURATION_S",
    "OnlineBurstDetector",
    "Trace",
    "YAHOO_TRACE_DURATION_S",
    "default_ms_trace",
    "find_bursts",
    "generate_batch_trace",
    "generate_diurnal_trace",
    "generate_flash_crowd_trace",
    "generate_ms_family_trace",
    "generate_ms_trace",
    "generate_yahoo_aggregate",
    "generate_yahoo_server_traces",
    "generate_yahoo_trace",
    "inject_burst",
    "load_trace_csv",
    "load_trace_json",
    "save_trace_csv",
    "save_trace_json",
    "predicted_burst_duration_s",
]
