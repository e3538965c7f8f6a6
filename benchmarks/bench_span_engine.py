"""Span-engine throughput on two trace shapes and two strategy paths.

Not a paper figure — a performance benchmark of the kernel's trace
segments.  ``StepKernel.run_trace`` steps every sample in one flat loop,
whatever the trace's shape.  The rows time two shapes: a plateau-heavy
trace has a dozen spans (runs of identical demand), a fully jittered
trace (every sample its own span) one per sample.  Each benchmark
reports the trace's span count next to the measured throughput.

Greedy's bound is constant, so its rows skip the strategy observation.
The Prediction and Heuristic rows time the paper's practical strategies
on the jittered trace: their bounds vary, so every step builds a
:class:`~repro.core.strategies.StrategyObservation` and asks the
strategy, and Prediction also takes the realised degree back.
"""

from __future__ import annotations

import numpy as np

from repro.core.strategies import (
    GreedyStrategy,
    HeuristicStrategy,
    PredictionStrategy,
    UpperBoundTable,
)
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import run_simulation
from repro.workloads.traces import Trace
from repro.workloads.yahoo_trace import generate_yahoo_trace


def _plateau_trace() -> Trace:
    """Six idle floors (100-199 samples) alternating with six burst shelves
    (80-159 samples): 12 spans, 1,657 samples with this seed."""
    rng = np.random.default_rng(7)
    parts = []
    for _ in range(6):
        parts.append(np.full(int(rng.integers(100, 200)), float(rng.uniform(0.3, 0.8))))
        parts.append(np.full(int(rng.integers(80, 160)), float(rng.uniform(1.2, 2.8))))
    return Trace(np.concatenate(parts), dt_s=1.0, name="plateaus")


def _throughput_info(benchmark, trace) -> float:
    mean_s = benchmark.stats.stats.mean
    sim_per_wall = len(trace) * trace.dt_s / mean_s
    stats = trace.span_stats()
    benchmark.extra_info["simulated_seconds_per_wall_second"] = sim_per_wall
    benchmark.extra_info["n_spans"] = stats.n_spans
    return sim_per_wall


def bench_span_plateau_run(benchmark):
    """A 12-span plateau trace: burst shelves alternate with idle floors."""
    trace = _plateau_trace()
    dc = build_datacenter()
    result = benchmark.pedantic(
        lambda: run_simulation(dc, trace, GreedyStrategy()),
        rounds=3,
        iterations=1,
    )
    sim_per_wall = _throughput_info(benchmark, trace)
    print(f"plateau-trace span engine: {sim_per_wall:,.0f} simulated "
          f"seconds per wall-clock second "
          f"({trace.span_stats().n_spans} spans)")
    assert sim_per_wall > 50_000
    assert result.average_performance > 0.0


def bench_span_yahoo_run(benchmark):
    """The synthetic Yahoo burst trace (jittered: per-step body speed)."""
    trace = generate_yahoo_trace(burst_degree=3.0, burst_duration_min=10)
    dc = build_datacenter()
    benchmark.pedantic(
        lambda: run_simulation(dc, trace, GreedyStrategy()),
        rounds=3,
        iterations=1,
    )
    sim_per_wall = _throughput_info(benchmark, trace)
    print(f"yahoo-trace span engine: {sim_per_wall:,.0f} simulated "
          f"seconds per wall-clock second")
    assert sim_per_wall > 50_000



def _small_table() -> UpperBoundTable:
    """A fixed 3x3 upper-bound table (no Oracle search in the timing)."""
    table = UpperBoundTable()
    for duration_s, row in (
        (300.0, (3.5, 3.25, 3.0)),
        (600.0, (3.0, 2.75, 2.5)),
        (900.0, (2.5, 2.25, 2.0)),
    ):
        for degree, bound in zip((2.6, 3.0, 3.4), row):
            table.set(duration_s=duration_s, degree=degree, upper_bound=bound)
    return table


def _strategy_run(benchmark, strategy_factory) -> float:
    trace = generate_yahoo_trace(burst_degree=3.0, burst_duration_min=10)
    dc = build_datacenter()
    result = benchmark.pedantic(
        lambda: run_simulation(dc, trace, strategy_factory(dc)),
        rounds=3,
        iterations=1,
    )
    assert result.average_performance > 1.0
    return _throughput_info(benchmark, trace)


def bench_span_prediction_run(benchmark):
    """Prediction (Eq. 1) on the jittered Yahoo trace."""
    sim_per_wall = _strategy_run(
        benchmark,
        lambda dc: PredictionStrategy(
            _small_table(), predicted_burst_duration_s=600.0
        ),
    )
    print(f"yahoo-trace prediction run: {sim_per_wall:,.0f} simulated "
          f"seconds per wall-clock second")
    assert sim_per_wall > 25_000


def bench_span_heuristic_run(benchmark):
    """Heuristic (Eqs. 2-3) on the jittered Yahoo trace."""
    sim_per_wall = _strategy_run(
        benchmark,
        lambda dc: HeuristicStrategy(
            estimated_best_degree=2.5,
            additional_power_fn=dc.cluster.additional_power_at_degree_w,
        ),
    )
    print(f"yahoo-trace heuristic run: {sim_per_wall:,.0f} simulated "
          f"seconds per wall-clock second")
    assert sim_per_wall > 25_000
