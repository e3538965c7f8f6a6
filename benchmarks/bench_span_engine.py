"""Span-engine throughput on two trace shapes.

Not a paper figure — a performance benchmark of the span-compiled
stepping path.  ``StepKernel.run_trace`` run-length-encodes the demand
trace into constant-demand spans and steps every sample, paying demand
handling once per span: a plateau-heavy trace has a dozen spans, a fully
jittered trace (every sample its own span) one per sample.  Each
benchmark reports the trace's span count next to the measured
throughput.
"""

from __future__ import annotations

import numpy as np

from repro.core.strategies import GreedyStrategy
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

