"""Engine throughput: how fast the simulator itself runs.

Not a paper figure — a performance benchmark of the reproduction: a single
controller step, one full 30-minute facility run, and an Oracle search.
These numbers guard against performance regressions (the Fig. 9/10 sweeps
run hundreds of full simulations).
"""

from __future__ import annotations

import math
import time

from repro.core.strategies import (
    FixedUpperBoundStrategy,
    GreedyStrategy,
    first_wins_argmax,
)
from repro.errors import ReproError
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import (
    DEFAULT_ORACLE_GRID,
    build_upper_bound_table,
    oracle_for_trace,
    run_simulation,
    simulate_strategy,
)
from repro.workloads.ms_trace import default_ms_trace
from repro.workloads.yahoo_trace import generate_yahoo_trace

#: Throughput of the pre-kernel engine on this benchmark and machine
#: class (simulated seconds per wall-clock second), kept so the
#: before/after ratio lands in BENCH_engine.json next to the live number.
PRE_KERNEL_STEPS_PER_SECOND = 8_439.0


def _reference_search(trace, candidates, fault_plan=None):
    """The pre-fork reference Oracle: one full simulation per candidate
    (NaN on failure), strict first-wins argmax.  Returns its wall time and
    the winning bound."""
    start = time.perf_counter()
    performances = []
    for bound in candidates:
        try:
            result = simulate_strategy(
                trace,
                FixedUpperBoundStrategy(float(bound)),
                fault_plan=fault_plan,
            )
        except ReproError:
            performances.append(math.nan)
            continue
        performances.append(result.average_performance)
    seconds = time.perf_counter() - start
    best = first_wins_argmax(performances)
    assert best is not None
    return seconds, float(candidates[best])


def bench_single_controller_step(benchmark):
    """One control period on the full-size facility."""
    dc = build_datacenter()
    controller = dc.controller(GreedyStrategy())
    clock = {"t": 0.0}

    def step():
        controller.step(2.0, clock["t"])
        clock["t"] += 1.0

    benchmark(step)
    assert controller.history


def bench_full_ms_run(benchmark):
    """A complete 30-minute MS-trace run (1800 steps)."""
    trace = default_ms_trace()
    dc = build_datacenter()
    result = benchmark.pedantic(
        lambda: run_simulation(dc, trace, GreedyStrategy()),
        rounds=3,
        iterations=1,
    )
    # The run must stay fast enough that the strategy sweeps are cheap.
    # The precomputed step kernel holds well above 20k simulated seconds
    # per wall-clock second (the pre-kernel floor was 5k); a regression
    # below this floor means the fast path has rotted.
    mean_s = benchmark.stats.stats.mean
    steps_per_second = len(trace) / mean_s
    benchmark.extra_info["simulated_seconds_per_wall_second"] = (
        steps_per_second
    )
    benchmark.extra_info["pre_kernel_simulated_seconds_per_wall_second"] = (
        PRE_KERNEL_STEPS_PER_SECOND
    )
    benchmark.extra_info["speedup_vs_pre_kernel"] = (
        steps_per_second / PRE_KERNEL_STEPS_PER_SECOND
    )
    print(f"engine throughput: {steps_per_second:,.0f} simulated "
          f"seconds per wall-clock second")
    assert steps_per_second > 20_000
    assert result.average_performance > 1.0


def bench_oracle_search(benchmark):
    """A five-candidate Oracle search over the MS trace."""
    trace = default_ms_trace()
    oracle = benchmark.pedantic(
        lambda: oracle_for_trace(
            trace, candidates=(2.0, 2.5, 3.0, 3.5, 4.0)
        ),
        rounds=1,
        iterations=1,
    )
    assert oracle.achieved_performance > 1.5


def bench_oracle_search_13_candidates(benchmark):
    """Cold 13-candidate Oracle search (the default grid) on a Yahoo trace.

    The shared-prefix search's headline case: one instrumented baseline
    run plus per-candidate suffixes instead of 13 full runs, and only the
    suffixes whose optimistic bound can still beat the best run so far.
    Baseline, suffixes and the winner's post-burst tail all run as
    span-engine segments, so the search keeps the span engine's per-step
    speed and wins on work alone; the guard is that it stays at least 2x
    ahead of the per-candidate reference sweep (13 full span-engine
    runs).  The reference path is timed in the same process and the
    ratio recorded in ``extra_info``.
    """
    trace = generate_yahoo_trace(burst_degree=3.2, burst_duration_min=10)
    oracle = benchmark.pedantic(
        lambda: oracle_for_trace(trace, candidates=DEFAULT_ORACLE_GRID),
        rounds=1,
        iterations=1,
    )
    reference_s, _ = _reference_search(trace, DEFAULT_ORACLE_GRID)
    fast_s = benchmark.stats.stats.mean
    benchmark.extra_info["reference_seconds"] = reference_s
    benchmark.extra_info["speedup_vs_reference"] = reference_s / fast_s
    print(f"13-candidate search: {fast_s:.2f}s shared-prefix vs "
          f"{reference_s:.2f}s reference "
          f"({reference_s / fast_s:.2f}x)")
    assert oracle.achieved_performance > 1.0
    assert reference_s / fast_s >= 2.0


def bench_upper_bound_table_cold(benchmark):
    """Cold 4x6 upper-bound table build (the Section V-A planning grid).

    24 grid points x 13 candidates.  The grid lies inside the
    shared-prefix envelope, so every point runs one pruned shared-prefix
    search: one baseline plus the few suffixes that can still win,
    instead of 13 runs (the packed vector batch is not used here).  The
    reference cost is the summed per-candidate timing over the same grid
    traces, measured in-process; the guard is at least 3x.
    """
    durations = (1.0, 5.0, 10.0, 15.0)
    degrees = (2.6, 2.8, 3.0, 3.2, 3.4, 3.6)
    table = benchmark.pedantic(
        lambda: build_upper_bound_table(
            burst_durations_min=durations, burst_degrees=degrees
        ),
        rounds=1,
        iterations=1,
    )
    reference_s = sum(
        _reference_search(
            generate_yahoo_trace(burst_degree=deg, burst_duration_min=dur),
            DEFAULT_ORACLE_GRID,
        )[0]
        for dur in durations
        for deg in degrees
    )
    fast_s = benchmark.stats.stats.mean
    benchmark.extra_info["reference_seconds"] = reference_s
    benchmark.extra_info["speedup_vs_reference"] = reference_s / fast_s
    print(f"4x6 table build: {fast_s:.2f}s pruned searches vs "
          f"{reference_s:.2f}s reference "
          f"({reference_s / fast_s:.2f}x)")
    assert len(table) == len(durations) * len(degrees)
    assert reference_s / fast_s >= 3.0
