"""The sweep grid with a sub-normal candidate vs the per-candidate reference.

Not a paper figure — the performance benchmark of a cold 4x6
upper-bound table build (24 grid points x 14 Oracle candidates) through
:class:`SweepRunner`.

The grid is the paper's default one with a 0.9 candidate prepended.
Each point runs one pruned shared-prefix search over all 14 bounds.
Before burst onset a bound below the normal degree changes only demand
that no performance counts, so the 0.9 candidate diverges from the
baseline at burst onset and resumes from the snapshot there, only if
its optimistic performance could beat the best run so far
(``bench_upper_bound_table_cold`` times the default grid alone).  The
row keeps its historical name: until this grid joined the pruned
search, it was the one benchmarked grid the packed vector tier served.

The >= 3x assertion is the tier's acceptance floor.  It is taken against
the per-candidate reference — one full scalar span-engine run per grid
point and candidate — whose cost is fixed by the span engine's per-step
speed.  The reference's own strict first-wins argmax per point builds
the table the fast build must equal, cell for cell.
"""

from __future__ import annotations

from bench_engine_performance import _reference_search

from repro.core.strategies import UpperBoundTable
from repro.simulation.batch import SweepRunner
from repro.simulation.engine import DEFAULT_ORACLE_GRID
from repro.units import minutes
from repro.workloads.yahoo_trace import generate_yahoo_trace

DURATIONS = (1.0, 5.0, 10.0, 15.0)
DEGREES = (2.6, 2.8, 3.0, 3.2, 3.4, 3.6)

#: The default Oracle grid plus one sub-normal bound.
CANDIDATES = (0.9,) + DEFAULT_ORACLE_GRID


def _build_table():
    """One cold cache-less table build on the serial in-process runner."""
    runner = SweepRunner(max_workers=1, cache_dir=None)
    return runner.build_upper_bound_table(
        burst_durations_min=DURATIONS,
        burst_degrees=DEGREES,
        candidates=CANDIDATES,
    )


def _per_candidate_table():
    """The per-candidate reference table and the wall time of its runs
    (trace generation is not timed)."""
    table = UpperBoundTable()
    seconds = 0.0
    for duration in DURATIONS:
        for degree in DEGREES:
            trace = generate_yahoo_trace(
                burst_degree=degree, burst_duration_min=duration
            )
            point_s, bound = _reference_search(trace, CANDIDATES)
            seconds += point_s
            table.set(
                duration_s=minutes(duration), degree=degree, upper_bound=bound
            )
    return table, seconds


def bench_sweep_grid_packed(benchmark):
    """Cold 4x6 table grid with a sub-normal candidate, pruned searches."""
    table = benchmark.pedantic(_build_table, rounds=1, iterations=1)
    reference_table, per_candidate_s = _per_candidate_table()

    fast_s = benchmark.stats.stats.mean
    benchmark.extra_info["per_candidate_seconds"] = per_candidate_s
    benchmark.extra_info["speedup_vs_per_candidate"] = (
        per_candidate_s / fast_s
    )
    benchmark.extra_info["grid_points"] = len(DURATIONS) * len(DEGREES)
    benchmark.extra_info["candidates"] = len(CANDIDATES)
    print(f"4x6 sweep grid (0.9 prepended): {fast_s:.2f}s pruned searches "
          f"vs {per_candidate_s:.2f}s per-candidate "
          f"({per_candidate_s / fast_s:.2f}x)")
    assert len(table) == len(DURATIONS) * len(DEGREES)
    # The speedup must not buy a single different table cell.
    assert table.entries() == reference_table.entries()
    assert per_candidate_s / fast_s >= 3.0
