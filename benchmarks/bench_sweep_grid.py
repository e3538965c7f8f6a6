"""Vector-packed sweep grid vs the per-candidate reference.

Not a paper figure — the performance benchmark of the batched sweep
tier: a cold 4x6 upper-bound table build (24 grid points x 14 Oracle
candidates) through :class:`SweepRunner`, with the packed tier fusing
every point x candidate into one wide kernel batch.

The grid is the paper's default one with a 0.9 candidate prepended.  A
bound below the normal degree puts the search outside the shared-prefix
envelope, which is the only place the sweep runner still packs point
searches: inside it, one pruned shared-prefix search per point is faster
(``bench_upper_bound_table_cold`` times that path on the default grid).

The >= 3x assertion is the batched-sweep tier's acceptance floor.  It is
taken against the per-candidate reference — one full scalar span-engine
run per grid point and candidate — whose cost is fixed by the span
engine's per-step speed.  The table build with every vector fast path
toggled off is timed as well (``reference_seconds``); on this grid it
runs the same per-candidate runs, and the table equality below pins that
the speedup changes no result bit.
"""

from __future__ import annotations

import time

from bench_engine_performance import _reference_search_seconds

from repro.simulation.batch import SweepRunner
from repro.simulation.batch_facility import set_vector_oracle_enabled
from repro.simulation.engine import DEFAULT_ORACLE_GRID
from repro.workloads.yahoo_trace import generate_yahoo_trace

DURATIONS = (1.0, 5.0, 10.0, 15.0)
DEGREES = (2.6, 2.8, 3.0, 3.2, 3.4, 3.6)

#: The default Oracle grid plus one sub-normal bound: outside the
#: shared-prefix envelope, so the table build packs.
CANDIDATES = (0.9,) + DEFAULT_ORACLE_GRID


def _build_table():
    """One cold cache-less table build on the serial in-process runner."""
    runner = SweepRunner(max_workers=1, cache_dir=None)
    return runner.build_upper_bound_table(
        burst_durations_min=DURATIONS,
        burst_degrees=DEGREES,
        candidates=CANDIDATES,
    )


def bench_sweep_grid_packed(benchmark):
    """Cold 4x6 table grid with a sub-normal candidate, vector-packed."""
    table = benchmark.pedantic(_build_table, rounds=1, iterations=1)

    previous = set_vector_oracle_enabled(False)
    try:
        start = time.perf_counter()
        reference_table = _build_table()
        reference_s = time.perf_counter() - start
    finally:
        set_vector_oracle_enabled(previous)

    per_candidate_s = sum(
        _reference_search_seconds(
            generate_yahoo_trace(burst_degree=degree, burst_duration_min=dur),
            CANDIDATES,
        )
        for dur in DURATIONS
        for degree in DEGREES
    )

    fast_s = benchmark.stats.stats.mean
    benchmark.extra_info["reference_seconds"] = reference_s
    benchmark.extra_info["per_candidate_seconds"] = per_candidate_s
    benchmark.extra_info["speedup_vs_per_candidate"] = (
        per_candidate_s / fast_s
    )
    benchmark.extra_info["grid_points"] = len(DURATIONS) * len(DEGREES)
    benchmark.extra_info["candidates"] = len(CANDIDATES)
    print(f"4x6 packed sweep grid (0.9 prepended): {fast_s:.2f}s packed vs "
          f"{per_candidate_s:.2f}s per-candidate "
          f"({per_candidate_s / fast_s:.2f}x); vector-off build "
          f"{reference_s:.2f}s")
    assert len(table) == len(DURATIONS) * len(DEGREES)
    # The speedup must not buy a single different table cell.
    assert table.entries() == reference_table.entries()
    assert per_candidate_s / fast_s >= 3.0
