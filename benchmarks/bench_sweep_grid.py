"""Vector-packed sweep grid vs the scalar sweep engine.

Not a paper figure — the performance benchmark of the batched sweep
tier: a cold 4x6 upper-bound table build (24 grid points x 13 Oracle
candidates) through :class:`SweepRunner`, with the packed tier fusing
every point x candidate into few wide kernel batches.

The >= 3x assertion is the batched-sweep tier's acceptance floor.  It is
taken against the per-candidate reference — one full scalar span-engine
run per grid point and candidate, the reference of
``bench_upper_bound_table_cold`` — whose cost is fixed by the span
engine's per-step speed.  The table build with every vector fast path
toggled off (the scalar sweep: segment-based shared-prefix searches) is
timed too, and its lead is recorded as ``speedup_vs_scalar_sweep`` but
not gated: since its searches run as span-engine segments the scalar
sweep trails the packed tier by less than 2x, and whether that lead
earns the tier its code is the tier audit's question, not this floor's.
The backend-identity suite (``tests/simulation/test_backends.py``) and
the table equality below pin that the speedup changes no result bit.
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


def _build_table():
    """One cold cache-less table build on the serial in-process runner."""
    runner = SweepRunner(max_workers=1, cache_dir=None)
    return runner.build_upper_bound_table(
        burst_durations_min=DURATIONS,
        burst_degrees=DEGREES,
        candidates=DEFAULT_ORACLE_GRID,
    )


def bench_sweep_grid_packed(benchmark):
    """Cold 4x6 table grid, vector-packed, vs the scalar sweep engine."""
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
            DEFAULT_ORACLE_GRID,
        )
        for dur in DURATIONS
        for degree in DEGREES
    )

    fast_s = benchmark.stats.stats.mean
    benchmark.extra_info["reference_seconds"] = reference_s
    benchmark.extra_info["speedup_vs_scalar_sweep"] = reference_s / fast_s
    benchmark.extra_info["per_candidate_seconds"] = per_candidate_s
    benchmark.extra_info["speedup_vs_per_candidate"] = (
        per_candidate_s / fast_s
    )
    benchmark.extra_info["grid_points"] = len(DURATIONS) * len(DEGREES)
    benchmark.extra_info["candidates"] = len(DEFAULT_ORACLE_GRID)
    print(f"4x6 packed sweep grid: {fast_s:.2f}s packed vs "
          f"{per_candidate_s:.2f}s per-candidate "
          f"({per_candidate_s / fast_s:.2f}x) and "
          f"{reference_s:.2f}s scalar sweep "
          f"({reference_s / fast_s:.2f}x)")
    assert len(table) == len(DURATIONS) * len(DEGREES)
    # The speedup must not buy a single different table cell.
    assert table.entries() == reference_table.entries()
    assert per_candidate_s / fast_s >= 3.0
