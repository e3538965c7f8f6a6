#!/usr/bin/env python3
"""Gate engine-performance regressions against the committed baseline.

Compares a freshly written ``BENCH_engine.json`` (pytest-benchmark format)
against the compact committed baseline
(``benchmarks/BENCH_baseline.json``) and exits non-zero when any shared
benchmark's throughput (ops/second) falls more than ``--tolerance``
(default 25%) below the baseline, or when a baseline benchmark is missing
from the fresh run (printed as ``missing``).  A retired benchmark leaves
the baseline in the same change that deletes it.

Raw wall-clock comparisons only make sense on comparable machines — the
committed baseline records the machine class it was taken on.  For CI
boxes of unknown speed, pass ``--relative-to bench_full_ms_run``: every
benchmark's ops is then divided by that anchor benchmark's ops *from the
same file*, so only relative shape regressions (one benchmark slowing
down more than the machine as a whole) trip the gate.

Usage::

    python benchmarks/check_bench.py BENCH_engine.json
    python benchmarks/check_bench.py BENCH_engine.json \
        --baseline benchmarks/BENCH_baseline.json \
        --relative-to bench_full_ms_run --tolerance 0.25
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

DEFAULT_BASELINE = Path(__file__).parent / "BENCH_baseline.json"
DEFAULT_TOLERANCE = 0.25


def load_ops(path: Path) -> Dict[str, float]:
    """Benchmark name -> ops/second from a pytest-benchmark JSON file."""
    with open(path) as fh:
        data = json.load(fh)
    ops: Dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        stats = bench.get("stats", {})
        value = stats.get("ops")
        if value is None:
            mean = stats.get("mean")
            if not mean:
                continue
            value = 1.0 / mean
        ops[bench["name"]] = float(value)
    return ops


def compare(
    fresh: Dict[str, float],
    baseline: Dict[str, float],
    tolerance: float,
    relative_to: str | None,
) -> int:
    """Print a comparison table; return the number of regressed or
    missing benchmarks."""
    if relative_to is not None:
        for name, table in (("fresh", fresh), ("baseline", baseline)):
            if relative_to not in table:
                print(
                    f"error: anchor benchmark {relative_to!r} missing from "
                    f"the {name} results",
                    file=sys.stderr,
                )
                return 1
        fresh = {k: v / fresh[relative_to] for k, v in fresh.items()}
        baseline = {k: v / baseline[relative_to] for k, v in baseline.items()}

    shared = sorted(set(fresh) & set(baseline))
    if not shared:
        print("error: no shared benchmarks to compare", file=sys.stderr)
        return 1

    regressions = 0
    floor = 1.0 - tolerance
    for name in shared:
        if name == relative_to:
            continue  # the anchor is 1.0 vs 1.0 by construction
        ratio = fresh[name] / baseline[name]
        verdict = "ok" if ratio >= floor else "REGRESSION"
        if ratio < floor:
            regressions += 1
        print(f"{name:45s} {ratio:6.2f}x of baseline  {verdict}")
    only_fresh = sorted(set(fresh) - set(baseline))
    for name in only_fresh:
        print(f"{name:45s}    new (no baseline)  ok")
    # A baseline row the fresh run lacks was deleted, renamed or skipped:
    # a failure, so the gate cannot pass by not running a benchmark.
    only_baseline = sorted(set(baseline) - set(fresh))
    for name in only_baseline:
        print(f"{name:45s}    missing            REGRESSION")
    return regressions + len(only_baseline)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", type=Path, help="freshly written BENCH_engine.json")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="committed baseline JSON (default: benchmarks/BENCH_baseline.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional throughput drop (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--relative-to",
        default=None,
        metavar="NAME",
        help="normalise every benchmark by this anchor benchmark's ops "
        "within its own file (machine-speed independent comparison)",
    )
    args = parser.parse_args(argv)

    if not (0.0 < args.tolerance < 1.0):
        print("error: --tolerance must be in (0, 1)", file=sys.stderr)
        return 2
    for path in (args.fresh, args.baseline):
        if not path.exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 2

    regressions = compare(
        load_ops(args.fresh),
        load_ops(args.baseline),
        args.tolerance,
        args.relative_to,
    )
    if regressions:
        print(
            f"\n{regressions} benchmark(s) regressed more than "
            f"{args.tolerance:.0%} below baseline or missing from the "
            "fresh run",
            file=sys.stderr,
        )
        return 1
    print("\nbenchmarks within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
