#!/usr/bin/env python3
"""Paired sprintbench runs of a parent revision against the working tree.

Builds ``BASE_REV`` with ``git archive`` in a temporary directory, then
runs ``sprintbench/run.py --seconds 25`` from each copy, alternating which
side goes first, for ``--pairs`` pairs.  Every run must be ``correct`` and
print the same digest as every other run; otherwise the tool stops with
an error.  The result goes to
``benchmarks/pairs/<workload>-<seed>-<base>.json``, where ``<base>`` is the
first seven characters of the exported parent commit, so a later
comparison against another parent never overwrites it: every run, plus per
end-to-end metric of ``BENCHMARK.json`` each side's median and quartiles,
the change's wins and a verdict.

Usage::

    python benchmarks/pairs.py BASE_REV --workload fault-matrix --seed 7 --pairs 10
    python benchmarks/pairs.py BASE_REV --engine --iterations 40

Verdicts, per metric, with direction and bound from ``BENCHMARK.json``:

``improved``
    the change wins at least nine tenths of the pairs (ties count for
    neither side) and its median beats the parent's by more than the
    parent's interquartile range;
``worse than bound``
    the change's median is worse than the parent's by more than the
    bound (a fraction of the parent's median);
``unresolved``
    the parent's interquartile range exceeds the bound, so a difference
    within it cannot be told from noise — unless every change run beats
    every parent run;
``within bound``
    otherwise.

``--engine`` pairs ``make bench`` rows inside one process instead (five
alternating ``make bench`` pairs cannot resolve a 5-10% row change on a
shared host).  It imports the whole ``repro`` package twice, once from
the ``BASE_REV`` copy and once from the working tree, each into its own
set of ``sys.modules`` entries (:class:`Side`); each side's set is put in
place around every import and every call, so a side never runs the other
side's code, whatever files the change touches.  Each row of
:data:`ENGINE_ROWS` is set up once per side, by the working tree's
benchmark file imported against that side's package, and its timed
callable is called alternately per iteration (which side runs first
alternates too).  Both sides must return equal results (compared
pickled, a result's ``kernel`` object left out).  The result goes to
``benchmarks/pairs/engine-<base>.json``: per row, each side's seconds
per iteration and the median and quartiles of the per-iteration
change/parent ops ratio, the factor ``BENCH_baseline.json`` scales a
row's ops by.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib.util
import json
import math
import pickle
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Dict, Iterator, List, Mapping, Sequence

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "benchmarks" / "pairs"
RUN_SECONDS = 25
#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9

#: ``make bench`` rows ``--engine`` times: (benchmark file, function).
ENGINE_ROWS = (
    ("bench_engine_performance.py", "bench_single_controller_step"),
    ("bench_engine_performance.py", "bench_full_ms_run"),
    ("bench_span_engine.py", "bench_span_plateau_run"),
    ("bench_span_engine.py", "bench_span_yahoo_run"),
    ("bench_span_engine.py", "bench_span_prediction_run"),
    ("bench_span_engine.py", "bench_span_heuristic_run"),
    ("bench_engine_performance.py", "bench_oracle_search"),
    ("bench_engine_performance.py", "bench_oracle_search_13_candidates"),
    ("bench_engine_performance.py", "bench_upper_bound_table_cold"),
    ("bench_batch_kernel.py", "bench_batch_kernel_1024"),
)
#: An iteration repeats a row's callable until it takes at least this long.
MIN_ITERATION_S = 0.02

IMPROVED = "improved"
WITHIN = "within bound"
WORSE = "worse than bound"
UNRESOLVED = "unresolved"


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (inclusive method, so n >= 2 suffices)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> Dict[str, Any]:
    """Summary and verdict of one metric over paired runs.

    ``parent[i]`` and ``change[i]`` are the two sides of pair ``i``;
    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` is the fraction
    of the parent's median by which the change may worsen.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs, one value per side each")
    if better not in ("higher", "lower"):
        raise ValueError(f"unknown direction {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    gain = sign * (c["median"] - p["median"])
    iqr = p["q3"] - p["q1"]
    if better == "higher":
        dominates = min(change) > max(parent)
    else:
        dominates = max(change) < min(parent)
    if wins >= WIN_SHARE * len(parent) and gain > iqr:
        outcome = IMPROVED
    elif -gain > bound * abs(p["median"]):
        outcome = WORSE
    elif iqr > bound * abs(p["median"]) and not dominates:
        outcome = UNRESOLVED
    else:
        outcome = WITHIN
    return {
        "parent": p,
        "change": c,
        "ratio": c["median"] / p["median"] if p["median"] else None,
        "parent_iqr": iqr,
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "verdict": outcome,
    }


def summarize(
    runs: Sequence[Mapping[str, Any]], specs: Sequence[Mapping[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Per-metric verdicts over ``runs`` (each with ``pair``, ``side``, ``metrics``)."""
    by_side: Dict[str, Dict[int, Mapping[str, float]]] = {"parent": {}, "change": {}}
    for run in runs:
        by_side[run["side"]][run["pair"]] = run["metrics"]
    pairs = sorted(by_side["parent"])
    if pairs != sorted(by_side["change"]):
        raise ValueError("every pair needs one parent and one change run")
    summary = {}
    for spec in specs:
        name = spec["name"]
        summary[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            **verdict(
                [by_side["parent"][i][name] for i in pairs],
                [by_side["change"][i][name] for i in pairs],
                spec["better"],
                spec["bound"],
            ),
        }
    return summary


def out_path(workload: str, seed: int, base_commit: str) -> Path:
    """The pairs file of one workload and seed against one parent commit."""
    return OUT_DIR / f"{workload}-{seed}-{base_commit[:7]}.json"


def _export(rev: str, dest: Path) -> str:
    """Extract ``rev`` into ``dest`` with ``git archive``; return its commit."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def _run(copy: Path, workload: str, seed: int) -> Dict[str, Any]:
    """One untraced sprintbench run from ``copy``: its result and digest."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "sprintbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=copy, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    digests = [line.split()[1] for line in lines if line.startswith("digest ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or not result.get("correct") or len(digests) != 1:
        raise SystemExit(
            f"error: run from {copy} is not correct (exit {proc.returncode}):\n"
            + proc.stdout[-2000:] + proc.stderr[-2000:]
        )
    return {
        "digest": digests[0],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "wall_s": time.perf_counter() - started,
    }


def ratio_summary(parent_s: Sequence[float], change_s: Sequence[float]) -> Dict[str, Any]:
    """One engine row: each side's seconds per iteration and the quartiles
    of the per-iteration change/parent ops ratio (parent time over change
    time, so above 1 means the change is faster)."""
    if len(parent_s) != len(change_s) or len(parent_s) < 2:
        raise ValueError("need at least two iterations, one time per side each")
    return {
        "parent_s": quartiles(parent_s),
        "change_s": quartiles(change_s),
        "ratio": quartiles([p / c for p, c in zip(parent_s, change_s)]),
        "iterations": len(parent_s),
    }


def _side_owned(name: str) -> bool:
    """Whether module ``name`` belongs to one side of ``--engine``: the
    ``repro`` package and the benchmark modules imported against it."""
    return name == "repro" or name.startswith(("repro.", "_pairs_"))


class Side:
    """One side of ``--engine``: a whole import of the ``repro`` package
    from ``src``, plus the benchmark modules imported against it.

    Inside :meth:`active`, ``sys.modules`` holds this side's modules and
    ``src`` leads ``sys.path``, so every import (lazy ones included)
    resolves to this side's code; on exit the side keeps what it imported
    and whatever the caller had loaded comes back.
    """

    def __init__(self, src: Path) -> None:
        self.src = str(src)
        self.modules: Dict[str, ModuleType] = {}

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        outside = _pop_owned()
        sys.modules.update(self.modules)
        sys.path.insert(0, self.src)
        try:
            yield
        finally:
            sys.path.remove(self.src)
            self.modules = _pop_owned()
            sys.modules.update(outside)


def _pop_owned() -> Dict[str, ModuleType]:
    """Remove and return every side-owned module of ``sys.modules``."""
    return {
        name: sys.modules.pop(name)
        for name in [name for name in sys.modules if _side_owned(name)]
    }


def _load(path: Path, name: str) -> ModuleType:
    """Import ``path`` as module ``name`` (registered first: dataclasses
    look their module up while the class body runs)."""
    spec = importlib.util.spec_from_file_location(name, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class _Captured(Exception):
    """Raised once a row has handed its timed callable to the fixture."""


class _CaptureFixture:
    """Stands in for pytest-benchmark's fixture: records the timed callable
    and stops the row before it times anything or checks a floor."""

    target: Callable[[], Any]

    def __call__(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        self.target = functools.partial(fn, *args, **kwargs)
        raise _Captured

    def pedantic(
        self, fn: Callable[..., Any], args: Sequence[Any] = (),
        kwargs: Mapping[str, Any] | None = None, **_: Any,
    ) -> None:
        self.__call__(fn, *args, **(kwargs or {}))


def capture_row(side: Side, filename: str, name: str) -> Callable[[], Any]:
    """The callable row ``name`` of benchmark file ``filename`` times, set
    up on ``side``'s code (the working tree's benchmark file serves both
    sides, so both time the same inputs)."""
    fixture = _CaptureFixture()
    with side.active():
        module_name = f"_pairs_{filename[:-3]}"
        module = sys.modules.get(module_name) or _load(
            ROOT / "benchmarks" / filename, module_name
        )
        try:
            getattr(module, name)(fixture)
        except _Captured:
            return fixture.target
    raise SystemExit(f"error: {name} never called its benchmark fixture")


def comparable(result: Any) -> Any:
    """``result`` as ``time_row`` compares it: a dataclass with a
    ``kernel`` field (``BatchRunResult``) has it set to None, since the
    kernel object's private attributes may differ between sides whose
    every result array is equal."""
    if (
        dataclasses.is_dataclass(result)
        and not isinstance(result, type)
        and any(f.name == "kernel" for f in dataclasses.fields(result))
    ):
        return dataclasses.replace(result, kernel=None)
    return result


def time_row(
    name: str,
    fns: Mapping[str, Callable[[], Any]],
    sides: Mapping[str, Side],
    iterations: int,
) -> Dict[str, Any]:
    """Alternate the sides over ``iterations`` timed iterations of row
    ``name`` after one untimed call per side, whose results must be
    equal (compared pickled, inside each side's own modules, after
    :func:`comparable`)."""
    results = {}
    for side in ("parent", "change"):
        with sides[side].active():
            results[side] = pickle.dumps(comparable(fns[side]()))
    if results["parent"] != results["change"]:
        raise SystemExit(f"error: {name}: the parent and the change differ")
    with sides["change"].active():
        started = time.perf_counter()
        fns["change"]()
        elapsed = time.perf_counter() - started
    repeat = max(1, math.ceil(MIN_ITERATION_S / elapsed))
    times: Dict[str, List[float]] = {"parent": [], "change": []}
    for iteration in range(iterations):
        order = ("parent", "change") if iteration % 2 == 0 else ("change", "parent")
        for side in order:
            fn = fns[side]
            with sides[side].active():
                started = time.perf_counter()
                for _ in range(repeat):
                    fn()
                times[side].append((time.perf_counter() - started) / repeat)
    return {"repeat": repeat, **ratio_summary(times["parent"], times["change"])}


def engine_main(base_rev: str, iterations: int) -> int:
    """``--engine``: pair ``make bench`` rows in one process."""
    rows: Dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        commit = _export(base_rev, Path(tmp))
        sides = {
            "parent": Side(Path(tmp) / "src"),
            "change": Side(ROOT / "src"),
        }
        for filename, name in ENGINE_ROWS:
            fns = {side: capture_row(sides[side], filename, name) for side in sides}
            rows[name] = row = time_row(name, fns, sides, iterations)
            r = row["ratio"]
            print(f"{name}: change/parent ops {r['median']:.3f} "
                  f"[{r['q1']:.3f}, {r['q3']:.3f}] over {iterations} iterations "
                  f"of {row['repeat']} call(s)", flush=True)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"engine-{commit[:7]}.json"
    out.write_text(json.dumps({
        "base_rev": base_rev,
        "base_commit": commit,
        "iterations": iterations,
        "rows": rows,
    }, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", help="parent revision to compare against")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--engine", action="store_true",
        help="pair make-bench rows in one process instead of sprintbench runs",
    )
    parser.add_argument("--iterations", type=int, default=40)
    args = parser.parse_args(argv)
    if args.engine:
        if args.iterations < 2:
            parser.error("--iterations must be at least 2")
        return engine_main(args.base_rev, args.iterations)
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required without --engine")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        parent_copy = Path(tmp)
        commit = _export(args.base_rev, parent_copy)
        copies = {"parent": parent_copy, "change": ROOT}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                run = _run(copies[side], args.workload, args.seed)
                if runs and run["digest"] != runs[0]["digest"]:
                    raise SystemExit(
                        f"error: {side} digest {run['digest']} differs from "
                        f"{runs[0]['side']} digest {runs[0]['digest']}"
                    )
                run.update(pair=pair, side=side, position=position)
                runs.append(run)
                print(f"pair {pair} {side}: " + ", ".join(
                    f"{k} {v:.6g}" for k, v in run["metrics"].items()
                ), flush=True)

    summary = summarize(runs, specs)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = out_path(args.workload, args.seed, commit)
    out.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": RUN_SECONDS,
        "base_rev": args.base_rev,
        "base_commit": commit,
        "digest": runs[0]["digest"],
        "metrics": summary,
        "runs": runs,
    }, indent=2) + "\n")
    for name, row in summary.items():
        p, c = row["parent"], row["change"]
        print(f"{name}: parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] "
              f"wins {row['wins']}/{row['pairs']} -> {row['verdict']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
