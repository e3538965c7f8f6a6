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
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "benchmarks" / "pairs"
RUN_SECONDS = 25
#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9

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


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", help="parent revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
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
