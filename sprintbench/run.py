"""End-to-end and per-layer benchmark of the Data Center Sprinting reproduction.

Run from the repository root::

    python3 sprintbench/run.py --workload paper --seed 7 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

``paper``
    the paper's own evaluation: Greedy, Prediction, Heuristic and the
    Oracle bound plus one Oracle search per trace, on the default 10 MW
    facility over the burst grid, half the traces held at 60 s;
``fault-matrix``
    the same strategies plus AC-only and MPC on the two-PDU facility, each
    trace fault-free and under one seeded fault of each kind;
``sweep``
    cold upper-bound tables, headroom/PUE config sweeps and repeated
    requests against a fresh artifact store.

``--workload all`` runs the three one after another, each in its own fresh
process with the same arguments.

Each run is one fresh process with one caller.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps every layer's public calls from this
directory's code and prints the per-layer metrics instead.  Either way the
last line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``, and the exit status is non-zero when any output
check fails.  The program is imported from ``src/`` next to this
directory; without it the run exits with status 2 and prints no result.
Stores and span files go to ``.sprintbench/`` under the repository root.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper", "fault-matrix", "sweep")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
            ).returncode
        return status
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    imports_s = time.perf_counter() - _STARTED
    out_dir = ROOT / ".sprintbench"
    work_dir = out_dir / f"run-{os.getpid()}"
    try:
        result, correct = harness.run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            imports_s,
            work_dir,
            out_dir,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
