"""Unit tests for the paired-run tool's statistics (benchmarks/pairs.py).

The tool is a standalone script that runs sprintbench from two checkouts;
these tests drive its pure summary functions with synthetic runs, so no
benchmark runs here.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs",
    Path(__file__).parent.parent / "benchmarks" / "pairs.py",
)
assert _SPEC is not None and _SPEC.loader is not None
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

TIGHT = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7]


def test_quartiles_interpolate_inclusively():
    assert pairs.quartiles([float(v) for v in range(1, 11)]) == {
        "q1": 3.25,
        "median": 5.5,
        "q3": 7.75,
    }


def test_clear_gain_is_improved():
    change = [v * 1.4 for v in TIGHT]
    row = pairs.verdict(TIGHT, change, "higher", 0.25)
    assert row["wins"] == 10 and row["losses"] == 0
    assert row["verdict"] == pairs.IMPROVED
    assert row["ratio"] == pytest.approx(1.4)


def test_direction_comes_from_better():
    """A lower-is-better metric that falls is a gain; one that rises past
    the bound is a regression."""
    faster = [v * 0.5 for v in TIGHT]
    slower = [v * 1.3 for v in TIGHT]
    assert pairs.verdict(TIGHT, faster, "lower", 0.25)["verdict"] == pairs.IMPROVED
    assert pairs.verdict(TIGHT, slower, "lower", 0.25)["verdict"] == pairs.WORSE
    assert pairs.verdict(TIGHT, slower, "higher", 0.25)["verdict"] == pairs.IMPROVED


def test_small_loss_is_within_bound():
    change = [v * 0.9 for v in TIGHT]
    row = pairs.verdict(TIGHT, change, "higher", 0.25)
    assert row["wins"] == 0
    assert row["verdict"] == pairs.WITHIN


def test_eight_wins_of_ten_claim_nothing():
    """A large median gain without nine tenths of the pairs is no claim."""
    change = [v * 1.5 for v in TIGHT[:8]] + [v * 0.9 for v in TIGHT[8:]]
    row = pairs.verdict(TIGHT, change, "higher", 0.25)
    assert row["wins"] == 8
    assert row["verdict"] == pairs.WITHIN


def test_gain_inside_the_parent_spread_claims_nothing():
    """Ten wins, but the medians differ by less than the parent's IQR."""
    parent = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    change = [v + 1.0 for v in parent]
    row = pairs.verdict(parent, change, "higher", 0.25)
    assert row["wins"] == 10
    assert row["parent_iqr"] == 10.0
    assert row["verdict"] == pairs.WITHIN


def test_wide_parent_spread_is_unresolved():
    parent = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 65.0, 135.0]
    change = [v * 0.95 for v in reversed(parent)]
    row = pairs.verdict(parent, change, "higher", 0.25)
    assert row["parent_iqr"] > 0.25 * row["parent"]["median"]
    assert row["verdict"] == pairs.UNRESOLVED


def test_dominating_change_is_resolved_despite_spread():
    """Every change run above every parent run settles a wide spread."""
    parent = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 65.0, 135.0]
    change = [141.0] * 10
    row = pairs.verdict(parent, change, "higher", 0.25)
    assert row["parent_iqr"] > 141.0 - row["parent"]["median"]
    assert row["verdict"] == pairs.WITHIN


def test_summarize_pairs_runs_by_index():
    specs = [
        {"name": "sim_s_per_s", "unit": "sim_s/s", "better": "higher", "bound": 0.25},
        {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ]
    runs = []
    for i, value in enumerate(TIGHT):
        # Alternate which side is listed first, as the tool runs them.
        sides = [("parent", 1.0), ("change", 1.4)]
        for side, scale in sides if i % 2 == 0 else reversed(sides):
            runs.append({
                "pair": i,
                "side": side,
                "metrics": {"sim_s_per_s": value * scale, "job_p50_ms": value},
            })
    summary = pairs.summarize(runs, specs)
    assert summary["sim_s_per_s"]["verdict"] == pairs.IMPROVED
    assert summary["sim_s_per_s"]["wins"] == 10
    assert summary["job_p50_ms"]["verdict"] == pairs.WITHIN
    assert summary["job_p50_ms"]["wins"] == 0
    assert summary["job_p50_ms"]["bound"] == 0.25


def test_summarize_rejects_unpaired_runs():
    runs = [
        {"pair": 0, "side": "parent", "metrics": {"m": 1.0}},
        {"pair": 1, "side": "parent", "metrics": {"m": 1.0}},
        {"pair": 0, "side": "change", "metrics": {"m": 1.0}},
    ]
    spec = [{"name": "m", "unit": "x", "better": "higher", "bound": 0.25}]
    with pytest.raises(ValueError):
        pairs.summarize(runs, spec)


def test_verdict_rejects_bad_input():
    with pytest.raises(ValueError):
        pairs.verdict([1.0], [1.0], "higher", 0.25)
    with pytest.raises(ValueError):
        pairs.verdict([1.0, 2.0], [1.0, 2.0], "sideways", 0.25)


def test_out_path_names_the_parent_commit():
    """Each parent commit gets its own file, so comparing the same
    workload and seed against a later parent keeps the earlier evidence."""
    commit = "5e36e5505bda556afaff27d354ce211c90763609"
    path = pairs.out_path("paper", 7, commit)
    assert path == pairs.OUT_DIR / "paper-7-5e36e55.json"
    assert pairs.out_path("paper", 7, "1776635" + "0" * 33) != path


def test_ratio_summary_is_parent_time_over_change_time():
    """A change that halves each iteration's time doubles the ops ratio."""
    parent = [0.010, 0.012, 0.011, 0.013]
    change = [t / 2.0 for t in parent]
    row = pairs.ratio_summary(parent, change)
    assert row["ratio"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert row["parent_s"]["median"] == pytest.approx(0.0115)
    assert row["iterations"] == 4
    with pytest.raises(ValueError):
        pairs.ratio_summary([0.01], [0.01])


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _package(root, limit):
    """A tiny ``repro`` package whose lazily imported submodule returns
    ``limit``."""
    return _tree(root, {
        "repro/__init__.py": "",
        "repro/core/__init__.py": "",
        "repro/core/limits.py": f"LIMIT = {limit!r}\n",
        "repro/core/strategies.py": (
            "class Greedy:\n"
            "    def bound(self):\n"
            "        from repro.core.limits import LIMIT\n"
            "        return LIMIT\n"
        ),
    })


def test_each_side_runs_its_own_package(tmp_path):
    """Two whole imports of ``repro`` live side by side: an object built
    on one side keeps that side's code, lazy imports included, and the
    caller's modules come back after each block."""
    import sys

    sides = {
        "parent": pairs.Side(_package(tmp_path / "parent", 1.0)),
        "change": pairs.Side(_package(tmp_path / "change", 2.0)),
    }
    before = {name for name in sys.modules if pairs._side_owned(name)}
    greedy = {}
    for name, side in sides.items():
        with side.active():
            from repro.core.strategies import Greedy

            greedy[name] = Greedy()
    for name, expected in (("parent", 1.0), ("change", 2.0)):
        with sides[name].active():
            assert greedy[name].bound() == expected
    assert {name for name in sys.modules if pairs._side_owned(name)} == before
    assert "repro.core.limits" in sides["change"].modules
    assert (
        sides["parent"].modules["repro.core.limits"]
        is not sides["change"].modules["repro.core.limits"]
    )


def test_time_row_refuses_unequal_results(tmp_path):
    sides = {
        "parent": pairs.Side(_package(tmp_path / "parent", 1.0)),
        "change": pairs.Side(_package(tmp_path / "change", 1.0)),
    }
    same = {"parent": lambda: 1.0, "change": lambda: 1.0}
    row = pairs.time_row("row", same, sides, 2)
    assert row["iterations"] == 2 and row["repeat"] >= 1
    with pytest.raises(SystemExit, match="row: the parent and the change differ"):
        pairs.time_row("row", {"parent": lambda: 1.0, "change": lambda: 2.0}, sides, 2)


@dataclasses.dataclass(frozen=True)
class _BatchRun:
    """Stands in for ``BatchRunResult``: result arrays plus the kernel."""

    served: np.ndarray
    kernel: object


def test_time_row_compares_results_without_their_kernel(tmp_path):
    """Results whose kernel objects differ but whose arrays are equal
    pair; a differing array still stops the tool."""
    sides = {
        "parent": pairs.Side(_package(tmp_path / "parent", 1.0)),
        "change": pairs.Side(_package(tmp_path / "change", 1.0)),
    }
    served = np.linspace(0.0, 1.0, 5)
    kernels = {
        "parent": lambda: _BatchRun(served, SimpleNamespace(_tp_b=2.0)),
        "change": lambda: _BatchRun(served, SimpleNamespace(_throughput=None)),
    }
    row = pairs.time_row("row", kernels, sides, 2)
    assert row["iterations"] == 2
    shifted = {
        "parent": kernels["parent"],
        "change": lambda: _BatchRun(served + 1e-12, SimpleNamespace()),
    }
    with pytest.raises(SystemExit, match="row: the parent and the change differ"):
        pairs.time_row("row", shifted, sides, 2)
