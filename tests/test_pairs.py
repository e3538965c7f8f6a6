"""Unit tests for the paired-run tool's statistics (benchmarks/pairs.py).

The tool is a standalone script that runs sprintbench from two checkouts;
these tests drive its pure summary functions with synthetic runs, so no
benchmark runs here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
