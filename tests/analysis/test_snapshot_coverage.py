"""The snapshot-coverage checker: clean on the real tree, tamper-sensitive.

The first test doubles as the tier-1 guard of the fork-engine contract:
adding mutable state to any class a live run drives without threading it
through ``FacilityState.capture/restore`` (or the strategy's
``snapshot_state``) fails the local test run, not just CI.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.framework import SourceFile, collect_files, load_source
from repro.analysis.snapshot_coverage import (
    ALLOWED_UNSNAPSHOTTED,
    SnapshotCoverageRule,
)

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def real_sources():
    return [load_source(p, root=SRC) for p in collect_files([SRC])]


def tampered(sources, filename, old, new):
    """The real source list with one substitution applied to ``filename``."""
    out = []
    hit = False
    for source in sources:
        if source.path.name == filename:
            assert old in source.text, f"fixture drifted: {old!r} not found"
            hit = True
            text = source.text.replace(old, new)
            out.append(
                SourceFile(
                    path=source.path,
                    display_path=source.display_path,
                    text=text,
                    tree=ast.parse(text),
                    suppressions=source.suppressions,
                )
            )
        else:
            out.append(source)
    assert hit, f"fixture drifted: no {filename} in the tree"
    return out


class TestRealTree:
    def test_every_mutable_field_is_snapshotted(self, real_sources):
        findings = SnapshotCoverageRule().check_project(real_sources)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_rule_skips_trees_without_the_fork_engine(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        source = load_source(target, root=tmp_path)
        assert SnapshotCoverageRule().check_project([source]) == []

    def test_allowlist_reasons_are_written(self):
        for (name, attr), reason in ALLOWED_UNSNAPSHOTTED.items():
            assert reason.strip(), f"({name}, {attr}) entry has no reason"


class TestTamperSensitivity:
    def test_hidden_controller_field_is_detected(self, real_sources):
        # A new mutable attribute on the controller that capture/restore
        # never sees: forks would replay with stale hidden state.
        sources = tampered(
            real_sources,
            "controller.py",
            "self.last_needed_degree = math.nan",
            "self.last_needed_degree = math.nan\n        self._hidden_state = 1.0",
        )
        findings = SnapshotCoverageRule().check_project(sources)
        assert any(
            "SprintingController._hidden_state" in f.message
            for f in findings
        )

    def test_hidden_strategy_field_is_detected(self, real_sources):
        sources = tampered(
            real_sources,
            "strategies.py",
            "            self._peak_demand = obs.demand\n",
            "            self._peak_demand = obs.demand\n"
            "        self._secret = obs.demand\n",
        )
        findings = SnapshotCoverageRule().check_project(sources)
        assert any("._secret" in f.message for f in findings)

    def test_dropping_a_snapshot_field_is_detected(self, real_sources):
        # Rename tripped_at_s inside snapshot.py only: the breaker still
        # mutates it, but the snapshot surface no longer covers it.
        sources = tampered(
            real_sources,
            "snapshot.py",
            "tripped_at_s",
            "tripped_at_s_gone",
        )
        findings = SnapshotCoverageRule().check_project(sources)
        assert any(
            "CircuitBreaker.tripped_at_s" in f.message for f in findings
        )

    def test_stale_allowlist_entry_is_detected(self, tmp_path):
        # A mini-tree whose MPC strategy never re-binds its planner after
        # construction: the _planner allowlist entry must rot loudly.
        snap = tmp_path / "repro" / "simulation" / "snapshot.py"
        strat = tmp_path / "repro" / "core" / "strategies.py"
        snap.parent.mkdir(parents=True)
        strat.parent.mkdir(parents=True)
        snap.write_text("class FacilityState:\n    pass\n")
        strat.write_text(
            "class MPCStrategy:\n"
            "    def __init__(self):\n"
            "        self._planner = None\n"
        )
        sources = [
            load_source(p, root=tmp_path) for p in collect_files([tmp_path])
        ]
        findings = SnapshotCoverageRule().check_project(sources)
        assert any(
            "stale allowlist entry" in f.message and "_planner" in f.message
            for f in findings
        )
