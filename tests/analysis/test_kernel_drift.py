"""The kernel-drift checker: clean on the real tree, sensitive to tampering.

The first test doubles as the tier-1 guard of the kernel/reference
contract: any change that makes ``StepKernel`` read different substrate
attributes, build a different ``ControlStep``, or fold an alien constant
fails the local test run, not just CI.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis import kernel_drift
from repro.analysis.framework import SourceFile, collect_files, load_source
from repro.analysis.kernel_drift import KernelDriftRule

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def real_sources():
    return [load_source(p, root=SRC) for p in collect_files([SRC])]


def tampered(sources, old, new):
    """The real source list with one substitution applied to kernel.py."""
    out = []
    for source in sources:
        if source.path.name == "kernel.py" and "core" in source.path.parts:
            assert old in source.text, f"fixture drifted: {old!r} not found"
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
    return out


class TestRealTree:
    def test_kernel_matches_reference(self, real_sources):
        findings = KernelDriftRule().check_project(real_sources)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_rule_skips_trees_without_the_contract(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        source = load_source(target, root=tmp_path)
        assert KernelDriftRule().check_project([source]) == []


class TestTamperSensitivity:
    def test_deleting_a_hoisted_read_is_detected(self, real_sources):
        sources = tampered(
            real_sources,
            "self._room_hc = room.heat_capacity_j_per_k",
            "self._room_hc = 1.0",
        )
        findings = KernelDriftRule().check_project(sources)
        assert any("heat_capacity_j_per_k" in f.message for f in findings)

    def test_deleting_a_live_substrate_read_is_detected(self, real_sources):
        # hold_off_s is read from the detector once per segment;
        # folding it into a constant breaks the contract and must be caught.
        sources = tampered(
            real_sources,
            "hold_off_s = detector.hold_off_s",
            "hold_off_s = 17.31",
        )
        findings = KernelDriftRule().check_project(sources)
        assert any("hold_off_s" in f.message for f in findings)

    def test_dropping_a_controlstep_field_is_detected(self, real_sources):
        sources = tampered(
            real_sources, "tes_heat_w=heat_via_tes,", ""
        )
        findings = KernelDriftRule().check_project(sources)
        assert any(
            "tes_heat_w" in f.message and "ControlStep" in f.message
            for f in findings
        )

    def test_folding_an_alien_constant_is_detected(self, real_sources):
        sources = tampered(
            real_sources,
            "self._core_power_w = chip.core_power_w",
            "self._core_power_w = 2.4971",
        )
        findings = KernelDriftRule().check_project(sources)
        assert any("2.4971" in f.message for f in findings)

    def test_hidden_cycle_cache_field_is_detected(self, real_sources):
        # The step body must read only what the reference step reads;
        # consulting other controller state (a hidden per-run cache, a
        # degraded-mode field) is exactly the drift the
        # ALLOWED_KERNEL_ONLY ledger exists to surface.
        sources = tampered(
            real_sources,
            "degree = upper_bound if upper_bound < needed else needed\n",
            "degree = ctrl._degraded_capacity or needed\n",
        )
        findings = KernelDriftRule().check_project(sources)
        assert any(
            "_degraded_capacity" in f.message
            and "reference step never does" in f.message
            for f in findings
        )

    def test_folding_the_trace_period_is_detected(self, real_sources):
        # A segment's timestamps must come from the trace's own dt_s, not
        # a folded constant (the constant audit scans the whole file).
        sources = tampered(
            real_sources,
            "(steps * trace.dt_s)",
            "(steps * 0.9973)",
        )
        findings = KernelDriftRule().check_project(sources)
        assert any("0.9973" in f.message for f in findings)

    def test_kernel_only_read_is_detected(self, real_sources):
        # Make the kernel consult a substrate attribute (TesTank.capacity_j)
        # that the reference step closure never reads.
        sources = tampered(
            real_sources,
            "tes_max_discharge_w = 0.0 if tes is None else tes.max_discharge_w",
            "tes_max_discharge_w = 0.0 if tes is None else min("
            "tes.max_discharge_w, tes.capacity_j)",
        )
        findings = KernelDriftRule().check_project(sources)
        assert any(
            "TesTank.capacity_j" in f.message
            and "reference step never does" in f.message
            for f in findings
        )


class TestAllowlistAudit:
    """Every allowlist entry must excuse a divergence that exists."""

    def test_planted_unused_entry_is_detected(self, real_sources, monkeypatch):
        # Both sides read Room.setpoint_c, so the entry excuses nothing.
        monkeypatch.setitem(
            kernel_drift.ALLOWED_KERNEL_ONLY,
            ("Room", "setpoint_c"),
            "planted: excuses no divergence",
        )
        findings = KernelDriftRule().check_project(real_sources)
        stale = [f for f in findings if "stale allowlist entry" in f.message]
        assert len(stale) == 1
        assert "ALLOWED_KERNEL_ONLY" in stale[0].message
        assert "setpoint_c" in stale[0].message

    def test_retired_vector_entry_would_be_stale(
        self, real_sources, monkeypatch
    ):
        # Both kernels read PhaseTracker.current_phase (the scalar one
        # seeds its deferred phase from it), so no vector-only divergence
        # exists for an entry to excuse.
        monkeypatch.setitem(
            kernel_drift.ALLOWED_VECTOR_KERNEL_ONLY,
            ("PhaseTracker", "current_phase"),
            "the vector kernel seeds its phase codes from the tracker",
        )
        findings = KernelDriftRule().check_project(real_sources)
        assert any(
            "stale allowlist entry" in f.message
            and "ALLOWED_VECTOR_KERNEL_ONLY" in f.message
            for f in findings
        )

    def test_empty_reason_is_detected(self, real_sources, monkeypatch):
        monkeypatch.setitem(
            kernel_drift.ALLOWED_KERNEL_ONLY,
            ("PhaseTracker", "current_phase"),
            "  ",
        )
        findings = KernelDriftRule().check_project(real_sources)
        assert [f.message for f in findings] == [
            "ALLOWED_KERNEL_ONLY[('PhaseTracker', 'current_phase')] has an "
            "empty reason; every allowlist entry must say why the "
            "divergence is by design"
        ]
