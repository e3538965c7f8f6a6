"""Fixture-driven tests for each analysis rule.

Every rule gets one known-bad snippet that must be flagged, one
known-good snippet that must pass, and a suppression check.
"""

from __future__ import annotations

import pytest

from repro.analysis.determinism import DeterminismRule
from repro.analysis.error_discipline import ErrorDisciplineRule
from repro.analysis.framework import Analyzer
from repro.analysis.units_rule import UnitsRule


def run_rule(rule, tmp_path, text, relpath="mod.py"):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    return Analyzer([rule]).run([target], root=tmp_path)


class TestUnitsRule:
    def test_magic_literal_flagged(self, tmp_path):
        report = run_rule(
            UnitsRule(), tmp_path, "energy = power * 3600\n"
        )
        assert [f.rule for f in report.findings] == ["units"]
        assert "3600" in report.findings[0].message

    def test_division_by_sixty_flagged(self, tmp_path):
        report = run_rule(UnitsRule(), tmp_path, "mins = seconds / 60.0\n")
        assert len(report.findings) == 1

    def test_cross_unit_addition_flagged(self, tmp_path):
        report = run_rule(
            UnitsRule(), tmp_path, "total = energy_j + reserve_wh\n"
        )
        assert len(report.findings) == 1
        assert "_j" in report.findings[0].message
        assert "_wh" in report.findings[0].message

    def test_cross_unit_comparison_flagged(self, tmp_path):
        report = run_rule(
            UnitsRule(), tmp_path, "if power_w > budget_j:\n    pass\n"
        )
        assert len(report.findings) == 1

    def test_good_code_passes(self, tmp_path):
        report = run_rule(
            UnitsRule(),
            tmp_path,
            "from repro.units import SECONDS_PER_HOUR\n"
            "energy_j = power_w * dt_s\n"  # multiplication converts units
            "wh = energy_j / SECONDS_PER_HOUR\n"
            "total_j = energy_j + other_j\n",
        )
        assert report.ok

    def test_units_module_itself_is_exempt(self, tmp_path):
        report = run_rule(
            UnitsRule(), tmp_path, "S = 60 * 60\n", relpath="units.py"
        )
        assert report.ok

    def test_suppression_honored(self, tmp_path):
        report = run_rule(
            UnitsRule(),
            tmp_path,
            "x = y * 3600  # repro: allow[units] -- fixture\n",
        )
        assert report.ok
        assert len(report.suppressed) == 1


HOT = "repro/core/kernel.py"
COLD = "repro/tools/helper.py"


class TestDeterminismRule:
    def test_wall_clock_flagged_in_hot_path(self, tmp_path):
        report = run_rule(
            DeterminismRule(),
            tmp_path,
            "import time\nnow = time.time()\n",
            relpath=HOT,
        )
        assert [f.rule for f in report.findings] == ["determinism"]

    def test_random_module_flagged_in_hot_path(self, tmp_path):
        report = run_rule(
            DeterminismRule(),
            tmp_path,
            "import random\nx = random.random()\n",
            relpath=HOT,
        )
        assert len(report.findings) >= 1

    def test_set_iteration_flagged_in_hot_path(self, tmp_path):
        report = run_rule(
            DeterminismRule(),
            tmp_path,
            "for item in {1.0, 2.0}:\n    total = item\n",
            relpath=HOT,
        )
        assert len(report.findings) == 1
        assert "set" in report.findings[0].message

    def test_math_numpy_mixing_flagged_in_hot_path(self, tmp_path):
        report = run_rule(
            DeterminismRule(),
            tmp_path,
            "import math\nimport numpy as np\n"
            "a = math.sqrt(2.0)\nb = np.sqrt(2.0)\n",
            relpath=HOT,
        )
        assert len(report.findings) == 1
        assert "sqrt" in report.findings[0].message

    def test_rollout_module_is_a_hot_path(self, tmp_path):
        """The MPC rollout planner carries the same bit-for-bit contract
        as the kernel: wall clocks inside it must be flagged."""
        report = run_rule(
            DeterminismRule(),
            tmp_path,
            "import time\nstarted = time.monotonic()\n",
            relpath="repro/simulation/rollout.py",
        )
        assert [f.rule for f in report.findings] == ["determinism"]

    @pytest.mark.parametrize(
        "relpath",
        (
            "repro/simulation/scheduler.py",
            "repro/simulation/packing.py",
        ),
    )
    def test_sweep_dispatch_modules_are_hot_paths(self, tmp_path, relpath):
        """Scheduling and packing decide where work runs, never what it
        computes — a wall clock inside either must be flagged."""
        report = run_rule(
            DeterminismRule(),
            tmp_path,
            "import time\nstarted = time.monotonic()\n",
            relpath=relpath,
        )
        assert [f.rule for f in report.findings] == ["determinism"]

    def test_cold_path_is_exempt(self, tmp_path):
        report = run_rule(
            DeterminismRule(),
            tmp_path,
            "import time\nimport random\nnow = time.time()\n"
            "x = random.random()\nfor i in {1, 2}:\n    pass\n",
            relpath=COLD,
        )
        assert report.ok

    def test_clean_hot_path_passes(self, tmp_path):
        report = run_rule(
            DeterminismRule(),
            tmp_path,
            "import math\n"
            "def f(x):\n"
            "    for v in sorted({1.0, 2.0}):\n"
            "        x += math.exp(v)\n"
            "    return x\n",
            relpath=HOT,
        )
        assert report.ok

    def test_suppression_honored(self, tmp_path):
        report = run_rule(
            DeterminismRule(),
            tmp_path,
            "import time\n"
            "now = time.time()  # repro: allow[determinism] -- fixture\n",
            relpath=HOT,
        )
        assert report.ok


class TestErrorDisciplineRule:
    def test_bare_except_pass_flagged(self, tmp_path):
        report = run_rule(
            ErrorDisciplineRule(),
            tmp_path,
            "try:\n    work()\nexcept:\n    pass\n",
        )
        assert [f.rule for f in report.findings] == ["error-discipline"]

    def test_broad_except_swallow_flagged(self, tmp_path):
        report = run_rule(
            ErrorDisciplineRule(),
            tmp_path,
            "try:\n    work()\nexcept Exception:\n    result = None\n",
        )
        assert len(report.findings) == 1

    def test_broad_except_in_tuple_flagged(self, tmp_path):
        report = run_rule(
            ErrorDisciplineRule(),
            tmp_path,
            "try:\n    work()\nexcept (ValueError, Exception):\n    pass\n",
        )
        assert len(report.findings) == 1

    def test_contextlib_suppress_exception_flagged(self, tmp_path):
        report = run_rule(
            ErrorDisciplineRule(),
            tmp_path,
            "import contextlib\nwith contextlib.suppress(Exception):\n"
            "    work()\n",
        )
        assert len(report.findings) == 1

    def test_reraise_passes(self, tmp_path):
        report = run_rule(
            ErrorDisciplineRule(),
            tmp_path,
            "try:\n    work()\nexcept Exception:\n    cleanup()\n    raise\n",
        )
        assert report.ok

    def test_logging_passes(self, tmp_path):
        report = run_rule(
            ErrorDisciplineRule(),
            tmp_path,
            "try:\n    work()\nexcept Exception as exc:\n"
            "    log.warning('failed: %s', exc)\n",
        )
        assert report.ok

    def test_narrow_handler_passes(self, tmp_path):
        report = run_rule(
            ErrorDisciplineRule(),
            tmp_path,
            "try:\n    work()\nexcept (OSError, ValueError):\n    pass\n",
        )
        assert report.ok

    def test_suppression_honored(self, tmp_path):
        report = run_rule(
            ErrorDisciplineRule(),
            tmp_path,
            "try:\n    work()\n"
            "except Exception:\n"
            "    # repro: allow[error-discipline] -- fixture swallow\n"
            "    pass\n",
        )
        # A directive inside the handler body is too late — it must sit on
        # the 'except' line or the line directly above it.
        assert not report.ok
        report2 = run_rule(
            ErrorDisciplineRule(),
            tmp_path,
            "try:\n    work()\n"
            "# repro: allow[error-discipline] -- fixture swallow\n"
            "except Exception:\n"
            "    pass\n",
        )
        assert report2.ok
        assert len(report2.suppressed) == 1
