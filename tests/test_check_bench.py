"""Unit tests for the benchmark regression gate (benchmarks/check_bench.py).

The checker is a standalone script (it must run without the package on
``sys.path``), so these tests drive it through its ``main`` entry point
with synthetic pytest-benchmark JSON files.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench",
    Path(__file__).parent.parent / "benchmarks" / "check_bench.py",
)
assert _SPEC is not None and _SPEC.loader is not None
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)


def write_results(path: Path, ops_by_name: dict) -> Path:
    payload = {
        "benchmarks": [
            {"name": name, "stats": {"ops": ops, "mean": 1.0 / ops}}
            for name, ops in ops_by_name.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture()
def baseline(tmp_path):
    return write_results(
        tmp_path / "baseline.json",
        {"bench_full_ms_run": 15.0, "bench_oracle_search": 3.0},
    )


def run(fresh, baseline, *extra):
    return check_bench.main([str(fresh), "--baseline", str(baseline), *extra])


class TestAbsoluteComparison:
    def test_identical_results_pass(self, tmp_path, baseline):
        fresh = write_results(
            tmp_path / "f.json",
            {"bench_full_ms_run": 15.0, "bench_oracle_search": 3.0},
        )
        assert run(fresh, baseline) == 0

    def test_small_slowdown_within_tolerance_passes(self, tmp_path, baseline):
        fresh = write_results(
            tmp_path / "f.json",
            {"bench_full_ms_run": 12.0, "bench_oracle_search": 2.4},
        )
        assert run(fresh, baseline) == 0  # 20% drop < 25% tolerance

    def test_regression_beyond_tolerance_fails(self, tmp_path, baseline):
        fresh = write_results(
            tmp_path / "f.json",
            {"bench_full_ms_run": 15.0, "bench_oracle_search": 2.0},
        )
        assert run(fresh, baseline) == 1  # 33% drop > 25% tolerance

    def test_tolerance_is_configurable(self, tmp_path, baseline):
        fresh = write_results(
            tmp_path / "f.json",
            {"bench_full_ms_run": 12.0, "bench_oracle_search": 3.0},
        )
        assert run(fresh, baseline, "--tolerance", "0.1") == 1

    def test_new_benchmark_without_baseline_passes(self, tmp_path, baseline):
        fresh = write_results(
            tmp_path / "f.json",
            {
                "bench_full_ms_run": 15.0,
                "bench_oracle_search": 3.0,
                "bench_brand_new": 1.0,
            },
        )
        assert run(fresh, baseline) == 0

    def test_baseline_row_missing_from_fresh_run_fails(
        self, tmp_path, baseline, capsys
    ):
        """A deleted or skipped benchmark must not pass the gate."""
        fresh = write_results(tmp_path / "f.json", {"bench_full_ms_run": 15.0})
        assert run(fresh, baseline) == 1
        assert (
            run(fresh, baseline, "--relative-to", "bench_full_ms_run") == 1
        )
        out = capsys.readouterr().out
        assert "bench_oracle_search" in out and "missing" in out


class TestRelativeComparison:
    def test_uniform_machine_slowdown_passes(self, tmp_path, baseline):
        """Half-speed machine, same shape: the anchor normalisation must
        not flag it."""
        fresh = write_results(
            tmp_path / "f.json",
            {"bench_full_ms_run": 7.5, "bench_oracle_search": 1.5},
        )
        assert run(fresh, baseline) == 1  # absolute comparison trips...
        assert (
            run(fresh, baseline, "--relative-to", "bench_full_ms_run") == 0
        )  # ...relative does not

    def test_shape_regression_still_fails(self, tmp_path, baseline):
        """One benchmark slowing down relative to the anchor is a real
        regression even on a slower machine."""
        fresh = write_results(
            tmp_path / "f.json",
            {"bench_full_ms_run": 7.5, "bench_oracle_search": 1.0},
        )
        assert (
            run(fresh, baseline, "--relative-to", "bench_full_ms_run") == 1
        )

    def test_missing_anchor_is_an_error(self, tmp_path, baseline):
        fresh = write_results(tmp_path / "f.json", {"bench_oracle_search": 3.0})
        assert run(fresh, baseline, "--relative-to", "bench_full_ms_run") == 1


class TestInputValidation:
    def test_missing_file_is_an_error(self, tmp_path, baseline):
        assert run(tmp_path / "nope.json", baseline) == 2

    def test_bad_tolerance_is_an_error(self, tmp_path, baseline):
        fresh = write_results(tmp_path / "f.json", {"bench_full_ms_run": 15.0})
        assert run(fresh, baseline, "--tolerance", "1.5") == 2

    def test_no_shared_benchmarks_is_an_error(self, tmp_path, baseline):
        fresh = write_results(tmp_path / "f.json", {"bench_other": 1.0})
        assert run(fresh, baseline) == 1

    def test_committed_baseline_is_loadable(self):
        """The compact committed baseline parses and covers the engine
        benchmarks the Makefile gate compares."""
        ops = check_bench.load_ops(check_bench.DEFAULT_BASELINE)
        assert "bench_full_ms_run" in ops
        assert "bench_oracle_search_13_candidates" in ops
        assert "bench_upper_bound_table_cold" in ops
