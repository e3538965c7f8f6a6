"""Tests of the benchmark itself: isolation guards, seeds and determinism.

Run from the repository root::

    python -m pytest sprintbench -q

The slow test runs every workload twice in fresh processes (untraced and
traced, one second of measurement each) and takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import jobs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from repro.simulation import batch, engine, snapshot  # noqa: E402
from repro.simulation.batch import SweepRunner  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "sprintbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _digest(stdout: str) -> str:
    return [line for line in stdout.splitlines() if line.startswith("digest ")][-1]


@pytest.fixture
def no_from_env(monkeypatch: pytest.MonkeyPatch) -> List[int]:
    calls: List[int] = []

    def forbidden(cls: type) -> SweepRunner:
        calls.append(1)
        raise AssertionError("SweepRunner.from_env() called")

    monkeypatch.setattr(SweepRunner, "from_env", classmethod(forbidden))
    return calls


def _build(name: str, seed: int, tmp_path: Path) -> Tuple[jobs.Workload, jobs.Workload]:
    with SweepRunner(max_workers=1, backend="in-process") as runner:
        return jobs.build(name, seed, runner, tmp_path)


def _run_cycle(workload: jobs.Workload, rounds: int) -> SweepRunner:
    runner = workload.new_runner()
    for round_jobs in workload.rounds[:rounds]:
        ctx: jobs.Context = {}
        for job in round_jobs:
            job.call(runner, ctx)
    return runner


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_digest_across_processes_and_tracing(name: str) -> None:
    untraced = _run(name, 11, 0)
    traced = _run(name, 11, 1)
    for proc in (untraced, traced):
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    first = json.loads(untraced.stdout.strip().splitlines()[-1])
    second = json.loads(traced.stdout.strip().splitlines()[-1])
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0 and second["failed"] == 0
    assert _digest(untraced.stdout) == _digest(traced.stdout)
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(second["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for declared in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        reported = (first["metrics"] | second["metrics"])[declared["name"]]
        assert reported["unit"] == declared["unit"], declared["name"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_decides_inputs_and_warmup_inputs_are_separate(
    name: str, tmp_path: Path
) -> None:
    timed, warmup = _build(name, 1, tmp_path)
    again, _ = _build(name, 1, tmp_path)
    other, _ = _build(name, 2, tmp_path)
    assert timed.fingerprint == again.fingerprint
    assert timed.fingerprint != other.fingerprint
    timed_traces = {t.samples.tobytes() for t in timed.traces}
    assert not timed_traces & {t.samples.tobytes() for t in warmup.traces}
    if timed.store_root is not None:
        assert warmup.store_root != timed.store_root


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_runner_is_in_process_and_never_from_env(
    name: str, tmp_path: Path, no_from_env: List[int]
) -> None:
    timed, _ = _build(name, 3, tmp_path)
    runner = _run_cycle(timed, 1)
    try:
        assert runner.backend == "in-process"
        assert runner.max_workers == 1
        assert (runner.store is None) == (name != "sweep")
    finally:
        timed.close_runner(runner)
    assert not no_from_env
    for source in HERE.glob("*.py"):
        if source.name != Path(__file__).name:
            assert "from_env()" not in source.read_text(), source


def test_sweep_store_starts_empty_and_hits_equal_designed_repeats(tmp_path: Path) -> None:
    timed, _ = _build("sweep", 5, tmp_path)
    for _ in range(2):
        runner = timed.new_runner()
        assert runner.store is not None
        assert not list(runner.store.root.glob("*"))
        ctx: jobs.Context = {}
        for job in timed.jobs:
            job.call(runner, ctx)
        assert runner.hits == sum(job.hits for job in timed.jobs) > 0
        assert runner.misses == sum(job.misses for job in timed.jobs)
        assert runner.store.stats()[0] == runner.misses
        timed.close_runner(runner)
        assert not runner.cache_dir.exists()


@pytest.mark.parametrize("name", ["paper", "fault-matrix"])
def test_storeless_workloads_never_hit(name: str, tmp_path: Path) -> None:
    timed, _ = _build(name, 5, tmp_path)
    runner = _run_cycle(timed, 1)
    assert runner.hits == 0
    assert all(job.hits == 0 for job in timed.jobs)
    timed.close_runner(runner)


def test_tracer_restores_every_patched_name() -> None:
    originals: Dict[str, object] = {
        "batch.shared_prefix": batch.shared_prefix_oracle_search,
        "engine.shared_prefix": engine.shared_prefix_oracle_search,
        "simulate": SweepRunner.__dict__["simulate"],
        "capture": snapshot.FacilityState.__dict__["capture"],
    }
    tracer = layers.Tracer()
    tracer.install()
    assert batch.shared_prefix_oracle_search is not originals["batch.shared_prefix"]
    assert engine.shared_prefix_oracle_search is not originals["engine.shared_prefix"]
    assert isinstance(snapshot.FacilityState.__dict__["capture"], classmethod)
    tracer.uninstall()
    assert batch.shared_prefix_oracle_search is originals["batch.shared_prefix"]
    assert engine.shared_prefix_oracle_search is originals["engine.shared_prefix"]
    assert SweepRunner.__dict__["simulate"] is originals["simulate"]
    assert snapshot.FacilityState.__dict__["capture"] is originals["capture"]


def test_every_wrapped_call_exists() -> None:
    tracer = layers.Tracer()
    tracer.install()
    try:
        patched = {(getattr(owner, "__name__", None), attr) for owner, attr, _, _ in tracer._patches}
    finally:
        tracer.uninstall()
    for _, _, path, _ in layers.WRAPPED:
        assert path.split(".")[-1] in {attr for _, attr in patched}, path


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("paper", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_record_names_the_declared_workloads_and_layers() -> None:
    record = json.loads((HERE / "workloads.json").read_text())
    assert set(record["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    mapped = {m for layer in record["layers"].values() for m in layer["metrics"]}
    assert mapped == declared
    assert record["seeds"]["development"] != record["seeds"]["held_out"]
