"""Backend identity: the scheduler contract, pinned.

Both :class:`SweepScheduler` backends — and the vector-packed tier that
runs ``run_tasks`` batches in front of them — must produce results
element-wise identical to the serial in-process reference, for
successes, for cached replays and for failures.  No backend forms a
vector batch for an upper-bound table.  The parametrized tests here
difference each backend against the same reference results, so a new
backend joins the contract by joining ``BACKENDS``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.vector_kernel import VectorStepKernel
from repro.errors import BreakerTrippedError, ConfigurationError
from repro.simulation import packing
from repro.simulation.batch import (
    RunFailure,
    StrategySpec,
    SweepRunner,
    SweepTask,
)
from repro.simulation.config import DataCenterConfig
from repro.workloads.traces import Trace

SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=25)
CANDIDATES = (2.0, 2.5, 3.0, 3.5)

#: Every selectable execution path.  ``vector-packed`` is the in-process
#: backend with the packed kernel tier enabled (the default); the other
#: two run with packing off so each backend's own execution path is the
#: thing under test.
BACKENDS = ("in-process", "process-pool", "vector-packed")

#: Candidates all below 1.0: with the lane floor pinned to 2, the table's
#: 4 points x 5 candidates would fill a packed batch, yet every backend
#: runs it, like any other grid, as one pruned search per point.
PACKED_TABLE_CANDIDATES = (0.5, 0.6, 0.7, 0.8, 0.9)


def burst_trace(seed: int = 0, n: int = 90) -> Trace:
    rng = np.random.default_rng(seed)
    samples = 0.7 + 0.2 * rng.random(n)
    samples[30:60] += 1.8
    return Trace(samples, name=f"backend-{seed}")


def make_runner(backend: str, cache_dir=None) -> SweepRunner:
    if backend == "vector-packed":
        return SweepRunner(max_workers=1, cache_dir=cache_dir)
    if backend == "process-pool":
        return SweepRunner(
            max_workers=2,
            cache_dir=cache_dir,
            backend="process-pool",
            vector_pack=False,
        )
    return SweepRunner(
        max_workers=1,
        cache_dir=cache_dir,
        backend="in-process",
        vector_pack=False,
    )


@pytest.fixture()
def vector_steps(monkeypatch):
    """Pin the lane floor to 2 and record each vector kernel step's width.

    This suite's ``run_tasks`` batch is 4 lanes wide, below the real
    ``packing.MIN_PACK_WIDTH``; the pin keeps the ``vector-packed`` leg on
    the packed path, and the recorded steps show that it ran there (and
    that no table build packs, even with the floor this low).
    """
    monkeypatch.setattr(packing, "MIN_PACK_WIDTH", 2)
    steps = []
    step = VectorStepKernel.step

    def recording_step(self, *args, **kwargs):
        steps.append(self.n)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(VectorStepKernel, "step", recording_step)
    return steps


def mixed_tasks() -> list:
    """Packable (fixed, greedy) and unpackable (MPC) tasks, mixed."""
    trace = burst_trace()
    return [
        SweepTask(trace, StrategySpec.fixed(2.0), SMALL),
        SweepTask(trace, StrategySpec.greedy(), SMALL),
        SweepTask(trace, StrategySpec.fixed(3.0), SMALL),
        SweepTask(
            trace,
            StrategySpec.mpc(candidate_bounds=CANDIDATES, horizon_s=240.0),
            SMALL,
        ),
        SweepTask(burst_trace(1), StrategySpec.fixed(2.5), SMALL),
    ]


@pytest.fixture(scope="module")
def reference_results():
    runner = SweepRunner(max_workers=1, vector_pack=False)
    return runner.run_tasks(mixed_tasks())


def build_table(runner: SweepRunner, candidates):
    return runner.build_upper_bound_table(
        config=SMALL,
        burst_durations_min=(2.0, 4.0),
        burst_degrees=(2.8, 3.2),
        candidates=candidates,
    )


@pytest.fixture(scope="module")
def reference_table():
    runner = SweepRunner(max_workers=1, vector_pack=False)
    return build_table(runner, CANDIDATES)


@pytest.fixture(scope="module")
def reference_packed_table():
    runner = SweepRunner(max_workers=1, vector_pack=False)
    return build_table(runner, PACKED_TABLE_CANDIDATES)


class TestBackendIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_batch_matches_reference(
        self, backend, reference_results, vector_steps
    ):
        runner = make_runner(backend)
        try:
            assert runner.run_tasks(mixed_tasks()) == reference_results
        finally:
            runner.close()
        assert bool(vector_steps) == (backend == "vector-packed")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_upper_bound_table_matches_reference(
        self, backend, reference_table, vector_steps
    ):
        runner = make_runner(backend)
        try:
            table = build_table(runner, CANDIDATES)
        finally:
            runner.close()
        assert table.entries() == reference_table.entries()
        assert vector_steps == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_packed_table_matches_reference(
        self, backend, reference_packed_table, vector_steps
    ):
        runner = make_runner(backend)
        try:
            table = build_table(runner, PACKED_TABLE_CANDIDATES)
        finally:
            runner.close()
        assert table.entries() == reference_packed_table.entries()
        assert vector_steps == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cached_failure_replays_without_execution(
        self, backend, tmp_path, monkeypatch
    ):
        """A RunFailure caches and replays on every backend.

        The failing task is a lone MPC task, so the process-pool backend
        exercises its serial fallback and the packed tier passes the task
        through — the injected failure reaches ``execute_task`` on every
        path.
        """
        calls = []

        def boom(*args, **kwargs):
            calls.append(1)
            raise BreakerTrippedError("pdu/breaker", time_s=17.0)

        monkeypatch.setattr("repro.simulation.batch.simulate_strategy", boom)
        task = SweepTask(
            burst_trace(),
            StrategySpec.mpc(candidate_bounds=CANDIDATES),
            SMALL,
        )
        runner = make_runner(backend, cache_dir=tmp_path / "cache")
        try:
            first = runner.run_tasks([task])[0]
            again = runner.run_tasks([task])[0]
        finally:
            runner.close()
        assert isinstance(first, RunFailure)
        assert first.error_type == "BreakerTrippedError"
        assert again == first
        assert len(calls) == 1
        assert runner.hits == 1 and runner.misses == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stores_share_one_format(
        self, backend, tmp_path, reference_results, vector_steps
    ):
        """A cache written by any backend replays on the reference path."""
        cache_dir = tmp_path / "shared-cache"
        writer = make_runner(backend, cache_dir=cache_dir)
        try:
            first = writer.run_tasks(mixed_tasks())
        finally:
            writer.close()
        assert first == reference_results
        assert bool(vector_steps) == (backend == "vector-packed")
        reader = SweepRunner(
            max_workers=1, cache_dir=cache_dir, vector_pack=False
        )
        assert reader.run_tasks(mixed_tasks()) == reference_results
        assert reader.hits == len(mixed_tasks())
        assert reader.misses == 0


class TestBackendSelection:
    @pytest.mark.parametrize("backend", ("carrier-pigeon", "work-queue"))
    def test_unknown_backend_rejected(self, backend):
        """A retired backend name is rejected like any unknown one."""
        with pytest.raises(ConfigurationError, match="unknown sweep backend"):
            SweepRunner(max_workers=1, backend=backend)

    def test_default_backend_tracks_worker_count(self):
        serial = SweepRunner(max_workers=1)
        assert serial.backend == "in-process"
        parallel = SweepRunner(max_workers=2)
        try:
            assert parallel.backend == "process-pool"
        finally:
            parallel.close()

    def test_process_pool_degrades_to_in_process_when_serial(self):
        runner = SweepRunner(max_workers=1, backend="process-pool")
        assert runner.backend == "in-process"

    def test_from_env_single_core_never_builds_a_pool(self, monkeypatch):
        """REPRO_SWEEP_WORKERS=1 (or a one-core host) must select the
        in-process backend outright — no pool spawned for no parallelism."""
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", "off")
        runner = SweepRunner.from_env()
        assert runner.max_workers == 1
        assert runner.backend == "in-process"
        runner.run_tasks(mixed_tasks()[:2])
        assert runner._pool is None

    @pytest.mark.parametrize("value", ("four", "2.5"))
    def test_from_env_rejects_bad_worker_count(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", value)
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", "off")
        with pytest.raises(ConfigurationError, match="REPRO_SWEEP_WORKERS"):
            SweepRunner.from_env()

    def test_from_env_multi_worker_selects_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", "off")
        runner = SweepRunner.from_env()
        try:
            assert runner.backend == "process-pool"
        finally:
            runner.close()
