"""Tests for the persistent sweep pool and worker-side reuse.

The parallel runner keeps its process pool alive across batches and ships
each trace to the workers once (by content hash, via the pool
initializer) instead of pickling it into every task; workers cache one
facility per configuration and reset it between runs.  These tests pin
the two things that matter: the pool actually persists (and is rebuilt
exactly when a new trace must ship), and none of the reuse changes a
single result relative to the serial reference path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.batch import (
    StrategySpec,
    SweepRunner,
    SweepTask,
    execute_task,
)
from repro.simulation.config import DataCenterConfig
from repro.simulation.scheduler import (
    _ShippedTask,
    _execute_shipped,
    _init_worker,
    _trace_content_key,
)
from repro.workloads.traces import Trace

SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=25)


def burst_trace(seed: int = 0, n: int = 90) -> Trace:
    rng = np.random.default_rng(seed)
    samples = 0.7 + 0.2 * rng.random(n)
    samples[30:60] += 1.8
    return Trace(samples, name=f"pool-{seed}")


class TestPoolPersistence:
    def test_pool_survives_across_batches(self):
        # vector_pack off: packable fixed-bound tasks would otherwise run
        # on the in-process kernel tier and never touch the pool.
        runner = SweepRunner(max_workers=2, vector_pack=False)
        trace = burst_trace()
        tasks = [
            SweepTask(trace, StrategySpec.fixed(bound), SMALL)
            for bound in (2.0, 3.0)
        ]
        try:
            runner.run_tasks(tasks)
            first_pool = runner._pool
            assert first_pool is not None
            runner.run_tasks(tasks)
            assert runner._pool is first_pool
        finally:
            runner.close()

    def test_pool_rebuilt_when_new_trace_appears(self):
        runner = SweepRunner(max_workers=2, vector_pack=False)
        spec_pair = [StrategySpec.fixed(2.0), StrategySpec.fixed(3.0)]
        try:
            runner.run_tasks(
                [SweepTask(burst_trace(0), s, SMALL) for s in spec_pair]
            )
            first_pool = runner._pool
            runner.run_tasks(
                [SweepTask(burst_trace(1), s, SMALL) for s in spec_pair]
            )
            assert runner._pool is not first_pool
        finally:
            runner.close()

    def test_close_is_idempotent_and_serial_runner_is_a_noop(self):
        serial = SweepRunner(max_workers=1)
        serial.close()
        serial.close()
        assert serial._pool is None

    def test_serial_path_never_builds_a_pool(self):
        runner = SweepRunner(max_workers=1)
        runner.run_tasks(
            [SweepTask(burst_trace(), StrategySpec.greedy(), SMALL)]
        )
        assert runner._pool is None


class TestRunnerLifecycle:
    """`close()` latches the runner shut; further submissions are a
    programming error with a clear message, not a silent pool rebuild."""

    def test_double_close_is_idempotent(self):
        runner = SweepRunner(max_workers=1)
        runner.close()
        runner.close()
        assert runner._pool is None

    def test_submit_after_close_raises(self):
        from repro.errors import ConfigurationError

        runner = SweepRunner(max_workers=1)
        runner.run_tasks(
            [SweepTask(burst_trace(), StrategySpec.greedy(), SMALL)]
        )
        runner.close()
        task = SweepTask(burst_trace(), StrategySpec.greedy(), SMALL)
        with pytest.raises(ConfigurationError, match="closed"):
            runner.run_tasks([task])
        with pytest.raises(ConfigurationError, match="closed"):
            runner.oracle_search(burst_trace(), candidates=(2.0, 3.0))
        with pytest.raises(ConfigurationError, match="closed"):
            runner.build_upper_bound_table(
                burst_durations_min=(2.0,),
                burst_degrees=(3.0,),
                candidates=(2.0, 3.0),
                config=SMALL,
            )

    def test_context_manager_closes_on_exit(self):
        from repro.errors import ConfigurationError

        with SweepRunner(max_workers=1) as runner:
            results = runner.run_tasks(
                [SweepTask(burst_trace(), StrategySpec.greedy(), SMALL)]
            )
            assert len(results) == 1
        with pytest.raises(ConfigurationError, match="closed"):
            runner.run_tasks(
                [SweepTask(burst_trace(), StrategySpec.greedy(), SMALL)]
            )

    def test_entering_a_closed_runner_raises(self):
        from repro.errors import ConfigurationError

        runner = SweepRunner(max_workers=1)
        runner.close()
        with pytest.raises(ConfigurationError, match="closed"):
            with runner:
                pass  # pragma: no cover - __enter__ must raise


class TestWorkerReuseCorrectness:
    def test_shipped_path_matches_reference_path(self):
        """The worker entry point (cached facility, shipped trace) must be
        element-wise identical to ``execute_task`` — including when the
        same facility is reused for a second, different run."""
        trace = burst_trace()
        key = _trace_content_key(trace)
        _init_worker(((key, trace),))
        for spec in (
            StrategySpec.greedy(),
            StrategySpec.fixed(2.5),
            StrategySpec.greedy(),  # reuses the now-warm facility
        ):
            shipped = _ShippedTask(key, spec, SMALL, None)
            reference = execute_task(SweepTask(trace, spec, SMALL))
            assert _execute_shipped(shipped) == reference

    def test_parallel_pool_results_match_serial(self):
        traces = [burst_trace(seed) for seed in range(3)]
        tasks = [
            SweepTask(trace, StrategySpec.fixed(bound), SMALL)
            for trace in traces
            for bound in (2.0, 3.0, 4.0)
        ]
        serial = SweepRunner(max_workers=1, vector_pack=False).run_tasks(
            tasks
        )
        parallel_runner = SweepRunner(max_workers=2, vector_pack=False)
        try:
            parallel = parallel_runner.run_tasks(tasks)
        finally:
            parallel_runner.close()
        assert parallel == serial

    def test_trace_content_key_separates_content(self):
        a = burst_trace(0)
        b = burst_trace(1)
        assert _trace_content_key(a) != _trace_content_key(b)
        same = Trace(a.samples.copy(), dt_s=a.dt_s, name=a.name)
        assert _trace_content_key(a) == _trace_content_key(same)
