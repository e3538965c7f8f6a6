"""Tests for the batch sweep engine: determinism, cache keys, cache trust.

The regression layer the batch subsystem is built against:

* parallel output must be element-wise identical to the serial path;
* the content-addressed cache key must cover every input that can change
  an outcome (and nothing cosmetic);
* the on-disk cache must detect corrupt or tampered entries and
  recompute instead of trusting them.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.errors import (
    BreakerTrippedError,
    ConfigurationError,
    SimulationError,
)
from repro.simulation.batch import (
    CACHE_FORMAT_VERSION,
    RunFailure,
    StrategySpec,
    SweepOutcome,
    SweepRunner,
    SweepTask,
    config_fields,
    execute_task,
)
from repro.simulation.faults import FaultPlan
from repro.simulation.config import DataCenterConfig
from repro.simulation.engine import (
    build_upper_bound_table,
    oracle_for_trace,
    simulate_strategy,
)
from repro.workloads.traces import Trace

SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=50)

CANDIDATES = (2.0, 3.0, 4.0)


def burst_trace(level=2.8, burst_s=150, total_s=300, dt_s=1.0, name="burst"):
    values = [0.8] * 30 + [level] * burst_s
    values += [0.8] * (total_s - len(values))
    return Trace(np.asarray(values), dt_s, name)


def tiny_factory(degree, duration_min):
    return burst_trace(
        level=degree,
        burst_s=int(duration_min * 60),
        total_s=int(duration_min * 60) + 120,
        name=f"tiny-{degree:g}-{duration_min:g}",
    )


# ---------------------------------------------------------------------------
# Parallel output == serial output
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_parallel_oracle_search_identical_to_serial(self):
        trace = burst_trace()
        serial = SweepRunner(max_workers=1)
        parallel = SweepRunner(max_workers=2)
        a = serial.oracle_search(trace, candidates=CANDIDATES, config=SMALL)
        b = parallel.oracle_search(trace, candidates=CANDIDATES, config=SMALL)
        assert a.upper_bound == b.upper_bound
        assert a.achieved_performance == b.achieved_performance

    def test_parallel_table_identical_to_serial(self):
        kwargs = dict(
            config=SMALL,
            burst_durations_min=(1.0, 2.0),
            burst_degrees=(2.5, 3.0),
            candidates=CANDIDATES,
            trace_factory=tiny_factory,
        )
        serial = SweepRunner(max_workers=1).build_upper_bound_table(**kwargs)
        parallel = SweepRunner(max_workers=2).build_upper_bound_table(**kwargs)
        assert serial.entries() == parallel.entries()
        assert len(serial) == 4

    def test_parallel_outcomes_elementwise_identical(self):
        """Every field of every outcome matches the serial run exactly."""
        trace = burst_trace()
        tasks = [
            SweepTask(trace, StrategySpec.greedy(), SMALL),
            SweepTask(trace, StrategySpec.fixed(2.5), SMALL),
            SweepTask(trace, StrategySpec.heuristic(2.4), SMALL),
        ]
        serial = SweepRunner(max_workers=1).run_tasks(tasks)
        parallel = SweepRunner(max_workers=2).run_tasks(tasks)
        assert serial == parallel

    def test_engine_delegation_matches_legacy_serial_loop(self):
        """The rewired engine functions reproduce the historical in-process
        loop bit-for-bit (FixedUpperBoundStrategy runs, first-best argmax)."""
        trace = burst_trace(level=3.0, burst_s=240, total_s=420)
        oracle = oracle_for_trace(trace, SMALL, candidates=CANDIDATES)
        legacy = {
            ub: simulate_strategy(
                trace,
                __import__(
                    "repro.core.strategies", fromlist=["FixedUpperBoundStrategy"]
                ).FixedUpperBoundStrategy(ub),
                SMALL,
            ).average_performance
            for ub in CANDIDATES
        }
        best = max(CANDIDATES, key=lambda ub: (legacy[ub], -CANDIDATES.index(ub)))
        assert oracle.upper_bound == best
        assert oracle.achieved_performance == legacy[best]

    def test_cached_rerun_identical_and_compute_free(self, tmp_path):
        """A warm rerun returns identical outcomes without executing a
        single simulation (execute_task is monkeypatch-poisoned)."""
        trace = burst_trace()
        tasks = [
            SweepTask(trace, StrategySpec.fixed(ub), SMALL) for ub in CANDIDATES
        ]
        cold_runner = SweepRunner(max_workers=1, cache_dir=tmp_path)
        cold = cold_runner.run_tasks(tasks)
        assert cold_runner.misses == len(tasks)

        warm_runner = SweepRunner(max_workers=1, cache_dir=tmp_path)
        import repro.simulation.batch as batch_module

        def _poisoned(task):
            raise AssertionError("cache miss on a warm rerun")

        original = batch_module.execute_task
        batch_module.execute_task = _poisoned
        try:
            warm = warm_runner.run_tasks(tasks)
        finally:
            batch_module.execute_task = original
        assert warm == cold
        assert warm_runner.hits == len(tasks)
        assert warm_runner.misses == 0


# ---------------------------------------------------------------------------
# Cache-key properties
# ---------------------------------------------------------------------------
#: One deliberate perturbation per configuration field.  Adding a field to
#: DataCenterConfig without extending this map fails the coverage test
#: below — by design: every field must reach the cache key.
FIELD_PERTURBATIONS = {
    "n_pdus": 3,
    "servers_per_pdu": 51,
    "total_cores": 50,
    "normal_cores": 10,
    "core_power_w": 2.6,
    "idle_chip_power_w": 5.5,
    "non_cpu_power_w": 21.0,
    "throughput_max_capacity": 2.5,
    "dc_headroom_fraction": 0.12,
    "ups_capacity_ah": 0.6,
    "ups_voltage_v": 12.0,
    "pue": 1.6,
    "chiller_margin": 1.2,
    "has_tes": False,
    "tes_runtime_min": 10.0,
    "enforce_chip_thermal": False,
    "chip_sprint_endurance_min": 25.0,
    "dt_s": 2.0,
    "reserve_trip_time_s": 30.0,
    "thermal_margin_k": 1.5,
}


class TestCacheKey:
    def test_equal_inputs_hash_equal(self):
        a = SweepTask(burst_trace(), StrategySpec.fixed(2.5), SMALL)
        b = SweepTask(
            burst_trace(),
            StrategySpec.fixed(2.5),
            DataCenterConfig(n_pdus=2, servers_per_pdu=50),
        )
        assert a.cache_key() == b.cache_key()

    def test_perturbation_map_covers_every_config_field(self):
        assert set(FIELD_PERTURBATIONS) == set(config_fields()), (
            "a DataCenterConfig field has no cache-key perturbation case; "
            "add it to FIELD_PERTURBATIONS"
        )

    @pytest.mark.parametrize("field_name", sorted(FIELD_PERTURBATIONS))
    def test_any_config_field_changes_the_key(self, field_name):
        base = SweepTask(burst_trace(), StrategySpec.greedy(), SMALL)
        changed_config = SMALL.with_changes(
            **{field_name: FIELD_PERTURBATIONS[field_name]}
        )
        assert dataclasses.asdict(changed_config) != dataclasses.asdict(SMALL)
        changed = SweepTask(burst_trace(), StrategySpec.greedy(), changed_config)
        assert base.cache_key() != changed.cache_key()

    def test_one_trace_sample_changes_the_key(self):
        trace = burst_trace()
        samples = trace.samples.copy()
        samples[17] += 1e-9
        perturbed = Trace(samples, trace.dt_s, trace.name)
        base = SweepTask(trace, StrategySpec.greedy(), SMALL)
        changed = SweepTask(perturbed, StrategySpec.greedy(), SMALL)
        assert base.cache_key() != changed.cache_key()

    def test_trace_dt_changes_the_key(self):
        base = SweepTask(burst_trace(dt_s=1.0), StrategySpec.greedy(), SMALL)
        changed = SweepTask(burst_trace(dt_s=2.0), StrategySpec.greedy(), SMALL)
        assert base.cache_key() != changed.cache_key()

    def test_trace_name_does_not_change_the_key(self):
        """The display name cannot influence the dynamics; renaming a trace
        must not evict its cached outcomes."""
        base = SweepTask(burst_trace(name="a"), StrategySpec.greedy(), SMALL)
        renamed = SweepTask(burst_trace(name="b"), StrategySpec.greedy(), SMALL)
        assert base.cache_key() == renamed.cache_key()

    def test_strategy_spec_changes_the_key(self):
        trace = burst_trace()
        keys = {
            SweepTask(trace, spec, SMALL).cache_key()
            for spec in (
                StrategySpec.greedy(),
                StrategySpec.fixed(2.5),
                StrategySpec.fixed(3.0),
                StrategySpec.heuristic(2.4),
                StrategySpec.heuristic(2.4, flexibility_percent=20.0),
            )
        }
        assert len(keys) == 5


# ---------------------------------------------------------------------------
# Cache trust: corrupt entries are recomputed, not believed
# ---------------------------------------------------------------------------
class TestCacheIntegrity:
    @pytest.fixture()
    def cached_task(self, tmp_path):
        task = SweepTask(burst_trace(), StrategySpec.fixed(2.5), SMALL)
        runner = SweepRunner(max_workers=1, cache_dir=tmp_path)
        outcome = runner.run_tasks([task])[0]
        path = tmp_path / f"{task.cache_key()}.json"
        assert path.is_file()
        return task, outcome, path, tmp_path

    @staticmethod
    def _recompute(task, tmp_path):
        runner = SweepRunner(max_workers=1, cache_dir=tmp_path)
        result = runner.run_tasks([task])[0]
        return result, runner

    def test_truncated_file_is_recomputed(self, cached_task):
        task, outcome, path, tmp_path = cached_task
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        recomputed, runner = self._recompute(task, tmp_path)
        assert runner.misses == 1 and runner.hits == 0
        assert recomputed == outcome
        # The sweep also repaired the entry in place.
        assert json.loads(path.read_text())["key"] == task.cache_key()

    def test_garbage_bytes_are_recomputed(self, cached_task):
        task, outcome, path, tmp_path = cached_task
        path.write_bytes(b"\x00\xffnot json at all")
        recomputed, runner = self._recompute(task, tmp_path)
        assert runner.misses == 1
        assert recomputed == outcome

    def test_key_mismatch_is_recomputed(self, cached_task):
        """An entry whose embedded key disagrees with its filename (e.g. a
        file copied between cache dirs, or a hash collision attack) is not
        trusted."""
        task, outcome, path, tmp_path = cached_task
        payload = json.loads(path.read_text())
        payload["key"] = "0" * 64
        path.write_text(json.dumps(payload))
        recomputed, runner = self._recompute(task, tmp_path)
        assert runner.misses == 1
        assert recomputed == outcome

    def test_version_mismatch_is_recomputed(self, cached_task):
        task, outcome, path, tmp_path = cached_task
        payload = json.loads(path.read_text())
        payload["version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        recomputed, runner = self._recompute(task, tmp_path)
        assert runner.misses == 1
        assert recomputed == outcome

    def test_tampered_outcome_fields_are_rejected(self, cached_task):
        task, outcome, path, tmp_path = cached_task
        payload = json.loads(path.read_text())
        del payload["outcome"]["average_performance"]
        path.write_text(json.dumps(payload))
        recomputed, runner = self._recompute(task, tmp_path)
        assert runner.misses == 1
        assert recomputed == outcome


# ---------------------------------------------------------------------------
# API edges
# ---------------------------------------------------------------------------
class TestRunnerApi:
    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError, match="max_workers"):
            SweepRunner(max_workers=0)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            SweepRunner().oracle_search(burst_trace(), candidates=())

    def test_outcome_roundtrips_through_json(self):
        outcome = execute_task(
            SweepTask(burst_trace(), StrategySpec.greedy(), SMALL)
        )
        assert SweepOutcome.from_dict(outcome.to_dict()) == outcome

    def test_spec_builds_every_kind(self):
        from repro.core.strategies import (
            FixedUpperBoundStrategy,
            GreedyStrategy,
            HeuristicStrategy,
            PredictionStrategy,
        )

        table = build_upper_bound_table(
            config=SMALL,
            burst_durations_min=(1.0,),
            burst_degrees=(2.8,),
            candidates=(2.0, 4.0),
            trace_factory=tiny_factory,
        )
        assert isinstance(StrategySpec.greedy().build(SMALL), GreedyStrategy)
        assert isinstance(
            StrategySpec.fixed(2.5).build(SMALL), FixedUpperBoundStrategy
        )
        prediction = StrategySpec.prediction(table, 120.0).build(SMALL)
        assert isinstance(prediction, PredictionStrategy)
        assert prediction.table.entries() == table.entries()
        assert isinstance(
            StrategySpec.heuristic(2.4).build(SMALL), HeuristicStrategy
        )

    def test_unknown_spec_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            StrategySpec(kind="psychic").build(SMALL)

    def test_run_tasks_preserves_input_order(self, tmp_path):
        trace = burst_trace()
        bounds = (3.0, 2.0, 4.0)
        runner = SweepRunner(max_workers=1, cache_dir=tmp_path)
        performances = runner.evaluate_upper_bounds(trace, bounds, SMALL)
        direct = [
            execute_task(
                SweepTask(trace, StrategySpec.fixed(ub), SMALL)
            ).average_performance
            for ub in bounds
        ]
        assert performances == direct


# ---------------------------------------------------------------------------
# Fault plans and structured failures
# ---------------------------------------------------------------------------
class TestFaultPlanCacheKey:
    def task(self, fault_plan=None):
        return SweepTask(
            burst_trace(), StrategySpec.greedy(), SMALL, fault_plan
        )

    def test_no_plan_and_empty_plan_hash_differently(self):
        assert self.task().cache_key() != self.task(FaultPlan()).cache_key()

    def test_plan_content_changes_the_key(self):
        a = self.task(FaultPlan.from_specs(["breaker@120s"]))
        b = self.task(FaultPlan.from_specs(["breaker@121s"]))
        assert a.cache_key() != b.cache_key()

    def test_equal_plans_hash_equal(self):
        a = self.task(FaultPlan.from_specs(["chiller@60s", "ups@10s"]))
        b = self.task(FaultPlan.from_specs(["ups@10s", "chiller@60s"]))
        assert a.cache_key() == b.cache_key()


class TestRunFailure:
    def test_round_trips_through_json(self):
        failure = RunFailure(
            strategy_name="greedy",
            error_type="BreakerTrippedError",
            message="circuit breaker 'pdu' tripped at t=42.0s",
            time_s=42.0,
        )
        payload = json.loads(json.dumps(failure.to_dict()))
        assert RunFailure.from_dict(payload) == failure
        assert failure.failed

    def test_none_time_round_trips(self):
        failure = RunFailure("greedy", "TankDepletedError", "empty")
        assert RunFailure.from_dict(failure.to_dict()).time_s is None

    def test_outcome_is_not_failed(self):
        result = execute_task(SweepTask(burst_trace(), StrategySpec.greedy(), SMALL))
        assert not result.failed


class TestExecuteTaskFailureHandling:
    def test_repro_error_becomes_run_failure(self, monkeypatch):
        def boom(*args, **kwargs):
            raise BreakerTrippedError("pdu/breaker", time_s=42.0)

        monkeypatch.setattr(
            "repro.simulation.batch.simulate_strategy", boom
        )
        result = execute_task(
            SweepTask(burst_trace(), StrategySpec.greedy(), SMALL)
        )
        assert isinstance(result, RunFailure)
        assert result.error_type == "BreakerTrippedError"
        assert result.time_s == pytest.approx(42.0)
        assert result.strategy_name == "greedy"

    def test_configuration_error_still_raises(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ConfigurationError("malformed task")

        monkeypatch.setattr(
            "repro.simulation.batch.simulate_strategy", boom
        )
        with pytest.raises(ConfigurationError):
            execute_task(SweepTask(burst_trace(), StrategySpec.greedy(), SMALL))

    def test_failures_cache_and_reload(self, tmp_path, monkeypatch):
        calls = []

        def boom(*args, **kwargs):
            calls.append(1)
            raise BreakerTrippedError("pdu/breaker", time_s=7.0)

        monkeypatch.setattr(
            "repro.simulation.batch.simulate_strategy", boom
        )
        runner = SweepRunner(max_workers=1, cache_dir=tmp_path)
        task = SweepTask(burst_trace(), StrategySpec.greedy(), SMALL)
        first = runner.run_tasks([task])[0]
        again = runner.run_tasks([task])[0]
        assert isinstance(first, RunFailure)
        assert again == first
        assert len(calls) == 1  # the rerun was answered from the cache
        assert runner.hits == 1 and runner.misses == 1


class TestMPCSpec:
    """MPC through the batch engine: spec fidelity, cache-key coverage,
    parallel determinism and cached-failure semantics."""

    BASE = StrategySpec.mpc(
        candidate_bounds=(2.0, 3.0, 4.0),
        horizon_s=120.0,
        replan_interval_s=60.0,
    )

    #: One deliberate perturbation per StrategySpec field.  Adding a field
    #: to StrategySpec without extending this map fails the coverage test
    #: below — the same guard FIELD_PERTURBATIONS gives DataCenterConfig.
    SPEC_FIELD_PERTURBATIONS = {
        "kind": {"kind": "greedy"},
        "upper_bound": {"upper_bound": 2.5},
        "predicted_burst_duration_s": {"predicted_burst_duration_s": 900.0},
        "estimated_best_degree": {"estimated_best_degree": 2.4},
        "flexibility_percent": {"flexibility_percent": 20.0},
        "max_degree": {"max_degree": 3.5},
        "table_entries": {"table_entries": ((300.0, 3.2, 4.0),)},
        "horizon_s": {"horizon_s": 300.0},
        "replan_interval_s": {"replan_interval_s": 30.0},
        "candidate_bounds": {"candidate_bounds": (2.0, 3.0)},
        "forecast": {"forecast": "predicted"},
        "violation_penalty_s": {"violation_penalty_s": 60.0},
    }

    def test_perturbation_map_covers_every_spec_field(self):
        spec_fields = {f.name for f in dataclasses.fields(StrategySpec)}
        assert set(self.SPEC_FIELD_PERTURBATIONS) == spec_fields, (
            "a StrategySpec field has no cache-key perturbation case; "
            "add it to SPEC_FIELD_PERTURBATIONS"
        )

    @pytest.mark.parametrize(
        "field_name", sorted(SPEC_FIELD_PERTURBATIONS)
    )
    def test_any_spec_field_changes_the_key(self, field_name):
        base = SweepTask(burst_trace(), self.BASE, SMALL)
        changed_spec = dataclasses.replace(
            self.BASE, **self.SPEC_FIELD_PERTURBATIONS[field_name]
        )
        changed = SweepTask(burst_trace(), changed_spec, SMALL)
        assert base.cache_key() != changed.cache_key()

    def test_spec_builds_a_faithful_strategy(self):
        from repro.core.strategies import MPCStrategy

        strategy = self.BASE.build(SMALL)
        assert isinstance(strategy, MPCStrategy)
        assert strategy.candidate_bounds == (2.0, 3.0, 4.0)
        assert strategy.horizon_s == 120.0
        assert strategy.replan_interval_s == 60.0
        assert strategy.forecast == "perfect"

    def test_incomplete_mpc_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="mpc spec"):
            StrategySpec(kind="mpc").build(SMALL)

    def test_spec_is_picklable(self):
        import pickle

        assert pickle.loads(pickle.dumps(self.BASE)) == self.BASE

    def test_parallel_mpc_identical_to_serial(self, monkeypatch):
        """Element-wise serial/parallel identity for MPC tasks, with the
        worker count coming from REPRO_SWEEP_WORKERS (the CI knob)."""
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", "off")
        trace = burst_trace()
        tasks = [
            SweepTask(trace, self.BASE, SMALL),
            SweepTask(
                trace,
                StrategySpec.mpc(
                    candidate_bounds=CANDIDATES, horizon_s=240.0
                ),
                SMALL,
            ),
            SweepTask(trace, StrategySpec.greedy(), SMALL),
        ]
        serial = SweepRunner(max_workers=1).run_tasks(tasks)
        parallel_runner = SweepRunner.from_env()
        assert parallel_runner.max_workers == 2
        assert parallel_runner.cache_dir is None
        parallel = parallel_runner.run_tasks(tasks)
        assert serial == parallel

    def test_mpc_failure_caches_and_reloads(self, tmp_path, monkeypatch):
        """A RunFailure from an MPC task is cached and replayed like any
        outcome: the rerun never re-executes the simulation."""
        calls = []

        def boom(*args, **kwargs):
            calls.append(1)
            raise BreakerTrippedError("pdu/breaker", time_s=7.0)

        monkeypatch.setattr(
            "repro.simulation.batch.simulate_strategy", boom
        )
        runner = SweepRunner(max_workers=1, cache_dir=tmp_path)
        task = SweepTask(burst_trace(), self.BASE, SMALL)
        first = runner.run_tasks([task])[0]
        again = runner.run_tasks([task])[0]
        assert isinstance(first, RunFailure)
        assert first.strategy_name == "mpc"
        assert again == first
        assert len(calls) == 1
        assert runner.hits == 1 and runner.misses == 1


class TestFailureAwareSearch:
    def _failing_runner(self, monkeypatch, failing_bounds, tmp_path=None):
        real = execute_task

        def selective(task):
            if task.spec.upper_bound in failing_bounds:
                return RunFailure(
                    task.spec.kind, "BreakerTrippedError", "injected", 1.0
                )
            return real(task)

        monkeypatch.setattr("repro.simulation.batch.execute_task", selective)
        # The shared-prefix search and the packed run_tasks tier simulate
        # in-process (they never go through execute_task), so force the
        # reference per-candidate fallback — the path whose failure-aware
        # reduction is under test.
        monkeypatch.setattr(
            "repro.simulation.batch.shared_prefix_oracle_search",
            lambda *args, **kwargs: None,
        )
        monkeypatch.setattr(
            "repro.simulation.batch.vector_pack_tasks",
            lambda tasks: [None] * len(tasks),
        )
        return SweepRunner(max_workers=1, cache_dir=tmp_path)

    def test_evaluate_upper_bounds_maps_failures_to_nan(self, monkeypatch):
        runner = self._failing_runner(monkeypatch, {3.0})
        perfs = runner.evaluate_upper_bounds(burst_trace(), CANDIDATES, SMALL)
        assert math.isnan(perfs[1])
        assert all(math.isfinite(p) for i, p in enumerate(perfs) if i != 1)

    def test_oracle_search_skips_failed_candidates(self, monkeypatch):
        trace = burst_trace()
        full = SweepRunner(max_workers=1).oracle_search(
            trace, CANDIDATES, SMALL
        )
        runner = self._failing_runner(monkeypatch, {full.upper_bound})
        partial = runner.oracle_search(trace, CANDIDATES, SMALL)
        assert partial.upper_bound != full.upper_bound
        assert math.isfinite(partial.achieved_performance)

    def test_oracle_search_raises_when_every_candidate_fails(self, monkeypatch):
        runner = self._failing_runner(monkeypatch, set(CANDIDATES))
        with pytest.raises(SimulationError):
            runner.oracle_search(burst_trace(), CANDIDATES, SMALL)
