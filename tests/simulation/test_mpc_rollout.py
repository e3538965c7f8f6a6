"""Rollout-differential harness for the MPC strategy (the fork engine user).

Three properties lock the tentpole in:

1. **No perturbation** — a rollout plan, however many candidate futures it
   simulates on the live substrate, leaves the live facility bit-for-bit
   unchanged.  Asserted two ways: a direct capture → plan → capture
   equality, and a differential control run — an MPC run must be
   step-for-step identical to a run replaying MPC's *committed* bound
   schedule through a scripted strategy that never plans at all.
2. **Oracle equivalence** — with a perfect forecast and a horizon covering
   the remaining trace, MPC's committed bound on a single-burst trace is
   exactly the Oracle's exhaustive-search bound (same candidate grid, same
   strict first-wins tie-break), and the realized run is bit-identical to
   the Fixed run at that bound.
3. **Graceful degradation** — covered by the fault-matrix side
   (``tests/integration/test_mpc_matrix.py``).

Like the snapshot suite these tests compare with ``==`` (NaN-aware where
needed), never with ``approx``: the fork contract is exactness.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.strategies import (
    DEFAULT_MPC_CANDIDATES,
    FixedUpperBoundStrategy,
    GreedyStrategy,
    MPCStrategy,
    SprintingStrategy,
    StrategyObservation,
    first_wins_argmax,
)
from repro.errors import ConfigurationError
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import DataCenter, build_datacenter
from repro.simulation.engine import (
    DEFAULT_ORACLE_GRID,
    oracle_for_trace,
    simulate_strategy,
)
from repro.simulation.faults import FaultPlan
from repro.simulation.rollout import (
    FALLBACK_BOUND,
    PerfectForecast,
    PlanContext,
    PredictedBurstForecast,
    RolloutPlanner,
    bind_rollout_planner,
    build_forecast,
)
from repro.simulation.snapshot import FacilityState
from repro.workloads.traces import Trace
from repro.workloads.yahoo_trace import generate_yahoo_trace

from tests.core.test_kernel_differential import random_trace

SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=50)

#: The Fig. 9 candidate grid; small enough to keep full-horizon rollouts
#: fast, wide enough that the argmax is interior on the 15-minute burst.
CANDIDATES = (2.0, 2.5, 3.0, 3.5, 4.0)


def burst_trace(level=2.6, burst_s=240, total_s=480) -> Trace:
    values = [0.8] * 60 + [level] * burst_s
    values += [0.8] * (total_s - len(values))
    return Trace(np.asarray(values), 1.0, "burst")


def assert_steps_identical(a, b) -> None:
    """Field-by-field exact equality across two ControlStep sequences."""
    assert len(a) == len(b)
    for step_a, step_b in zip(a, b):
        for field in dataclasses.fields(step_a):
            va = getattr(step_a, field.name)
            vb = getattr(step_b, field.name)
            if isinstance(va, float):
                assert va == vb or (
                    math.isnan(va) and math.isnan(vb)
                ), field.name
            else:
                assert va == vb, field.name


class _IndexedBoundStrategy(SprintingStrategy):
    """Replays a recorded bound schedule by the controller's step index."""

    name = "indexed-script"

    def __init__(self, bounds) -> None:
        self.bounds = tuple(bounds)

    def degree_upper_bound(self, obs: StrategyObservation) -> float:
        return self.bounds[obs.step_index]

    def reset(self) -> None:
        pass


class _ScriptedBoundStrategy(SprintingStrategy):
    """Replays a recorded per-sample bound schedule; never plans."""

    name = "scripted"

    def __init__(self, bounds) -> None:
        self.bounds = tuple(bounds)

    def degree_upper_bound(self, obs: StrategyObservation) -> float:
        return self.bounds[int(round(obs.time_s))]

    def reset(self) -> None:
        pass


@pytest.fixture(scope="module")
def yahoo15():
    return generate_yahoo_trace(burst_degree=3.2, burst_duration_min=15)


def _mpc(**overrides) -> MPCStrategy:
    kwargs = dict(candidate_bounds=CANDIDATES, horizon_s=600.0)
    kwargs.update(overrides)
    return MPCStrategy(**kwargs)


class TestNoPerturbation:
    def test_plan_leaves_live_state_bit_identical(self, yahoo15):
        """capture → plan (up to 5 candidate rollouts) → capture compares equal."""
        dc = build_datacenter(SMALL)
        strategy = _mpc()
        controller = dc.controller(strategy)
        planner = bind_rollout_planner(strategy, dc, controller, yahoo15)
        assert planner is not None
        for i in range(450):  # mid-burst: breakers hot, battery draining
            controller.step(float(yahoo15.samples[i]), float(i))
        before = FacilityState.capture(dc, controller)
        plans_before = planner.plans  # burst onset already planned once
        rollouts_before = planner.rollouts
        obs = StrategyObservation(
            time_s=450.0,
            demand=float(yahoo15.samples[450]),
            in_burst=True,
            time_in_burst_s=150.0,
            budget_fraction_remaining=0.5,
            max_degree=4.0,
            step_index=450,
        )
        planner.plan(obs)
        assert FacilityState.capture(dc, controller) == before
        assert planner.plans == plans_before + 1
        # last_scores holds the simulated candidates, in candidate order.
        simulated = [bound for bound, _ in planner.last_scores]
        assert simulated == [b for b in CANDIDATES if b in simulated]
        assert len(simulated) == planner.rollouts - rollouts_before > 0

    def test_mpc_run_equals_committed_schedule_replay(self, yahoo15):
        """The differential control run: replaying the per-step bounds the
        MPC run committed — through a strategy that never rolls anything
        out — reproduces every ControlStep field exactly.  Any substrate
        leak from a rollout would show up here."""
        mpc = simulate_strategy(
            yahoo15, _mpc(replan_interval_s=120.0), SMALL
        )
        script = _ScriptedBoundStrategy(s.upper_bound for s in mpc.steps)
        control = simulate_strategy(yahoo15, script, SMALL)
        assert_steps_identical(mpc.steps, control.steps)

    def test_mpc_run_equals_replay_under_faults(self, yahoo15):
        """Same differential, with a mid-burst chiller outage active: the
        planner captures and restores injector-derated substrate too."""
        plan = FaultPlan.from_specs(["chiller@400s:duration=120"])
        mpc = simulate_strategy(
            yahoo15, _mpc(replan_interval_s=120.0), SMALL, fault_plan=plan
        )
        script = _ScriptedBoundStrategy(s.upper_bound for s in mpc.steps)
        control = simulate_strategy(yahoo15, script, SMALL, fault_plan=plan)
        assert_steps_identical(mpc.steps, control.steps)
        assert mpc.fault_events == control.fault_events
        assert mpc.aborted_at_s == control.aborted_at_s

    def test_mpc_run_equals_replay_at_non_integer_dt(self):
        """The same differential at ``dt_s = 0.1``, where rollout steps
        are timed ``i * dt`` from the live step index — the live run's
        own clock — rather than ``time_s + j * dt``."""
        dt = 0.1
        values = np.concatenate(
            [np.full(600, 0.8), np.full(3000, 3.2), np.full(1200, 0.8)]
        )
        trace = Trace(values, dt, "burst-dt01")
        config = SMALL.with_changes(dt_s=dt)
        strategy = _mpc(horizon_s=60.0, replan_interval_s=20.0)
        mpc = simulate_strategy(trace, strategy, config)
        assert len(strategy.plan_log) > 1
        control = simulate_strategy(
            trace, _IndexedBoundStrategy(s.upper_bound for s in mpc.steps),
            config,
        )
        assert_steps_identical(mpc.steps, control.steps)


class TestOracleEquivalence:
    """MPC with perfect forecast + covering horizon *is* the Oracle.

    ``violation_penalty_s=0`` in both tests: the Oracle search scores pure
    performance (failed candidates excluded), which the rollout mirrors
    with its NaN exclusion; a nonzero event penalty is an MPC-only
    refinement the Oracle has no counterpart for.
    """

    def test_matches_oracle_on_trivial_single_burst(self):
        """A short, mild burst the facility rides out at the chip maximum:
        the argmax is the endpoint and every candidate survives."""
        trace = burst_trace()
        strategy = _mpc(
            horizon_s=float(len(trace)), violation_penalty_s=0.0
        )
        mpc = simulate_strategy(trace, strategy, SMALL)
        oracle = oracle_for_trace(trace, SMALL, candidates=CANDIDATES)
        assert strategy.plan_log == ((60.0, oracle.upper_bound),)
        fixed = simulate_strategy(
            trace, FixedUpperBoundStrategy(oracle.upper_bound), SMALL
        )
        assert np.array_equal(mpc.served, fixed.served)
        assert mpc.average_performance == oracle.achieved_performance

    def test_matches_oracle_on_interior_optimum(self, yahoo15):
        """The 15-minute burst exhausts the reserves at high degrees, so
        the best constant bound is *interior* — the regime where Greedy
        over-sprints and hindsight actually matters."""
        strategy = _mpc(
            horizon_s=float(len(yahoo15)), violation_penalty_s=0.0
        )
        mpc = simulate_strategy(yahoo15, strategy, SMALL)
        oracle = oracle_for_trace(yahoo15, SMALL, candidates=CANDIDATES)
        assert CANDIDATES[0] < oracle.upper_bound < CANDIDATES[-1]
        assert strategy.plan_log == ((300.0, oracle.upper_bound),)
        fixed = simulate_strategy(
            yahoo15, FixedUpperBoundStrategy(oracle.upper_bound), SMALL
        )
        assert np.array_equal(mpc.served, fixed.served)
        assert mpc.average_performance == oracle.achieved_performance

    def test_matches_oracle_at_non_integer_dt(self):
        """The trivial single burst again at ``dt_s = 0.1``: rollouts time
        their steps exactly as the Oracle's full runs do, so the committed
        bound and the realized run still coincide."""
        dt = 0.1
        base = burst_trace()
        trace = Trace(base.samples, dt, "burst-dt01")
        config = SMALL.with_changes(dt_s=dt)
        strategy = _mpc(
            horizon_s=float(len(trace)) * dt, violation_penalty_s=0.0
        )
        mpc = simulate_strategy(trace, strategy, config)
        oracle = oracle_for_trace(trace, config, candidates=CANDIDATES)
        assert strategy.plan_log == ((60 * dt, oracle.upper_bound),)
        fixed = simulate_strategy(
            trace, FixedUpperBoundStrategy(oracle.upper_bound), config
        )
        assert np.array_equal(mpc.served, fixed.served)
        assert mpc.average_performance == oracle.achieved_performance

    def test_default_candidate_grids_are_pinned_together(self):
        """The MPC default grid is restated in the core layer (which never
        imports the simulation layer); this pin keeps the two from
        drifting apart."""
        assert DEFAULT_MPC_CANDIDATES == DEFAULT_ORACLE_GRID


class TestPlanningBehaviour:
    def test_plans_once_per_burst_without_cadence(self, yahoo15):
        strategy = _mpc()
        simulate_strategy(yahoo15, strategy, SMALL)
        assert len(strategy.plan_log) == 1

    def test_replan_cadence_spacing(self, yahoo15):
        strategy = _mpc(replan_interval_s=120.0)
        simulate_strategy(yahoo15, strategy, SMALL)
        times = [t for t, _ in strategy.plan_log]
        assert len(times) > 1
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= 120.0 - 1e-9

    def test_unbound_strategy_degenerates_to_greedy(self):
        """Without a planner (no simulation entry point bound one), the
        strategy returns the chip maximum — Greedy, step for step."""
        trace = burst_trace()
        dc_mpc = build_datacenter(SMALL)
        dc_greedy = build_datacenter(SMALL)
        mpc_controller = dc_mpc.controller(_mpc())
        greedy_controller = dc_greedy.controller(GreedyStrategy())
        mpc_steps = [
            mpc_controller.step(float(d), float(i))
            for i, d in enumerate(trace.samples)
        ]
        greedy_steps = [
            greedy_controller.step(float(d), float(i))
            for i, d in enumerate(trace.samples)
        ]
        assert_steps_identical(mpc_steps, greedy_steps)

    def test_empty_forecast_commits_fallback_bound(self, yahoo15):
        """Planning past the trace end (nothing left to forecast) commits
        the admission-control-only bound."""
        dc = build_datacenter(SMALL)
        strategy = _mpc()
        controller = dc.controller(strategy)
        planner = bind_rollout_planner(strategy, dc, controller, yahoo15)
        obs = StrategyObservation(
            time_s=float(len(yahoo15)) + 10.0,
            demand=2.0,
            in_burst=True,
            time_in_burst_s=10.0,
            budget_fraction_remaining=1.0,
            max_degree=4.0,
            step_index=len(yahoo15) + 10,
        )
        assert planner.plan(obs) == FALLBACK_BOUND

    def test_last_scores_argmax_matches_committed_bound(self, yahoo15):
        dc = build_datacenter(SMALL)
        strategy = _mpc()
        controller = dc.controller(strategy)
        planner = bind_rollout_planner(strategy, dc, controller, yahoo15)
        for i in range(301):
            controller.step(float(yahoo15.samples[i]), float(i))
        assert strategy.plan_log
        bounds = [b for b, _ in planner.last_scores]
        scores = [s for _, s in planner.last_scores]
        # Pruned candidates are absent; the rest keep candidate order.
        assert bounds == [b for b in CANDIDATES if b in bounds]
        committed = strategy.plan_log[-1][1]
        # Strict first-wins: the committed bound is the *first* maximum,
        # failed (NaN) rollouts excluded.
        best = first_wins_argmax(scores)
        assert best is not None
        assert committed == bounds[best]

    def test_predicted_forecast_mode_completes(self, yahoo15):
        strategy = _mpc(
            forecast="predicted",
            predicted_burst_duration_s=yahoo15.over_capacity_time_s(),
        )
        result = simulate_strategy(yahoo15, strategy, SMALL)
        assert len(result.steps) == len(yahoo15)
        assert result.average_performance > 1.3


class TestSegmentRollouts:
    """Each simulated candidate's rollout is one span-engine segment, and
    the kernel path prunes candidates that cannot win.  A
    ``use_kernel=False`` run is the spec: it rolls out every candidate,
    unpruned, on per-sample reference controllers."""

    @staticmethod
    def _mpc_run(monkeypatch, use_kernel):
        """An MPC run on the ``use_kernel`` switch, plus every plan it made
        as ``(committed bound, last_scores)``."""
        plans = []
        plan = RolloutPlanner.plan

        def recording_plan(planner, obs):
            bound = plan(planner, obs)
            plans.append((bound, planner.last_scores))
            return bound

        with monkeypatch.context() as patch:
            patch.setattr(RolloutPlanner, "plan", recording_plan)
            result = simulate_strategy(
                burst_trace(level=3.2, burst_s=300, total_s=600),
                _mpc(
                    candidate_bounds=(2.0, 3.0, 4.0),
                    horizon_s=120.0,
                    replan_interval_s=60.0,
                ),
                SMALL,
                use_kernel=use_kernel,
            )
        return result, plans

    def test_run_identical_to_reference_rollouts(self, monkeypatch):
        """A full MPC run is bit-identical with pruned segment rollouts and
        with unpruned per-sample reference rollouts."""
        fast, _ = self._mpc_run(monkeypatch, use_kernel=True)
        ref, _ = self._mpc_run(monkeypatch, use_kernel=False)
        assert_steps_identical(fast.steps, ref.steps)
        assert fast.average_performance == ref.average_performance

    def test_scores_match_reference_rollouts(self, monkeypatch):
        """Plan by plan, every score of the pruned plan equals the
        reference plan's score for that bound, and both commit the same
        bound."""
        _, fast = self._mpc_run(monkeypatch, use_kernel=True)
        _, ref = self._mpc_run(monkeypatch, use_kernel=False)
        assert len(fast) == len(ref) > 1
        for (bound, scores), (ref_bound, ref_scores) in zip(fast, ref):
            assert [b for b, _ in ref_scores] == [2.0, 3.0, 4.0]
            reference = dict(ref_scores)
            for candidate, score in scores:
                expected = reference[candidate]
                assert score == expected or (
                    math.isnan(score) and math.isnan(expected)
                )
            assert bound == ref_bound

    def test_reference_run_builds_no_kernel_controller(self, monkeypatch):
        """``use_kernel=False`` reaches the rollouts: a default-MPC
        reference run builds every controller, live and rollout, on the
        reference step."""
        built = []
        controller = DataCenter.controller

        def spy(self, strategy, use_kernel=True):
            built.append(use_kernel)
            return controller(self, strategy, use_kernel=use_kernel)

        monkeypatch.setattr(DataCenter, "controller", spy)
        strategy = MPCStrategy()
        simulate_strategy(burst_trace(), strategy, SMALL, use_kernel=False)
        assert strategy.plan_log
        assert len(built) == 1 + len(DEFAULT_MPC_CANDIDATES)
        assert not any(built)

    def test_one_segment_per_candidate(self, yahoo15, controller_calls):
        """One plan makes exactly one run_trace call per simulated
        candidate bound and no per-sample step."""
        dc = build_datacenter(SMALL)
        strategy = _mpc()
        controller = dc.controller(strategy)
        planner = bind_rollout_planner(strategy, dc, controller, yahoo15)
        assert planner is not None
        controller.run_trace(Trace(yahoo15.samples[:450], 1.0))
        controller_calls.update(step=0, run_trace=0)
        rollouts = planner.rollouts
        obs = StrategyObservation(
            time_s=450.0,
            demand=float(yahoo15.samples[450]),
            in_burst=True,
            time_in_burst_s=150.0,
            budget_fraction_remaining=0.5,
            max_degree=4.0,
            step_index=450,
        )
        planner.plan(obs)
        simulated = planner.rollouts - rollouts
        assert len(planner.last_scores) == simulated
        assert controller_calls == {"step": 0, "run_trace": simulated}

    def test_default_plan_prunes(self, yahoo15, controller_calls):
        """The default MPC plans once on the 15-minute Yahoo burst, and
        the run is one live segment plus one segment per simulated
        rollout: 6 of the 13 candidates."""
        strategy = MPCStrategy()
        simulate_strategy(yahoo15, strategy, SMALL)
        assert len(strategy.plan_log) == 1
        # Unpruned, this run made 14 run_trace calls (1 live + 13 rollouts).
        assert controller_calls == {"step": 0, "run_trace": 7}

    def test_counters_add_up_to_every_candidate(self, yahoo15):
        """Every plan either simulates or prunes each candidate."""
        dc = build_datacenter(SMALL)
        strategy = _mpc(replan_interval_s=120.0)
        controller = dc.controller(strategy)
        planner = bind_rollout_planner(strategy, dc, controller, yahoo15)
        controller.run_trace(yahoo15)
        assert planner.plans > 1
        assert planner.pruned > 0
        assert planner.rollouts + planner.pruned == planner.plans * len(
            CANDIDATES
        )


class TestForecastProviders:
    def _ctx(self, **overrides) -> PlanContext:
        kwargs = dict(
            start_index=0,
            time_s=0.0,
            demand=2.6,
            time_in_burst_s=0.0,
            horizon_steps=10,
            dt_s=1.0,
        )
        kwargs.update(overrides)
        return PlanContext(**kwargs)

    def test_perfect_forecast_replays_the_trace_slice(self):
        trace = burst_trace()
        forecast = PerfectForecast(trace)
        demands = forecast.horizon_demands(
            self._ctx(start_index=58, horizon_steps=4)
        )
        assert demands == (0.8, 0.8, 2.6, 2.6)

    def test_perfect_forecast_clamps_at_trace_end(self):
        trace = burst_trace(total_s=480)
        forecast = PerfectForecast(trace)
        demands = forecast.horizon_demands(
            self._ctx(start_index=475, horizon_steps=50)
        )
        assert len(demands) == 5

    def test_perfect_forecast_is_empty_past_the_end(self):
        trace = burst_trace(total_s=480)
        forecast = PerfectForecast(trace)
        assert forecast.horizon_demands(self._ctx(start_index=480)) == ()

    def test_predicted_forecast_holds_then_falls(self):
        forecast = PredictedBurstForecast(
            predicted_burst_duration_s=5.0, post_burst_demand=0.7
        )
        demands = forecast.horizon_demands(
            self._ctx(time_in_burst_s=2.0, horizon_steps=6)
        )
        assert demands == (2.6, 2.6, 2.6, 0.7, 0.7, 0.7)

    def test_build_forecast_dispatch(self, yahoo15):
        assert isinstance(
            build_forecast(_mpc(), yahoo15), PerfectForecast
        )
        predicted = build_forecast(
            _mpc(forecast="predicted", predicted_burst_duration_s=900.0),
            yahoo15,
        )
        assert isinstance(predicted, PredictedBurstForecast)
        assert predicted.predicted_burst_duration_s == 900.0

    def test_bind_is_a_no_op_for_other_strategies(self, yahoo15):
        dc = build_datacenter(SMALL)
        strategy = GreedyStrategy()
        controller = dc.controller(strategy)
        assert bind_rollout_planner(strategy, dc, controller, yahoo15) is None


class TestStepIndexAlignment:
    """The planner aligns forecasts with the trace via the controller's
    integer step index — never ``round(time_s / dt_s)``, which drifts for
    non-integer ``dt_s`` over long runs."""

    def test_plan_context_uses_observation_step_index(self, yahoo15):
        """The PerfectForecast slice follows obs.step_index even when it
        disagrees with round(time_s / dt_s) — pinning that the planner
        never re-derives the index from float time."""
        dc = build_datacenter(SMALL)
        strategy = _mpc(horizon_s=4.0)
        controller = dc.controller(strategy)
        planner = bind_rollout_planner(strategy, dc, controller, yahoo15)
        seen = {}
        forecast = planner._forecast

        class _Spy:
            def horizon_demands(self, ctx):
                seen["start_index"] = ctx.start_index
                return forecast.horizon_demands(ctx)

        planner._forecast = _Spy()
        obs = StrategyObservation(
            time_s=123.0,
            demand=2.0,
            in_burst=True,
            time_in_burst_s=1.0,
            budget_fraction_remaining=1.0,
            max_degree=4.0,
            step_index=77,  # deliberately != round(time_s / dt_s)
        )
        planner.plan(obs)
        assert seen["start_index"] == 77

    def test_long_run_with_non_integer_dt(self):
        """End-to-end regression with dt_s=0.3 over a long trace: the MPC
        run must plan from exactly aligned PerfectForecast slices and be
        bit-identical to replaying its committed bound schedule.  With the
        float-derived index, i * 0.3 / 0.3 drifts off the integer grid for
        large i and the forecast slice misaligns."""
        dt = 0.3
        n = 7000  # i * dt = 2099.7 s; plenty of accumulated float error
        values = np.full(n, 0.8)
        values[6000:6600] = 2.4  # late burst so planning happens at large i
        trace = Trace(values, dt, "long-dt03")
        config = SMALL.with_changes(dt_s=dt)
        strategy = _mpc(horizon_s=180.0, replan_interval_s=60.0)
        mpc = simulate_strategy(trace, strategy, config)
        assert strategy.plan_log  # the burst actually triggered planning

        bounds = [s.upper_bound for s in mpc.steps]

        class _IndexedScript(SprintingStrategy):
            name = "indexed-script"

            def degree_upper_bound(self, obs):
                return bounds[obs.step_index]

            def reset(self):
                pass

        control = simulate_strategy(trace, _IndexedScript(), config)
        assert_steps_identical(mpc.steps, control.steps)


class TestStrategyValidation:
    def test_rejects_empty_candidates(self):
        with pytest.raises(ConfigurationError):
            MPCStrategy(candidate_bounds=())

    def test_rejects_unknown_forecast_mode(self):
        with pytest.raises(ConfigurationError, match="forecast"):
            MPCStrategy(forecast="psychic")

    def test_predicted_mode_requires_duration(self):
        with pytest.raises(ConfigurationError, match="predicted"):
            MPCStrategy(forecast="predicted")

    def test_restore_rejects_malformed_state(self):
        strategy = _mpc()
        with pytest.raises(ConfigurationError):
            strategy.restore_state(None)
        with pytest.raises(ConfigurationError):
            strategy.restore_state((1.0,))

    def test_snapshot_round_trips_the_episode_plan(self, yahoo15):
        strategy = _mpc(replan_interval_s=120.0)
        simulate_strategy(yahoo15, strategy, SMALL)
        state = strategy.snapshot_state()
        log = strategy.plan_log
        strategy.reset()
        assert strategy.plan_log == ()
        strategy.restore_state(state)
        assert strategy.snapshot_state() == state
        assert strategy.plan_log == log


class TestMPCRolloutVector:
    """Moved from the vector-kernel suite, where it ran no vector code:
    rollout scores of a short-horizon MPC run are finite floats."""

    def test_scores_are_finite_floats(self, monkeypatch):
        scores = []
        original_plan = RolloutPlanner.plan

        def plan(planner, obs):
            bound = original_plan(planner, obs)
            scores.extend(score for _, score in planner.last_scores)
            return bound

        monkeypatch.setattr(RolloutPlanner, "plan", plan)
        simulate_strategy(
            random_trace(14),
            MPCStrategy(
                candidate_bounds=(2.0, 3.0),
                horizon_s=60.0,
                replan_interval_s=30.0,
            ),
            SMALL,
        )
        assert scores
        for score in scores:
            assert isinstance(score, float)
            assert math.isfinite(score)
