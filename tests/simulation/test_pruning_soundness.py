"""Pruning soundness as a property: no run beats its optimistic bound.

The pruned descent (:mod:`repro.simulation.descent`) skips a candidate
only when its optimistic score cannot beat the best real score so far,
so every committed bound rests on one inequality per search kind:

* a fixed-bound run's performance is at most
  :func:`~repro.simulation.engine.optimistic_performance` at that bound —
  over the trace without faults, over the effective demand
  (:func:`~repro.simulation.faults.effective_demand_series`) with them;
* a rollout's score is at most
  :func:`~repro.simulation.rollout.optimistic_score` over its forecast.

Hypothesis draws random traces, a fault of every kind and candidate
grids on the two-PDU facility (any positive bound without faults, at or
above the normal degree with them and in rollouts), and checks each
inequality exactly — no slack, so a bound tightened by a fraction
of a percent fails here.  The effective-demand helper is pinned against
the demand column reference runs log.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.strategies import FixedUpperBoundStrategy, MPCStrategy
from repro.errors import ConfigurationError, ReproError
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import optimistic_performance, simulate_strategy
from repro.simulation.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    effective_demand_series,
)
from repro.simulation.rollout import RolloutPlanner, optimistic_score
from repro.workloads.traces import Trace

from tests.simulation import test_shared_prefix

SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=50)
CLUSTER = build_datacenter(SMALL).cluster

#: One plan per fault kind, shared with the shared-prefix differential suite.
PLANS = test_shared_prefix.TestFaultEquality.PLANS

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def traces(draw, n=240):
    """Sub-capacity demand with one to three rectangular bursts."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    base = 0.5 + 0.45 * rng.random(n)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        start = draw(st.integers(min_value=0, max_value=n - 20))
        length = draw(st.integers(min_value=10, max_value=160))
        base[start:start + length] += draw(
            st.floats(min_value=0.2, max_value=3.5)
        )
    return Trace(np.clip(base, 0.0, 4.5), dt_s=1.0, name=f"fuzz-{seed}")


@st.composite
def faults(draw, kind, n=240):
    """One event of ``kind`` somewhere in the trace, at any valid fraction:
    (0, 1], or (0, 1) for a ``breaker_derate``."""
    finite = draw(st.booleans())
    return FaultPlan((
        FaultEvent(
            kind=kind,
            time_s=float(draw(st.integers(min_value=0, max_value=n - 1))),
            fraction=draw(st.floats(
                min_value=0.0,
                max_value=1.0,
                exclude_min=True,
                exclude_max=kind == "breaker_derate",
            )),
            duration_s=(
                float(draw(st.integers(min_value=1, max_value=120)))
                if finite
                else math.inf
            ),
            target=draw(st.sampled_from(("pdu", "dc"))),
        ),
    ))


grids = st.lists(
    st.floats(min_value=1.0, max_value=5.0), min_size=1, max_size=4
)
#: Fault-free searches prune sub-normal bounds in the same descent, so
#: their grids are the differential suite's positive ones.
positive_grids = test_shared_prefix.positive_grids


def performances(trace, grid, plan=None):
    """``(bound, performance)`` of every fixed-bound run that completes."""
    runs = []
    for bound in grid:
        try:
            result = simulate_strategy(
                trace, FixedUpperBoundStrategy(bound), SMALL, fault_plan=plan
            )
        except ConfigurationError:
            raise
        except ReproError:
            continue  # a failed run is excluded, never scored
        runs.append((bound, result.average_performance))
    return runs


class TestOracleBound:
    @given(trace=traces(), grid=positive_grids)
    @settings(**SETTINGS)
    def test_fault_free_runs(self, trace, grid):
        for bound, perf in performances(trace, grid):
            assert perf <= optimistic_performance(CLUSTER, trace, bound)

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @given(data=st.data(), trace=traces(), grid=grids)
    @settings(**SETTINGS)
    def test_faulted_runs(self, kind, data, trace, grid):
        plan = data.draw(faults(kind))
        demand = effective_demand_series(plan, trace)
        runs = performances(trace, grid, plan)
        assert len(runs) == len(grid)  # faulted runs degrade, never fail
        for bound, perf in runs:
            assert perf <= optimistic_performance(CLUSTER, trace, bound, demand)


class TestRolloutBound:
    @pytest.mark.parametrize("forecast", ("perfect", "predicted"))
    @given(
        trace=traces(),
        grid=grids,
        horizon_s=st.integers(min_value=10, max_value=200),
        predicted_s=st.integers(min_value=0, max_value=200),
        penalty_s=st.sampled_from((0.0, 120.0)),
    )
    @settings(**SETTINGS)
    def test_rollout_scores(
        self, forecast, trace, grid, horizon_s, predicted_s, penalty_s
    ):
        """Reference runs roll out every candidate, so every score shows."""
        scored = []
        rollout = RolloutPlanner._rollout_score

        def recording(planner, surrogate, bound, demands, start_index):
            score = rollout(planner, surrogate, bound, demands, start_index)
            scored.append((bound, demands, score))
            return score

        strategy = MPCStrategy(
            candidate_bounds=tuple(grid),
            horizon_s=float(horizon_s),
            replan_interval_s=30.0,
            forecast=forecast,
            predicted_burst_duration_s=float(predicted_s),
            violation_penalty_s=penalty_s,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RolloutPlanner, "_rollout_score", recording)
            simulate_strategy(trace, strategy, SMALL, use_kernel=False)
        for bound, demands, score in scored:
            if not math.isnan(score):
                assert score <= optimistic_score(
                    CLUSTER, bound, demands, SMALL.dt_s
                )


class TestEffectiveDemand:
    """The helper equals the demand column a reference faulted run logs."""

    @staticmethod
    def logged_demand(trace, plan):
        return simulate_strategy(
            trace,
            FixedUpperBoundStrategy(3.0),
            SMALL,
            fault_plan=plan,
            use_kernel=False,
        ).demand

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_fault_equality_plans(self, plan_name):
        trace = Trace(
            np.concatenate([np.full(60, 0.8), np.linspace(1.2, 3.4, 180)]),
            1.0,
            "ramp",
        )
        plan = PLANS[plan_name]
        assert np.array_equal(
            effective_demand_series(plan, trace), self.logged_demand(trace, plan)
        )

    def test_gap_at_time_zero_holds_the_initial_zero(self):
        trace = Trace(np.linspace(0.6, 2.6, 120), 1.0, "ramp")
        plan = FaultPlan.from_specs(["gap@0s:duration=15"])
        demand = effective_demand_series(plan, trace)
        assert np.all(demand[:15] == 0.0)
        assert np.array_equal(demand[15:], trace.samples[15:])
        assert np.array_equal(demand, self.logged_demand(trace, plan))

    def test_overlapping_gaps(self):
        trace = Trace(np.linspace(0.6, 2.6, 120), 1.0, "ramp")
        plan = FaultPlan.from_specs(
            ["gap@10s:duration=30", "gap@25s:duration=40"]
        )
        demand = effective_demand_series(plan, trace)
        assert np.all(demand[10:65] == trace.samples[9])
        assert np.array_equal(demand[65:], trace.samples[65:])
        assert np.array_equal(demand, self.logged_demand(trace, plan))
