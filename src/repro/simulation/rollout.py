"""Forward-rollout planning for the MPC strategy, built on the fork engine.

PR 5's :class:`~repro.simulation.snapshot.FacilityState` makes the Oracle's
hindsight cheap to *simulate forward*: at burst onset the live facility is
captured, each candidate upper bound is rolled out over a short horizon on
the same substrate, and the live state is restored bit-for-bit before the
in-flight control period continues.  The capture happens *inside*
``degree_upper_bound`` — after the burst detector has observed the current
sample but before any substrate commit — so every rollout re-steps the
current sample from exactly the state the live controller will commit from
(detector observation is idempotent for an in-burst re-step, and the burst
budget snapshot is already part of the captured state).

Scoring follows the tentpole contract: the served-demand integral over the
horizon (computational work), minus ``violation_penalty_s`` served-seconds
per safety-envelope event the rollout provokes.  A rollout that *fails*
outright — a recoverable substrate error escaping a fault-free candidate
run — scores ``-inf``, exactly mirroring the Oracle search's exclusion of
failed candidates.  The argmax is strict first-wins over the candidate
order, the pinned Oracle tie-break, so with a perfect forecast and a
horizon covering the remaining trace the committed bound coincides with
:class:`~repro.core.strategies.OracleStrategy` on single-burst traces
(``tests/simulation/test_mpc_rollout.py`` pins this equivalence and the
bit-identity of the live run).

Fault awareness is deliberately myopic: rollouts simulate the *current*
substrate (including any rating derates already injected) but cannot
foresee future fault events.  When every candidate fails even over the
horizon, the planner commits a bound of 1.0 — admission-control-only — the
graceful-degradation floor the fault-matrix suite asserts.

This module is a kernel hot path for the determinism lint: no wall clocks,
no ambient RNG, no iteration over sets.
"""

from __future__ import annotations

import dataclasses
import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core.strategies import (
    FixedUpperBoundStrategy,
    MPCStrategy,
    SprintingStrategy,
    StrategyObservation,
)
from repro.errors import ConfigurationError, ReproError
from repro.simulation.snapshot import FacilityState
from repro.units import require_non_negative
from repro.workloads.traces import Trace

if TYPE_CHECKING:
    from repro.core.controller import SprintingController
    from repro.simulation.datacenter import DataCenter

#: Bound the planner commits when every candidate rollout fails: the
#: normal degree, i.e. admission-control-only operation.
FALLBACK_BOUND = 1.0


@dataclasses.dataclass(frozen=True, slots=True)
class PlanContext:
    """Everything a forecast provider may use to synthesise horizon demand.

    Attributes
    ----------
    start_index:
        Trace index of the current control period — the controller's
        integer step counter, threaded through
        :class:`~repro.core.strategies.StrategyObservation` (never derived
        from ``time_s / dt_s``, which drifts for non-integer ``dt_s``).
    time_s:
        Absolute simulation time of the current control period.
    demand:
        The current (not yet committed) normalised demand sample.
    time_in_burst_s:
        Seconds since the running burst began.
    horizon_steps:
        Number of control periods to forecast, current sample included.
    dt_s:
        The control period.
    """

    start_index: int
    time_s: float
    demand: float
    time_in_burst_s: float
    horizon_steps: int
    dt_s: float


class ForecastProvider(ABC):
    """Maps a :class:`PlanContext` to the horizon's demand samples."""

    @abstractmethod
    def horizon_demands(self, ctx: PlanContext) -> Tuple[float, ...]:
        """Demand for ``[time_s, time_s + horizon)``; index 0 is *now*.

        The current sample has not been committed by the live controller
        yet, so every rollout re-steps it; providers must therefore return
        it as the first element.  An empty tuple means there is nothing
        left to plan over (e.g. the trace has ended).
        """


class PerfectForecast(ForecastProvider):
    """Oracle-grade forecast: replay the actual trace over the horizon.

    The horizon is clamped to the trace's end rather than padded, so a
    horizon at least the remaining trace makes a rollout cover exactly the
    suffix the Oracle's full per-candidate run covers — the alignment the
    MPC-vs-Oracle equivalence test relies on.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace

    def horizon_demands(self, ctx: PlanContext) -> Tuple[float, ...]:
        """The trace slice ``[start_index, start_index + horizon_steps)``."""
        if ctx.start_index >= len(self.trace):
            return ()
        stop = min(ctx.start_index + ctx.horizon_steps, len(self.trace))
        return tuple(
            float(s) for s in self.trace.samples[ctx.start_index:stop]
        )


class PredictedBurstForecast(ForecastProvider):
    """Prediction-driven forecast from a burst-duration estimate.

    Follows the :mod:`repro.workloads.prediction` convention: the burst
    holds its current magnitude until the predicted total duration
    ``BDu_p`` elapses (measured from burst start, as
    :func:`~repro.workloads.prediction.predicted_burst_duration_s` defines
    it), then demand falls back to ``post_burst_demand``.
    """

    def __init__(
        self,
        predicted_burst_duration_s: float,
        post_burst_demand: float = 1.0,
    ) -> None:
        require_non_negative(
            predicted_burst_duration_s, "predicted_burst_duration_s"
        )
        require_non_negative(post_burst_demand, "post_burst_demand")
        self.predicted_burst_duration_s = predicted_burst_duration_s
        self.post_burst_demand = post_burst_demand

    def horizon_demands(self, ctx: PlanContext) -> Tuple[float, ...]:
        """Hold the current demand while predicted in-burst, then fall."""
        demands: List[float] = []
        for j in range(ctx.horizon_steps):
            in_burst_s = ctx.time_in_burst_s + j * ctx.dt_s
            if in_burst_s < self.predicted_burst_duration_s:
                demands.append(ctx.demand)
            else:
                demands.append(self.post_burst_demand)
        return tuple(demands)


class RolloutPlanner:
    """Evaluates candidate bounds by forking the live facility forward.

    One planner instance is bound to one ``(datacenter, controller)`` pair
    for the duration of a simulation run; :meth:`plan` is called from
    inside the MPC strategy's ``degree_upper_bound`` and must leave the
    live facility bit-for-bit unchanged — the rollout-differential suite
    holds it to that.
    """

    def __init__(
        self,
        datacenter: "DataCenter",
        controller: "SprintingController",
        strategy: MPCStrategy,
        forecast: ForecastProvider,
    ) -> None:
        self._datacenter = datacenter
        self._controller = controller
        self._strategy = strategy
        self._forecast = forecast
        self._dt_s = float(datacenter.config.dt_s)
        #: Number of planning invocations this run (telemetry).
        self.plans = 0
        #: ``(bound, score)`` pairs from the most recent plan, in
        #: candidate order (``-inf`` marks a failed rollout).
        self.last_scores: Tuple[Tuple[float, float], ...] = ()

    def plan(self, obs: StrategyObservation) -> float:
        """Score every candidate from the captured live state; commit argmax.

        The live state (including the MPC strategy's own plan state) is
        captured once, each candidate restores a surrogate copy with
        ``strategy_state=None`` onto a fresh fixed-bound controller, and
        the original state is restored onto the live controller before
        returning — whatever the rollouts did to the shared substrate.
        """
        dt = self._dt_s
        ctx = PlanContext(
            start_index=obs.step_index,
            time_s=obs.time_s,
            demand=obs.demand,
            time_in_burst_s=obs.time_in_burst_s,
            horizon_steps=max(1, int(round(self._strategy.horizon_s / dt))),
            dt_s=dt,
        )
        demands = self._forecast.horizon_demands(ctx)
        if not demands:
            return FALLBACK_BOUND
        live = FacilityState.capture(self._datacenter, self._controller)
        surrogate = dataclasses.replace(live, strategy_state=None)
        best_bound: Optional[float] = None
        best_score = -math.inf
        scores: List[Tuple[float, float]] = []
        try:
            for bound in self._strategy.candidate_bounds:
                score = self._rollout_score(
                    surrogate, bound, demands, obs.step_index
                )
                scores.append((bound, score))
                # Strict first-wins argmax: the pinned Oracle tie-break.
                if score > best_score:
                    best_score = score
                    best_bound = bound
        finally:
            live.restore(self._datacenter, self._controller)
        self.plans += 1
        self.last_scores = tuple(scores)
        if best_bound is None:
            return FALLBACK_BOUND
        return best_bound

    def _rollout_score(
        self,
        surrogate: FacilityState,
        bound: float,
        demands: Tuple[float, ...],
        start_index: int,
    ) -> float:
        """One candidate's forward run: served work minus violation penalty.

        The horizon runs as one span-engine segment starting at the live
        step index, so step ``start_index + j`` is timed ``(start_index +
        j) * dt`` exactly as the live run times it.
        """
        controller = self._datacenter.controller(FixedUpperBoundStrategy(bound))
        controller.strategy.reset()
        surrogate.restore(self._datacenter, controller)
        events_before = len(controller.safety.events)
        dt = self._dt_s
        try:
            controller.run_trace(
                Trace(np.asarray(demands), dt_s=dt, name="rollout"),
                start_index=start_index,
            )
        except ConfigurationError:
            raise
        except ReproError:
            # The candidate's future fails outright — excluded, exactly
            # as the Oracle search excludes failed candidates.
            return -math.inf
        work = 0.0
        for served in controller.history.column("served").tolist():
            work += served * dt
        violations = len(controller.safety.events) - events_before
        return work - self._strategy.violation_penalty_s * float(violations)


def build_forecast(strategy: MPCStrategy, trace: Trace) -> ForecastProvider:
    """The forecast provider the strategy's configuration asks for."""
    if strategy.forecast == "perfect":
        return PerfectForecast(trace)
    if strategy.predicted_burst_duration_s is None:
        raise ConfigurationError(
            "the predicted forecast mode needs predicted_burst_duration_s"
        )
    return PredictedBurstForecast(strategy.predicted_burst_duration_s)


def bind_rollout_planner(
    strategy: SprintingStrategy,
    datacenter: "DataCenter",
    controller: "SprintingController",
    trace: Trace,
) -> Optional[RolloutPlanner]:
    """Attach a rollout planner to an MPC strategy; no-op otherwise.

    Called by the simulation entry points right after the controller is
    built: re-binding on every run keeps the planner pointed at the live
    ``(datacenter, controller)`` pair even when a strategy object is
    reused across runs.  Returns the planner for telemetry, or ``None``
    for non-MPC strategies.
    """
    if not isinstance(strategy, MPCStrategy):
        return None
    planner = RolloutPlanner(
        datacenter, controller, strategy, build_forecast(strategy, trace)
    )
    strategy.bind_planner(planner.plan)
    return planner
