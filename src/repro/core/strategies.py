"""The four sprinting-degree strategies of Section V-A.

Each strategy produces, every control period, an *upper bound* on the
sprinting degree; the controller activates just enough cores for the
workload, never exceeding this bound (nor what power and cooling allow):

* **Greedy** — no constraint: activate just enough cores for the demand
  until the stored energy runs out.
* **Oracle** — the best *constant* upper bound found by exhaustive search
  under perfect knowledge of the burst; impractical, used as the reference
  and to pre-compute the upper-bound table.
* **Prediction** — works from a predicted burst duration ``BDu_p``;
  derives the equivalent burst duration (Eq. 1) from the average realised
  degree so far and picks the optimal upper bound from the Oracle-built
  table.
* **Heuristic** — works from an estimated best average degree ``SDe_p``;
  starts from ``SDe_ini = SDe_p x (1 + K%)`` and scales it online by
  remaining-energy over remaining-time (Eqs. 2-3).

Strategies are pure policy objects: they see a compact
:class:`StrategyObservation` each step and are told the realised degree via
:meth:`SprintingStrategy.notify_realized` (needed for the Prediction
strategy's ``SDe_avg``).
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.units import (
    require_non_negative,
    require_positive,
)

#: Default flexibility factor K% of the Heuristic strategy (Section VII-B).
DEFAULT_FLEXIBILITY_PERCENT = 10.0

#: Default candidate grid for the MPC strategy's rollouts: the same 13
#: evenly spaced bounds as the Oracle's exhaustive-search grid
#: (:data:`repro.simulation.engine.DEFAULT_ORACLE_GRID`), restated here so
#: the core layer never imports the simulation layer.  Equality of the two
#: grids is pinned by ``tests/simulation/test_mpc_rollout.py``.
DEFAULT_MPC_CANDIDATES: Tuple[float, ...] = tuple(
    1.0 + 0.25 * i for i in range(13)
)

#: Forecast modes the MPC strategy accepts.
MPC_FORECAST_MODES: Tuple[str, ...] = ("perfect", "predicted")

#: Floor applied to the remaining-time ratio RT(t) so the Heuristic bound
#: stays finite after the predicted sprinting duration has elapsed.
_RT_FLOOR = 0.02


class StrategyObservation(NamedTuple):
    """Everything a strategy may look at in one control period.

    An immutable named tuple: the span engine builds one per step for every
    strategy whose bound varies, and a tuple is about half the cost of a
    frozen dataclass to build.  Construct it by keyword.

    Attributes
    ----------
    time_s:
        Absolute simulation time.
    demand:
        Current normalised workload demand.
    in_burst:
        Whether the burst detector considers a burst active.
    time_in_burst_s:
        Seconds since the current burst began (0 outside bursts).
    budget_fraction_remaining:
        RE(t): remaining additional-energy budget as a fraction of the
        burst-start snapshot.
    max_degree:
        The chip-imposed maximum sprinting degree.
    step_index:
        The controller's integer control-period counter (the trace index
        in a simulation run).  Planners that need to align with the trace
        (the MPC rollout's :class:`~repro.simulation.rollout.PerfectForecast`)
        use this directly instead of re-deriving it from ``time_s / dt_s``,
        which drifts for non-integer ``dt_s`` over long runs.
    """

    time_s: float
    demand: float
    in_burst: bool
    time_in_burst_s: float
    budget_fraction_remaining: float
    max_degree: float
    step_index: int = 0


class SprintingStrategy(ABC):
    """Interface shared by the four strategies.

    A strategy sees the facility only through its
    :class:`StrategyObservation` (and the :meth:`notify_realized`
    feedback).  The controller's accumulators (the admission integrals,
    the phase energies, time-in-phase and the current phase) are current
    only between segments: the span engine keeps them in locals while a
    segment runs and writes them back when it ends.  A strategy that
    captures them mid-segment (the MPC planner does, to restore them) sees
    their values at the segment's start.
    """

    #: Short name used in result tables.
    name: str = "strategy"

    @abstractmethod
    def degree_upper_bound(self, obs: StrategyObservation) -> float:
        """Upper bound on the sprinting degree for this control period."""

    def bound_if_constant(self, max_degree: float) -> Optional[float]:
        """The strategy's bound when it is one constant for the whole run.

        Returns ``None`` (the default) when the bound genuinely varies with
        the observation.  A non-``None`` return is a contract: for *every*
        observation with this ``max_degree`` the strategy would return
        exactly this value from :meth:`degree_upper_bound`, with no side
        effects — the span engine then skips building the observation and
        polling the strategy each step.
        """
        return None

    def notify_realized(self, degree: float, dt_s: float, in_burst: bool) -> None:
        """Feedback: the controller realised ``degree`` for ``dt_s`` seconds.

        The default implementation ignores the feedback; the Prediction
        strategy overrides it to maintain ``SDe_avg``.
        """

    def reset(self) -> None:
        """Clear any per-episode state (between experiments)."""

    def snapshot_state(self) -> Optional[Tuple[Any, ...]]:
        """Capture the per-episode mutable state for :mod:`..simulation.snapshot`.

        Stateless strategies return ``None``; stateful ones return a plain
        tuple that :meth:`restore_state` accepts.  The pair must round-trip
        bit-for-bit — it backs the snapshot/fork engine.
        """
        return None

    def restore_state(self, state: Optional[Tuple[Any, ...]]) -> None:
        """Restore state captured by :meth:`snapshot_state`."""
        if state is not None:
            raise ConfigurationError(
                f"strategy {self.name!r} cannot restore state {state!r}"
            )


class GreedyStrategy(SprintingStrategy):
    """No constraint: sprint as high as the demand asks, while energy lasts.

    "The simplest solution is to activate just enough cores according to
    the workload demand" (Section V-A) — the bound is the chip maximum, so
    only power, cooling and the demand itself limit the degree.
    """

    name = "greedy"

    def degree_upper_bound(self, obs: StrategyObservation) -> float:
        """Always the chip maximum: nothing but demand constrains Greedy."""
        return obs.max_degree

    def bound_if_constant(self, max_degree: float) -> Optional[float]:
        """Greedy's bound is the chip maximum, independent of the state."""
        return max_degree


class FixedUpperBoundStrategy(SprintingStrategy):
    """A constant, pre-chosen upper bound — the Oracle's output format."""

    name = "fixed"

    def __init__(self, upper_bound: float) -> None:
        require_positive(upper_bound, "upper_bound")
        self.upper_bound = upper_bound

    def degree_upper_bound(self, obs: StrategyObservation) -> float:
        """The pre-chosen constant, clamped to the chip maximum."""
        return min(self.upper_bound, obs.max_degree)

    def bound_if_constant(self, max_degree: float) -> Optional[float]:
        """The clamped constant — the same value for every observation."""
        return min(self.upper_bound, max_degree)


class OracleStrategy(FixedUpperBoundStrategy):
    """The exhaustive-search optimum under perfect burst knowledge.

    Construct via :func:`oracle_search`, which evaluates candidate constant
    upper bounds against a caller-supplied simulation and keeps the best.
    """

    name = "oracle"

    def __init__(
        self, upper_bound: float, achieved_performance: float = math.nan
    ) -> None:
        super().__init__(upper_bound)
        #: Average performance the search measured for this bound.
        self.achieved_performance = achieved_performance


def first_wins_argmax(values: Sequence[float]) -> Optional[int]:
    """Index of the first maximum of ``values``, skipping NaN.

    The comparison is strict (``value > best``), so among equal values the
    lowest index wins.  NaN marks a failed candidate and never wins;
    ``None`` means every value is NaN (or there are none).  Every Oracle
    reduction and the MPC rollout planner use this one helper, which is
    what keeps their tie-breaks identical.
    """
    best: Optional[int] = None
    for i, value in enumerate(values):
        if value != value:  # NaN: this candidate failed
            continue
        if best is None or value > values[best]:
            best = i
    return best


def oracle_search(
    evaluate: Callable[[float], float],
    candidates: Sequence[float],
) -> OracleStrategy:
    """Exhaustively search constant upper bounds; return the best as Oracle.

    Parameters
    ----------
    evaluate:
        Maps a candidate upper bound to the average performance of a full
        simulation run using that bound (higher is better; NaN marks a
        failed run).
    candidates:
        Candidate bounds, e.g. ``numpy.arange(1.0, 4.01, 0.25)``.

    Tie-breaking contract
    ---------------------
    The argmax is strict (:func:`first_wins_argmax`): when several
    candidates achieve exactly the same performance, the *earliest*
    candidate in ``candidates`` wins — for the conventional ascending grids
    that is the **lowest** winning bound, the least aggressive policy that
    attains the optimum.  Every Oracle reduction in the code base
    (:meth:`~repro.simulation.batch.SweepRunner.oracle_search`, the
    upper-bound-table builder, and the shared-prefix fast path) uses the
    same helper, so results are independent of execution order and worker
    count.  Raises :class:`~repro.errors.SimulationError` when every
    evaluation is NaN.
    """
    if not candidates:
        raise ConfigurationError("candidates must be non-empty")
    for ub in candidates:
        require_positive(ub, "candidate upper bound")
    performances = [evaluate(ub) for ub in candidates]
    best = first_wins_argmax(performances)
    if best is None:
        raise SimulationError(
            "oracle search failed: every candidate upper bound's run failed"
        )
    return OracleStrategy(candidates[best], achieved_performance=performances[best])


@dataclass
class UpperBoundTable:
    """Optimal upper bounds indexed by (burst duration, max burst degree).

    "We can also use the Oracle strategy to make an upper bound table,
    listing the optimal upper bounds for different burst durations and
    maximum burst degree" (Section V-A).  Lookup snaps to the nearest grid
    point on both axes — the table is a planning aid, not an interpolant.
    """

    durations_s: List[float] = field(default_factory=list)
    degrees: List[float] = field(default_factory=list)
    _entries: Dict[Tuple[float, float], float] = field(default_factory=dict)

    def set(self, duration_s: float, degree: float, upper_bound: float) -> None:
        """Record the optimal upper bound for one grid point."""
        require_positive(duration_s, "duration_s")
        require_positive(degree, "degree")
        require_positive(upper_bound, "upper_bound")
        if duration_s not in self.durations_s:
            bisect.insort(self.durations_s, duration_s)
        if degree not in self.degrees:
            bisect.insort(self.degrees, degree)
        self._entries[(duration_s, degree)] = upper_bound

    def lookup(self, duration_s: float, degree: float) -> float:
        """Optimal upper bound at the nearest grid point.

        Tie-breaking contract: when the query sits exactly midway between
        two grid points, the **lower** grid value wins on both axes.  The
        axis lists are kept sorted ascending (``bisect.insort`` in
        :meth:`set`) and :func:`_nearest` keeps the first of equally near
        points, as ``min(..., key=abs(...))`` does, so the earlier —
        smaller — grid point is returned.  Pinned by tests so table
        lookups stay reproducible across Python versions and insertion
        orders.
        """
        if not self._entries:
            raise ConfigurationError("upper-bound table is empty")
        # A float in range needs no validation; anything else raises (or
        # passes) exactly as the validators decide.
        if type(duration_s) is not float or not 0.0 <= duration_s < math.inf:
            require_non_negative(duration_s, "duration_s")
        if type(degree) is not float or not 0.0 <= degree < math.inf:
            require_non_negative(degree, "degree")
        nearest_duration = _nearest(self.durations_s, duration_s)
        return self._entries[(nearest_duration, _nearest(self.degrees, degree))]

    def entries(self) -> List[Tuple[float, float, float]]:
        """All grid points as sorted ``(duration_s, degree, bound)`` rows.

        The batch sweep layer uses this to flatten a table into plain,
        picklable data (and to compare tables entry-wise in tests).
        """
        return sorted(
            (duration_s, degree, bound)
            for (duration_s, degree), bound in self._entries.items()
        )

    def __len__(self) -> int:
        return len(self._entries)


def _nearest(axis: Sequence[float], value: float) -> float:
    """``min(axis, key=lambda v: abs(v - value))`` without a call per item.

    The comparison is strict, so of equally near grid points the first
    wins, exactly as ``min`` keeps the first of equal keys.
    """
    best = axis[0]
    best_gap = abs(best - value)
    for point in axis:
        gap = abs(point - value)
        if gap < best_gap:
            best = point
            best_gap = gap
    return best


class PredictionStrategy(SprintingStrategy):
    """Strategy driven by a predicted burst duration (Eq. 1).

    Maintains the average realised sprinting degree since burst start,
    converts the predicted duration into the *equivalent* burst duration

        BDu_e(t) = BDu_p x (SDe_max / SDe_avg(t)),

    and selects the optimal upper bound for that equivalent duration from
    the Oracle-built table.  Sprinting below the maximum degree stretches
    the energy, so the equivalent duration grows and the table returns a
    (typically) lower, more efficient bound.

    Parameters
    ----------
    table:
        The Oracle-built upper-bound table.
    predicted_burst_duration_s:
        ``BDu_p``, possibly errored (Fig. 9's sweep).
    max_degree:
        Chip maximum degree, ``SDe_max`` in Eq. 1.
    """

    name = "prediction"

    def __init__(
        self,
        table: UpperBoundTable,
        predicted_burst_duration_s: float,
        max_degree: float = 4.0,
    ) -> None:
        require_non_negative(
            predicted_burst_duration_s, "predicted_burst_duration_s"
        )
        require_positive(max_degree, "max_degree")
        self.table = table
        self.predicted_burst_duration_s = predicted_burst_duration_s
        self.max_degree = max_degree
        self._degree_time_integral = 0.0
        self._time_in_burst = 0.0
        self._peak_demand = 1.0

    def notify_realized(self, degree: float, dt_s: float, in_burst: bool) -> None:
        """Accumulate the realised degree into SDe_avg (in-burst only)."""
        # A float in range needs no validation; anything else raises (or
        # passes) exactly as the validators decide.
        if type(degree) is not float or not 0.0 <= degree < math.inf:
            require_non_negative(degree, "degree")
        if type(dt_s) is not float or not 0.0 < dt_s < math.inf:
            require_positive(dt_s, "dt_s")
        if in_burst:
            self._degree_time_integral += degree * dt_s
            self._time_in_burst += dt_s

    def average_degree(self) -> float:
        """SDe_avg(t); the maximum degree before any burst time elapses."""
        if self._time_in_burst <= 0.0:
            return self.max_degree
        average = self._degree_time_integral / self._time_in_burst
        return average if average > 1.0 else 1.0

    def equivalent_duration_s(self) -> float:
        """BDu_e(t) per Eq. 1 of the paper."""
        return self.predicted_burst_duration_s * (
            self.max_degree / self.average_degree()
        )

    def degree_upper_bound(self, obs: StrategyObservation) -> float:
        """Table lookup at the Eq. 1 equivalent duration (Greedy outside bursts).

        The clamps are the exact conditional forms of ``max``/``min``
        (``max(a, b)`` is ``b if b > a else a``), spelled out because this
        runs once per step.
        """
        if obs.demand > self._peak_demand:
            self._peak_demand = obs.demand
        if not obs.in_burst:
            return obs.max_degree
        if self.predicted_burst_duration_s <= 0.0:
            # A -100% duration estimate predicts "no burst": nothing
            # constrains the degree, degenerating to Greedy behaviour.
            return obs.max_degree
        bound = self.table.lookup(self.equivalent_duration_s(), self._peak_demand)
        if not bound > 1.0:
            bound = 1.0
        return obs.max_degree if obs.max_degree < bound else bound

    def reset(self) -> None:
        """Clear the per-episode degree averaging."""
        self._degree_time_integral = 0.0
        self._time_in_burst = 0.0
        self._peak_demand = 1.0

    def snapshot_state(self) -> Optional[Tuple[Any, ...]]:
        """SDe_avg accumulators + peak demand, as a plain tuple."""
        return (
            self._degree_time_integral,
            self._time_in_burst,
            self._peak_demand,
        )

    def restore_state(self, state: Optional[Tuple[Any, ...]]) -> None:
        """Restore the tuple captured by :meth:`snapshot_state`."""
        if state is None or len(state) != 3:
            raise ConfigurationError(
                f"prediction strategy cannot restore state {state!r}"
            )
        self._degree_time_integral = state[0]
        self._time_in_burst = state[1]
        self._peak_demand = state[2]


class HeuristicStrategy(SprintingStrategy):
    """Strategy driven by an estimated best average degree (Eqs. 2-3).

    The initial bound is the estimate inflated by the flexibility factor,

        SDe_ini = SDe_p x (1 + K%),

    then adjusted online by the remaining-energy / remaining-time ratio:

        SDe_u(t) = SDe_ini x (RE(t) / RT(t)),
        RE(t)   = EB(t) / EB_tot,
        RT(t)   = (SDu_p - t) / SDu_p,
        SDu_p   = EB_tot / P_additional(SDe_p).

    If energy drains slower than the plan (RE > RT) the bound rises; if it
    drains faster, the bound falls to stretch the sprint.

    Parameters
    ----------
    estimated_best_degree:
        ``SDe_p``, possibly errored (Fig. 9's sweep).
    additional_power_fn:
        Maps a degree to the facility's additional power draw (W) at that
        degree; used to convert EB_tot into the predicted duration.
    flexibility_percent:
        ``K%`` (10 in the paper's experiments).
    max_degree:
        Chip maximum degree.
    """

    name = "heuristic"

    def __init__(
        self,
        estimated_best_degree: float,
        additional_power_fn: Callable[[float], float],
        flexibility_percent: float = DEFAULT_FLEXIBILITY_PERCENT,
        max_degree: float = 4.0,
    ) -> None:
        require_non_negative(estimated_best_degree, "estimated_best_degree")
        require_non_negative(flexibility_percent, "flexibility_percent")
        require_positive(max_degree, "max_degree")
        self.estimated_best_degree = estimated_best_degree
        self.additional_power_fn = additional_power_fn
        self.flexibility_percent = flexibility_percent
        self.max_degree = max_degree
        self._budget_total_j: Optional[float] = None
        self._predicted_duration_s: Optional[float] = None

    @property
    def initial_bound(self) -> float:
        """SDe_ini = SDe_p x (1 + K%), clamped to the chip maximum."""
        bound = self.estimated_best_degree * (
            1.0 + self.flexibility_percent / 100.0
        )
        return self.max_degree if self.max_degree < bound else bound

    def _ensure_plan(self, budget_total_j: float) -> None:
        """Compute SDu_p once, at the first in-burst observation.

        The paper writes ``SDu_p = EB_tot / SDe_p`` with the budget in
        degree-normalised energy units; converting joules with the
        facility's power-per-unit-degree gives
        ``SDu_p = EB_tot / (P_unit x SDe_p)``.  Crucially the denominator is
        *linear* in the estimate, so an under-estimated ``SDe_p`` yields an
        over-long plan whose RT declines slowly — and the RE/RT ratio then
        pulls the bound up as real energy stays unspent, the online
        correction Section VII-B describes.
        """
        if self._predicted_duration_s is not None:
            return
        self._budget_total_j = budget_total_j
        # Additional power per unit of sprinting degree (the power model is
        # affine in the degree, so the slope is exact), and the energy
        # drain is proportional to the degree *above normal* — an estimate
        # at or below 1 predicts no additional drain at all.
        unit_degree_w = self.additional_power_fn(2.0)
        sde_p = min(self.estimated_best_degree, self.max_degree)
        additional_degrees = sde_p - 1.0
        if unit_degree_w <= 0.0 or additional_degrees <= 0.0:
            self._predicted_duration_s = math.inf
        else:
            self._predicted_duration_s = budget_total_j / (
                unit_degree_w * additional_degrees
            )

    def degree_upper_bound(self, obs: StrategyObservation) -> float:
        """SDe_ini scaled by RE/RT (Eqs. 2-3), clamped into [1, max].

        The clamps are the exact conditional forms of ``max``/``min``, as
        in :meth:`PredictionStrategy.degree_upper_bound`.
        """
        if not obs.in_burst:
            return obs.max_degree
        if self.estimated_best_degree <= 0.0:
            # A -100% estimate predicts "no sprinting is worthwhile".
            return 1.0
        # EB_tot is unknown to the strategy itself; reconstruct it from the
        # observation: RE(t) is EB(t)/EB_tot, and at the first in-burst step
        # RE is 1 by construction, so any positive placeholder works — the
        # bound only uses the RE/RT *ratio*.
        self._ensure_plan(budget_total_j=1.0)
        # The plan duration needs real units; recompute from the additional
        # power once a real budget scale is set via set_budget_scale().
        rt = self._remaining_time_ratio(obs.time_in_burst_s)
        re = obs.budget_fraction_remaining
        if not re > 0.0:
            re = 0.0
        bound = self.initial_bound * (re / rt)
        if not bound > 1.0:
            bound = 1.0
        return obs.max_degree if obs.max_degree < bound else bound

    def set_budget_scale(self, budget_total_j: float) -> None:
        """Provide EB_tot (J) so SDu_p has physical units.

        Called by the controller at burst start, right after it snapshots
        the energy budget.
        """
        require_non_negative(budget_total_j, "budget_total_j")
        self._predicted_duration_s = None
        self._ensure_plan(budget_total_j)

    def _remaining_time_ratio(self, time_in_burst_s: float) -> float:
        if (
            self._predicted_duration_s is None
            or math.isinf(self._predicted_duration_s)
            or self._predicted_duration_s <= 0.0
        ):
            return 1.0
        rt = (
            self._predicted_duration_s - time_in_burst_s
        ) / self._predicted_duration_s
        return rt if rt > _RT_FLOOR else _RT_FLOOR

    def reset(self) -> None:
        """Forget the per-episode plan (EB_tot and SDu_p)."""
        self._budget_total_j = None
        self._predicted_duration_s = None

    def snapshot_state(self) -> Optional[Tuple[Any, ...]]:
        """The per-episode plan (EB_tot, SDu_p), as a plain tuple."""
        return (self._budget_total_j, self._predicted_duration_s)

    def restore_state(self, state: Optional[Tuple[Any, ...]]) -> None:
        """Restore the tuple captured by :meth:`snapshot_state`."""
        if state is None or len(state) != 2:
            raise ConfigurationError(
                f"heuristic strategy cannot restore state {state!r}"
            )
        self._budget_total_j = state[0]
        self._predicted_duration_s = state[1]


class MPCStrategy(SprintingStrategy):
    """Model-predictive strategy planning by forward rollouts (fork engine).

    At burst onset — and again every ``replan_interval_s`` while the burst
    lasts — the strategy asks its bound *planner* for an upper bound.  The
    planner (:class:`repro.simulation.rollout.RolloutPlanner`) captures the
    live :class:`~repro.simulation.snapshot.FacilityState`, rolls each
    candidate bound forward over a short horizon against a forecast trace,
    scores computational work minus safety-envelope violations, restores
    the live state bit-for-bit and returns the strict first-wins argmax —
    the same tie-break rule as :func:`oracle_search`.  Between plans the
    committed bound is held constant, so the strategy behaves like a
    piecewise-:class:`FixedUpperBoundStrategy` whose pieces are chosen
    online.

    The strategy itself is a pure policy object: it never imports the
    simulation layer.  The planner is attached by
    :func:`repro.simulation.rollout.bind_rollout_planner` (called from
    :func:`~repro.simulation.engine.run_simulation`); unbound, the strategy
    degenerates to Greedy behaviour — the chip maximum every step.

    Parameters
    ----------
    candidate_bounds:
        The rollout grid, evaluated in order (first of equals wins).
    horizon_s:
        Rollout lookahead.  A perfect forecast with a horizon at least the
        remaining trace makes MPC coincide with the Oracle on single-burst
        traces (pinned by the rollout-differential suite).
    replan_interval_s:
        Re-plan cadence while in-burst; ``None`` plans once per burst.
    forecast:
        ``"perfect"`` replays the actual trace over the horizon;
        ``"predicted"`` synthesises demand from
        ``predicted_burst_duration_s`` via the
        :mod:`repro.workloads.prediction` conventions.
    predicted_burst_duration_s:
        ``BDu_p`` for the predicted-forecast mode (required there).
    violation_penalty_s:
        Served-seconds subtracted from a rollout's score per safety event
        it provokes; rollouts that *fail* outright score NaN.
    max_degree:
        Chip maximum degree.
    """

    name = "mpc"

    def __init__(
        self,
        candidate_bounds: Sequence[float] = DEFAULT_MPC_CANDIDATES,
        horizon_s: float = 600.0,
        replan_interval_s: Optional[float] = None,
        forecast: str = "perfect",
        predicted_burst_duration_s: Optional[float] = None,
        violation_penalty_s: float = 120.0,
        max_degree: float = 4.0,
    ) -> None:
        if not candidate_bounds:
            raise ConfigurationError("candidate_bounds must be non-empty")
        for bound in candidate_bounds:
            require_positive(float(bound), "candidate bound")
        require_positive(horizon_s, "horizon_s")
        if replan_interval_s is not None:
            require_positive(replan_interval_s, "replan_interval_s")
        if forecast not in MPC_FORECAST_MODES:
            raise ConfigurationError(
                f"unknown MPC forecast mode {forecast!r}; "
                f"expected one of {MPC_FORECAST_MODES}"
            )
        if forecast == "predicted":
            if predicted_burst_duration_s is None:
                raise ConfigurationError(
                    "the predicted forecast mode needs "
                    "predicted_burst_duration_s"
                )
            require_non_negative(
                predicted_burst_duration_s, "predicted_burst_duration_s"
            )
        require_non_negative(violation_penalty_s, "violation_penalty_s")
        require_positive(max_degree, "max_degree")
        self.candidate_bounds = tuple(float(b) for b in candidate_bounds)
        self.horizon_s = horizon_s
        self.replan_interval_s = replan_interval_s
        self.forecast = forecast
        self.predicted_burst_duration_s = predicted_burst_duration_s
        self.violation_penalty_s = violation_penalty_s
        self.max_degree = max_degree
        #: Planner attached by the simulation layer; maps an observation to
        #: the committed upper bound.  Not part of the episode state.
        self._planner: Optional[Callable[[StrategyObservation], float]] = None
        self._committed_bound: Optional[float] = None
        self._last_plan_time_s: Optional[float] = None
        self._plan_log: List[Tuple[float, float]] = []

    def bind_planner(
        self, planner: Callable[[StrategyObservation], float]
    ) -> None:
        """Attach the rollout planner (the simulation layer calls this)."""
        self._planner = planner

    @property
    def planner_bound(self) -> bool:
        """Whether a rollout planner is currently attached."""
        return self._planner is not None

    @property
    def plan_log(self) -> Tuple[Tuple[float, float], ...]:
        """Every committed plan this episode as ``(time_s, bound)`` pairs."""
        return tuple(self._plan_log)

    def _replan_due(self, time_s: float) -> bool:
        if self.replan_interval_s is None:
            return False
        if self._last_plan_time_s is None:
            return True
        return time_s - self._last_plan_time_s >= self.replan_interval_s - 1e-9

    def degree_upper_bound(self, obs: StrategyObservation) -> float:
        """The committed plan's bound; plan (or re-plan) first when due."""
        if not obs.in_burst:
            # Bursts are planning episodes: leaving one discards the plan.
            self._committed_bound = None
            self._last_plan_time_s = None
            return obs.max_degree
        if self._planner is None:
            return obs.max_degree
        if self._committed_bound is None or self._replan_due(obs.time_s):
            bound = self._planner(obs)
            self._committed_bound = bound
            self._last_plan_time_s = obs.time_s
            self._plan_log.append((obs.time_s, bound))
        return min(self._committed_bound, obs.max_degree)

    def reset(self) -> None:
        """Clear the episode plan (the planner binding is configuration)."""
        self._committed_bound = None
        self._last_plan_time_s = None
        self._plan_log.clear()

    def snapshot_state(self) -> Optional[Tuple[Any, ...]]:
        """The committed plan and plan log, as a plain tuple."""
        return (
            self._committed_bound,
            self._last_plan_time_s,
            tuple(self._plan_log),
        )

    def restore_state(self, state: Optional[Tuple[Any, ...]]) -> None:
        """Restore the tuple captured by :meth:`snapshot_state`."""
        if state is None or len(state) != 3:
            raise ConfigurationError(
                f"mpc strategy cannot restore state {state!r}"
            )
        self._committed_bound = state[0]
        self._last_plan_time_s = state[1]
        self._plan_log = list(state[2])
