"""The three-phase Data Center Sprinting controller (Sections IV and V).

Each control period (1 s by default) the controller:

1. asks the burst detector whether a burst is active and the strategy for
   the sprinting-degree upper bound;
2. picks the candidate degree — just enough cores for the demand, capped by
   the strategy bound and the chip maximum;
3. bounds the degree by what the *power* infrastructure can source: the
   coordinated breaker-overload budget (Phase 1, shrinking so the remaining
   trip time never falls below the reserve) plus the UPS fleet's available
   power (Phase 2);
4. bounds the degree by what *cooling* allows: once the room's thermal
   headroom is spent, sprinting heat must be fully absorbed (chiller +
   TES), which activates the TES no later than the Section V-C timing rule
   (Phase 3);
5. commits the step: breakers integrate their thermal trip state, batteries
   and the tank discharge, the room temperature moves, and the admission
   controller accounts served vs dropped demand.

By construction the controller never trips a breaker and never crosses the
thermal threshold — the uncontrolled baseline in
:mod:`repro.core.uncontrolled` shows what happens without these bounds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.cooling.crac import CoolingPlant
from repro.cooling.thermal import tes_activation_time_s
from repro.errors import ConfigurationError
from repro.core.admission import AdmissionController
from repro.core.budget import EnergyBudget
from repro.core.kernel import StepKernel
from repro.core.phases import PhaseTracker, SprintPhase, classify_phase
from repro.core.safety import SafetyMonitor
from repro.core.steplog import StepLog
from repro.core.strategies import SprintingStrategy, StrategyObservation
from repro.power.topology import PowerTopology
from repro.servers.cluster import ServerCluster
from repro.servers.pcm import PcmHeatSink
from repro.units import require_non_negative, require_positive
from repro.workloads.prediction import OnlineBurstDetector

if TYPE_CHECKING:
    from repro.workloads.traces import Trace

#: Degree above which a step counts as sprinting.
_SPRINT_DEGREE_EPS = 1e-6


@dataclass(frozen=True, slots=True)
class ControllerSettings:
    """Tunable knobs of the sprinting controller.

    Parameters
    ----------
    dt_s:
        Control period.
    reserve_trip_time_s:
        Breaker trip-time reserve — the paper's "1 minute" user parameter
        controlling how aggressively breakers are overloaded.
    thermal_margin_k:
        Room headroom at which sprinting heat must be fully absorbed.
    recharge_when_idle:
        Whether to trickle-recharge the UPS fleet outside bursts.
    max_recharge_fraction:
        Cap on recharge power as a fraction of the PDU's spare rating.
    ups_outage_reserve_fraction:
        Share of the UPS capacity sprinting may never touch.  The
        batteries' primary duty is bridging a utility outage until the
        diesel starts (Section III-B); a facility that wants that bridge
        guaranteed even mid-sprint keeps a reserve.  The paper's
        evaluation uses 0 (the full capacity is available to sprinting).
    """

    dt_s: float = 1.0
    reserve_trip_time_s: float = 60.0
    thermal_margin_k: float = 2.0
    recharge_when_idle: bool = True
    max_recharge_fraction: float = 0.5
    ups_outage_reserve_fraction: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.dt_s, "dt_s")
        require_positive(self.reserve_trip_time_s, "reserve_trip_time_s")
        require_non_negative(self.thermal_margin_k, "thermal_margin_k")
        require_non_negative(self.max_recharge_fraction, "max_recharge_fraction")
        if not 0.0 <= self.ups_outage_reserve_fraction < 1.0:
            raise ConfigurationError(
                "ups_outage_reserve_fraction must be in [0, 1), got "
                f"{self.ups_outage_reserve_fraction!r}"
            )


@dataclass(frozen=True, slots=True)
class ControlStep:
    """Full telemetry of one committed control period."""

    time_s: float
    demand: float
    upper_bound: float
    degree: float
    capacity: float
    served: float
    dropped: float
    phase: SprintPhase
    in_burst: bool
    it_power_w: float
    grid_w: float
    ups_w: float
    cb_overload_w: float
    tes_heat_w: float
    tes_electric_saved_w: float
    cooling_electric_w: float
    room_temperature_c: float
    pdu_grid_bound_w: float

    @property
    def sprinting(self) -> bool:
        """Whether this step ran above the normal degree."""
        return self.degree > 1.0 + _SPRINT_DEGREE_EPS


class SprintingController:
    """Drives one facility through Data Center Sprinting.

    Parameters
    ----------
    cluster:
        The server fleet (power and throughput models).
    topology:
        The power infrastructure (breakers + UPS).
    cooling:
        The cooling plant (chiller + TES + room).
    strategy:
        One of the four sprinting-degree strategies.
    settings:
        Controller knobs.
    use_kernel:
        Run steps through the precomputed :class:`StepKernel` fast path
        (bit-identical to the reference path; the differential tests
        assert element-wise equality).  Disable to force the reference
        implementation.
    kernel:
        A prebuilt kernel for this substrate (e.g. cached by the
        :class:`~repro.simulation.datacenter.DataCenter`); built on
        demand when omitted and ``use_kernel`` is set.
    """

    def __init__(
        self,
        cluster: ServerCluster,
        topology: PowerTopology,
        cooling: CoolingPlant,
        strategy: SprintingStrategy,
        settings: Optional[ControllerSettings] = None,
        pcm: Optional[PcmHeatSink] = None,
        use_kernel: bool = True,
        kernel: Optional[StepKernel] = None,
    ) -> None:
        self.cluster = cluster
        self.topology = topology
        self.cooling = cooling
        self.strategy = strategy
        self.settings = settings or ControllerSettings()
        #: Chip-level sprinting thermals (the paper's prerequisite): when
        #: present, the degree is additionally bounded by the PCM budget
        #: and DC sprinting ends if chip sprinting cannot be sustained
        #: (Section IV).
        self.pcm = pcm

        self.detector = OnlineBurstDetector()
        self.budget = EnergyBudget(
            topology, cooling, reserve_s=self.settings.reserve_trip_time_s
        )
        self.phases = PhaseTracker()
        self.admission = AdmissionController()
        self.safety = SafetyMonitor(
            thermal_margin_k=self.settings.thermal_margin_k,
            min_trip_reserve_s=self.settings.reserve_trip_time_s,
        )
        #: Phase-3 start per Section V-C: 5 min scaled by peak-normal over
        #: maximum-additional server power (conservative).
        self.tes_activation_s = tes_activation_time_s(
            cluster.peak_normal_power_w, cluster.max_additional_power_w
        )
        self.history = StepLog()
        self._burst_was_active = False
        #: Absolute serving capacity while degraded, None when healthy.
        self._degraded_capacity: Optional[float] = None
        #: Demand-implied degree of the most recent step (before any bound
        #: or fit shrinks it) — ``cluster.degree_for_demand(demand)``;
        #: math.nan until a step runs.  Written by both the kernel and the
        #: reference path.
        self.last_needed_degree: float = math.nan
        if kernel is not None:
            self._kernel: Optional[StepKernel] = kernel
        elif use_kernel:
            self._kernel = StepKernel(cluster, topology, cooling)
        else:
            self._kernel = None

    # ------------------------------------------------------------------
    # Main loop entry
    # ------------------------------------------------------------------
    def step(
        self,
        demand: float,
        time_s: float,
        step_index: Optional[int] = None,
    ) -> ControlStep:
        """Run one control period; returns the committed step telemetry.

        ``step_index`` is the caller's integer control-period counter (the
        trace index in a simulation run), threaded into the strategy
        observation so planners never re-derive it from ``time_s / dt_s``
        (float division drifts for non-integer ``dt_s``).  Callers without
        a counter may omit it; the rounded fallback then only feeds
        observations for which no index-aligned planning happens.
        Kernel-backed controllers run the period as a one-sample segment
        of the span engine (:meth:`StepKernel.run_sample`).
        """
        if step_index is None:
            step_index = int(round(time_s / self.settings.dt_s))
        kernel = self._kernel
        if kernel is not None:
            return kernel.run_sample(self, demand, time_s, step_index)
        return self._step_reference(demand, time_s, step_index)

    def run_trace(self, trace: "Trace", start_index: int = 0) -> None:
        """Run ``trace``'s samples as steps ``start_index``, ``start_index + 1``, ...

        Equivalent to ``for j, d in enumerate(trace): i = start_index + j;
        self.step(d, i * trace.dt_s, i)``.  Kernel-backed controllers take
        the span-compiled fast path (:meth:`StepKernel.run_trace` —
        bit-identical, RLE spans plus steady-cycle fast-forward);
        reference controllers fall back to per-sample stepping.  One call
        is one *segment*: callers that must act between samples (fault
        injection, forked searches) split a run into consecutive segments,
        and when a step raises, the steps before it stay committed — the
        failing index is ``start_index`` plus the rows the segment added
        to :attr:`history`.  The trace's sampling period is the caller's
        contract, exactly as for :meth:`step` (the engine validates it
        against ``settings.dt_s``).  ``start_index`` must be an integer
        >= 0, checked before any step runs on either path.
        """
        try:
            start_index = operator.index(start_index)
        except TypeError:
            raise ConfigurationError(
                f"start_index must be an integer, got {start_index!r}"
            ) from None
        if start_index < 0:
            raise ConfigurationError(
                f"start_index must be >= 0, got {start_index}"
            )
        kernel = self._kernel
        if kernel is not None:
            kernel.run_trace(self, trace, start_index)
            return
        dt = trace.dt_s
        for j, demand in enumerate(trace):
            i = start_index + j
            self._step_reference(demand, i * dt, i)

    def _step_reference(
        self, demand: float, time_s: float, step_index: int
    ) -> ControlStep:
        """Reference (method-dispatched) control period.

        The :class:`StepKernel` fast path replicates this sequence of
        floating-point operations exactly; keep the two in lockstep.
        """
        require_non_negative(demand, "demand")
        require_non_negative(time_s, "time_s")
        dt = self.settings.dt_s

        in_burst = self.detector.observe(demand, time_s)
        self._handle_burst_edges(in_burst)
        time_in_burst = self.detector.time_in_burst_s(time_s)

        obs = StrategyObservation(
            time_s=time_s,
            demand=demand,
            in_burst=in_burst,
            time_in_burst_s=time_in_burst,
            budget_fraction_remaining=self.budget.fraction_remaining(),
            max_degree=self.cluster.throughput.max_degree,
            step_index=step_index,
        )
        upper_bound = self.strategy.degree_upper_bound(obs)

        needed = self.cluster.degree_for_demand(demand)
        self.last_needed_degree = needed
        degree = min(needed, upper_bound)
        if self.safety.emergency_active:
            # External hazard (e.g. a utility power spike): end sprinting
            # immediately, run at most at the normal degree.
            degree = min(degree, 1.0)
        if self.pcm is not None:
            # "If the chip-level sprinting can be no longer sustained, we
            # also finish Data Center Sprinting" (Section IV).
            if self.pcm.exhausted:
                degree = min(degree, 1.0)
            else:
                degree = min(
                    degree,
                    self.pcm.max_sustainable_degree(
                        minimum_endurance_s=self.settings.dt_s
                    ),
                )

        use_tes = (
            in_burst
            and self.cooling.has_tes
            and not self.cooling.tes.is_empty
            and time_in_burst >= self.tes_activation_s
            and degree > 1.0 + _SPRINT_DEGREE_EPS
        )

        degree, pdu_bound, cooling_estimate_w = self._fit_power(degree, use_tes, dt)
        degree, use_tes = self._fit_thermal(degree, needed, use_tes, time_s)
        # Power bounds may have changed after a thermal reduction; refit so
        # the committed step respects both.
        degree, pdu_bound, cooling_estimate_w = self._fit_power(degree, use_tes, dt)

        step = self._commit(
            demand=demand,
            time_s=time_s,
            in_burst=in_burst,
            upper_bound=upper_bound,
            degree=degree,
            pdu_bound=pdu_bound,
            use_tes=use_tes,
            dt=dt,
        )
        if self.pcm is not None:
            self.pcm.step(step.degree, dt)
        self.strategy.notify_realized(step.degree, dt, in_burst)
        self.history.append(step)
        return step

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _handle_burst_edges(self, in_burst: bool) -> None:
        if in_burst and not self._burst_was_active:
            total = self.budget.snapshot()
            # Budget-aware strategies (Heuristic, receding-horizon) receive
            # EB_tot so their energy terms have physical units.
            set_scale = getattr(self.strategy, "set_budget_scale", None)
            if callable(set_scale):
                set_scale(total)
        elif not in_burst and self._burst_was_active:
            self.budget.clear_snapshot()
        self._burst_was_active = in_burst

    def _ups_floor_j(self) -> float:
        """Facility-wide UPS energy sprinting may never consume."""
        return (
            self.settings.ups_outage_reserve_fraction
            * self.topology.ups_capacity_j
        )

    def _fit_power(
        self, degree: float, use_tes: bool, dt: float
    ) -> Tuple[float, float, float]:
        """Shrink the degree until power can actually be sourced.

        The cooling electric power depends on the IT power (and the TES
        split) while the per-PDU grid bound depends on the cooling power, so
        a couple of fixed-point iterations are run; the mapping is monotone
        and contracts immediately because the chiller draw saturates at its
        rating during sprints.
        """
        reserve = self.settings.reserve_trip_time_s
        pdu_bound = 0.0
        cooling_w = 0.0
        ups_floor_per_pdu_j = self._ups_floor_j() / self.topology.n_pdus
        for _ in range(3):
            it_power = self.cluster.power_at_degree_w(degree)
            cooling_w = self.cooling.estimate(it_power, dt, use_tes).electric_power_w
            pdu_bound = self.topology.coordinated_pdu_bound_w(reserve, cooling_w)
            usable_j = max(
                0.0, self.topology.pdu.ups.energy_j - ups_floor_per_pdu_j
            )
            ups_power = min(
                self.topology.pdu.ups.available_power_w(), usable_j / dt
            )
            available = (pdu_bound + ups_power) * self.topology.n_pdus
            if it_power <= available * (1.0 + 1e-12):
                break
            degree = min(degree, self.cluster.degree_for_power(available))
        return degree, pdu_bound, cooling_w

    def _fit_thermal(
        self, degree: float, needed: float, use_tes: bool, time_s: float
    ) -> Tuple[float, bool]:
        """Shrink the degree once the room's thermal headroom is spent.

        Before the headroom is consumed, sprinting heat may exceed removal
        (that is the whole point of phases 1-2); at the margin, the degree
        falls to what chiller + TES can absorb, and the TES is engaged
        early if that rescues a higher degree.
        """
        room = self.cooling.room
        margin = self.settings.thermal_margin_k
        if room.headroom_k > margin:
            return degree, use_tes
        # Heat must now balance: cap IT power at the absorbable rate.
        removal = self.cooling.chiller.max_chiller_heat_w()
        if self.cooling.has_tes and not self.cooling.tes.is_empty:
            use_tes = True
            removal += self.cooling.tes.available_absorption_w()
        safe_degree = self.cluster.degree_for_power(removal)
        if safe_degree < degree:
            self.safety.thermal_degree_is_safe(self.cooling, use_tes, time_s)
            degree = min(degree, max(1.0, safe_degree))
        return degree, use_tes

    def _commit(
        self,
        demand: float,
        time_s: float,
        in_burst: bool,
        upper_bound: float,
        degree: float,
        pdu_bound: float,
        use_tes: bool,
        dt: float,
    ) -> ControlStep:
        it_power = self.cluster.power_at_degree_w(degree)
        cooling_step = self.cooling.step(
            it_heat_w=it_power, dt_s=dt, use_tes=use_tes
        )

        recharge_w = 0.0
        if (
            self.settings.recharge_when_idle
            and not in_burst
            and self.topology.pdu.ups.state_of_charge < 1.0
        ):
            per_pdu_load = it_power / self.topology.n_pdus
            spare = max(0.0, self.topology.pdu.rated_power_w - per_pdu_load)
            recharge_w = spare * self.settings.max_recharge_fraction
            if recharge_w > 0.0:
                self.topology.recharge_ups(
                    recharge_w * self.topology.n_pdus, dt
                )

        flow = self.topology.step(
            server_demand_w=it_power + recharge_w * self.topology.n_pdus,
            pdu_grid_bound_w=pdu_bound + recharge_w,
            cooling_w=cooling_step.electric_power_w,
            dt_s=dt,
            ups_floor_j=self._ups_floor_j(),
        )

        effective_power = it_power - flow.deficit_w
        effective_degree = (
            degree
            if flow.deficit_w <= 1e-9
            else self.cluster.degree_for_power(effective_power)
        )
        capacity = self.cluster.capacity_at_degree(effective_degree)
        decision = self.admission.admit(demand, capacity, dt)

        pdu_rated_total = self.topology.pdu.rated_power_w * self.topology.n_pdus
        pdu_overload_w = max(0.0, flow.pdu_grid_w - pdu_rated_total)
        dc_overload_w = max(
            0.0, flow.dc_feed_w - self.topology.dc_breaker.rated_power_w
        )
        cb_overload_w = max(pdu_overload_w, dc_overload_w)
        # Chiller electricity actually displaced by the TES: what the plant
        # would have drawn routing everything through the (rating-capped)
        # chiller, minus what it drew with the TES carrying part of the load.
        electric_without_tes = self.cooling.chiller.electric_power_w(
            min(it_power, self.cooling.chiller.max_chiller_heat_w()), 0.0
        )
        tes_saved_w = max(
            0.0, electric_without_tes - cooling_step.electric_power_w
        )

        sprinting = effective_degree > 1.0 + _SPRINT_DEGREE_EPS
        phase = classify_phase(sprinting, flow.ups_w, cooling_step.heat_via_tes_w)
        self.phases.record(
            phase,
            dt,
            cb_overload_power_w=cb_overload_w if sprinting else 0.0,
            ups_power_w=flow.ups_w,
            tes_electric_power_w=tes_saved_w,
        )

        return ControlStep(
            time_s=time_s,
            demand=demand,
            upper_bound=upper_bound,
            degree=effective_degree,
            capacity=capacity,
            served=decision.served,
            dropped=decision.dropped,
            phase=phase,
            in_burst=in_burst,
            it_power_w=effective_power,
            grid_w=flow.pdu_grid_w,
            ups_w=flow.ups_w,
            cb_overload_w=cb_overload_w,
            tes_heat_w=cooling_step.heat_via_tes_w,
            tes_electric_saved_w=tes_saved_w,
            cooling_electric_w=cooling_step.electric_power_w,
            room_temperature_c=self.cooling.room.temperature_c,
            pdu_grid_bound_w=pdu_bound,
        )

    # ------------------------------------------------------------------
    # Graceful degradation (fault injection)
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether the controller has fallen back to admission-only mode."""
        return self._degraded_capacity is not None

    def enter_degraded(
        self, surviving_capacity: float, time_s: float, reason: str
    ) -> None:
        """Fall back to admission control on ``surviving_capacity``.

        Called by the engine when a substrate component faults under an
        active fault plan.  ``surviving_capacity`` is in the same demand
        units the trace uses (1.0 = peak-normal facility capacity); no
        sprinting is attempted from here on, the controller only admits
        what the surviving fleet can serve at the normal degree.
        """
        require_non_negative(surviving_capacity, "surviving_capacity")
        self._degraded_capacity = surviving_capacity
        self.safety.record_fault(
            time_s,
            f"degraded to admission-control-only on "
            f"{surviving_capacity:g} capacity: {reason}",
        )

    def degraded_step(self, demand: float, time_s: float) -> ControlStep:
        """One admission-control-only period on the surviving capacity.

        The substrate is not stepped (a dark facility has no power flows
        and a shut-down one generates no heat); only the admission
        integrals and phase clock advance so the run's metrics stay
        well defined and ``history`` keeps one entry per trace sample.
        """
        if self._degraded_capacity is None:
            raise ConfigurationError(
                "degraded_step called on a healthy controller; call "
                "enter_degraded first"
            )
        require_non_negative(demand, "demand")
        require_non_negative(time_s, "time_s")
        dt = self.settings.dt_s
        capacity = self._degraded_capacity
        decision = self.admission.admit(demand, capacity, dt)
        self.phases.record(SprintPhase.IDLE, dt)
        base = self.cluster.capacity_at_degree(1.0)
        degree = min(1.0, capacity / base) if base > 0.0 else 0.0
        it_power_w = self.cluster.power_at_degree_w(degree) if degree > 0.0 else 0.0
        step = ControlStep(
            time_s=time_s,
            demand=demand,
            upper_bound=1.0,
            degree=degree,
            capacity=capacity,
            served=decision.served,
            dropped=decision.dropped,
            phase=SprintPhase.IDLE,
            in_burst=False,
            it_power_w=it_power_w,
            grid_w=0.0,
            ups_w=0.0,
            cb_overload_w=0.0,
            tes_heat_w=0.0,
            tes_electric_saved_w=0.0,
            cooling_electric_w=0.0,
            room_temperature_c=self.cooling.room.temperature_c,
            pdu_grid_bound_w=0.0,
        )
        self.history.append(step)
        return step

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Reset the controller and every subsystem it owns."""
        self.detector.reset()
        self.budget.clear_snapshot()
        self.phases.reset()
        self.admission.reset()
        self.safety.reset()
        self.strategy.reset()
        self.topology.reset()
        self.cooling.reset()
        if self.pcm is not None:
            self.pcm.reset()
        self.history.clear()
        self._burst_was_active = False
        self._degraded_capacity = None
        self.last_needed_degree = math.nan
