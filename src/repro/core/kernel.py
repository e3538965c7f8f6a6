"""Precomputed physics kernel for the sprinting control loop.

Profiling a full trace run shows the inner loop spends most of its time in
attribute chains, ``require_*`` re-validation of values that are validated
once at construction, and property recomputation of loop invariants (trip
curve constants, the cluster's affine degree<->power mapping, the cooling
coefficients, the UPS floor).  :class:`StepKernel` is built once per
facility, hoists every such invariant, and runs control periods with the
*identical* sequence of floating-point operations as the reference
:meth:`repro.core.controller.SprintingController._step_reference` —
bit-for-bit, as the differential property tests assert.  It has one step
body, ``StepKernel._run``, a single loop over a segment's samples, behind
both :meth:`StepKernel.run_trace` (a segment of a trace) and
:meth:`StepKernel.run_sample` (a single control period, run as a
one-sample segment).

What fault injection can mutate is a *segment constant*: read once at
the start of each segment, never hoisted into the kernel.  The engine
applies fault events only between segments (it ends each segment at the
next event or expiry), and an MPC plan, which forks the facility inside
the strategy call, restores it bit for bit before returning.  So both
breakers' ``rated_power_w``, the battery's ``capacity_ah`` and
``max_discharge_power_w``, the chiller's ``rated_removal_w`` and the TES
``max_discharge_w`` are read once per segment, as are the parameters no
run mutates (the detector's threshold and hold-off, the recharge
settings, the PCM's budget, re-freeze rate and chip).  State stays live:
trip fractions and latches, charges, temperatures, the PCM's melt and
latch, the detector's flags.  Strategy and safety-monitor calls are kept
as method calls because they carry side effects (plan state, safety
events).

The step body calls no builtin ``min``/``max``: ``min(a, b)`` is written
``b if b < a else a`` (or ``if b < a: a = b``) and ``max(a, b)`` as
``b if b > a else a``.  Like the builtins, these keep the first argument
on ties and when the second is NaN, so they equal them for every float.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.core.phases import SprintPhase
from repro.core.steplog import _CODE_BY_PHASE
from repro.core.strategies import SprintingStrategy, StrategyObservation
from repro.errors import (
    BreakerTrippedError,
    ConfigurationError,
    TankDepletedError,
    ThermalEmergencyError,
)
from repro.units import SECONDS_PER_HOUR, require_non_negative

if TYPE_CHECKING:
    from repro.cooling.crac import CoolingPlant
    from repro.core.budget import EnergyBudget
    from repro.core.controller import ControlStep, SprintingController
    from repro.power.breaker import CircuitBreaker
    from repro.power.topology import PowerTopology
    from repro.servers.cluster import ServerCluster
    from repro.workloads.traces import Trace

#: Degree above which a step counts as sprinting (1.0 + controller epsilon).
_SPRINT_THRESHOLD = 1.0 + 1e-6

#: Phase-classification noise floor (mirrors ``repro.core.phases``).
_ACTIVE_POWER_EPS_W = 1e-6

_IDLE = SprintPhase.IDLE
_PHASE1 = SprintPhase.PHASE1_CB
_PHASE2 = SprintPhase.PHASE2_UPS
_PHASE3 = SprintPhase.PHASE3_TES

#: StepLog phase-column codes for the four phase singletons, so the hot
#: loop writes an int without hashing an Enum per step.
_CODE_IDLE = _CODE_BY_PHASE[_IDLE]
_CODE_PHASE1 = _CODE_BY_PHASE[_PHASE1]
_CODE_PHASE2 = _CODE_BY_PHASE[_PHASE2]
_CODE_PHASE3 = _CODE_BY_PHASE[_PHASE3]


class _BreakerConsts:
    """Hoisted trip-curve constants of one breaker (curves are frozen)."""

    __slots__ = (
        "K",
        "hold",
        "hold_hi",
        "hold_lo",
        "hold_p12",
        "inst_mult",
        "inst_time",
        "inst_o",
        "inst_cap",
        "cooldown_tau",
    )

    def __init__(self, breaker: CircuitBreaker) -> None:
        curve = breaker.curve
        self.K = curve.trip_constant_s
        self.hold = curve.hold_threshold
        self.hold_hi = curve.hold_threshold * (1.0 + 1e-9)
        self.hold_lo = curve.hold_threshold * (1.0 - 1e-9)
        self.hold_p12 = curve.hold_threshold + 1e-12
        self.inst_mult = curve.instant_trip_multiple
        self.inst_time = curve.instant_trip_time_s
        self.inst_o = curve.instant_trip_multiple - 1.0
        self.inst_cap = curve.instant_trip_multiple - 1.0 - 1e-9
        self.cooldown_tau = breaker.cooldown_tau_s


class StepKernel:
    """One facility's control-loop fast path.

    Built from the same ``(cluster, topology, cooling)`` triple a
    :class:`~repro.core.controller.SprintingController` drives; safe to
    share between controllers over the same substrate (it holds no per-run
    state of its own — all mutable state lives in the substrate and the
    controller passed to :meth:`run_trace`), and re-entrant: an MPC
    rollout runs its own segments while the live segment waits inside the
    strategy call.
    """

    def __init__(
        self,
        cluster: ServerCluster,
        topology: PowerTopology,
        cooling: CoolingPlant,
    ) -> None:
        # Lazy import: controller.py imports this module at load time.
        from repro.core.controller import ControlStep

        self._ControlStep = ControlStep

        # --- cluster / chip (all frozen dataclasses) -------------------
        server = cluster.server
        chip = server.chip
        self._n_servers = cluster.n_servers
        self._non_cpu_power_w = server.non_cpu_power_w
        self._idle_chip_power_w = chip.idle_chip_power_w
        self._core_power_w = chip.core_power_w
        self._normal_cores = chip.normal_cores
        self._total_cores_f = float(chip.total_cores)
        self._chip_max_degree = chip.max_sprinting_degree
        self._chip_max_eps = self._chip_max_degree + 1e-9
        self._fixed_per_server = server.non_cpu_power_w + chip.idle_chip_power_w
        self._per_degree_w = chip.core_power_w * chip.normal_cores

        # --- throughput quadratic --------------------------------------
        tp = cluster.throughput
        self._cluster = cluster
        self._throughput = tp
        self._tp_max_degree = tp.max_degree
        self._tp_max_eps = tp.max_degree + 1e-9
        gain = tp.max_capacity - 1.0
        span = tp.max_degree - 1.0
        self._tp_b = 2.0 * gain / span
        self._tp_c = gain / (span * span)

        # --- power topology --------------------------------------------
        self._topology = topology
        self._n_pdus = topology.n_pdus
        self._pdu = topology.pdu
        self._pdu_breaker = topology.pdu.breaker
        self._dc_breaker = topology.dc_breaker
        self._pdu_consts = _BreakerConsts(topology.pdu.breaker)
        self._dc_consts = _BreakerConsts(topology.dc_breaker)
        fleet = topology.pdu.ups
        self._n_batteries = fleet.n_batteries
        self._battery = fleet.battery
        self._voltage_v = fleet.battery.voltage_v
        self._efficiency = fleet.battery.efficiency

        # --- cooling plant ---------------------------------------------
        self._cooling = cooling
        self._chiller = cooling.chiller
        self._overhead = cooling.chiller.pue - 1.0
        self._chiller_share = cooling.chiller.chiller_share
        self._aux_share = 1.0 - cooling.chiller.chiller_share
        self._tes_saving = self._overhead * cooling.chiller.chiller_share
        self._tes = cooling.tes
        room = cooling.room
        self._room = room
        self._room_hc = room.heat_capacity_j_per_k
        self._setpoint = room.setpoint_c
        self._threshold = room.threshold_c
        self._room_tau = room.recovery_tau_s

    # ------------------------------------------------------------------
    # Cluster arithmetic (inlined ServerCluster / ChipModel / Throughput)
    # ------------------------------------------------------------------
    def _degree_for_power(self, fleet_power_w: float) -> float:
        if not fleet_power_w >= 0.0:
            require_non_negative(fleet_power_w, "fleet_power_w")
        per_server = fleet_power_w / self._n_servers
        degree = (per_server - self._fixed_per_server) / self._per_degree_w
        return max(0.0, min(degree, self._chip_max_degree))

    def _capacity_at_degree(self, degree: float) -> float:
        if not degree >= 0.0:
            require_non_negative(degree, "degree")
        if degree > self._tp_max_eps:
            raise ConfigurationError(
                f"degree {degree!r} exceeds max_degree {self._tp_max_degree!r}"
            )
        if degree <= 1.0:
            return degree
        x = degree - 1.0
        return 1.0 + self._tp_b * x - self._tp_c * x * x

    # ------------------------------------------------------------------
    # Breaker arithmetic (inlined CircuitBreaker / TripCurve)
    # ------------------------------------------------------------------
    @staticmethod
    def _breaker_step(
        breaker: CircuitBreaker, c: _BreakerConsts, load_w: float, dt_s: float
    ) -> None:
        if breaker.tripped:
            if load_w > 0.0:
                raise BreakerTrippedError(breaker.name, breaker.tripped_at_s)
            breaker._time_s += dt_s
            return
        rated = breaker.rated_power_w
        o = load_w / rated - 1.0
        if o < 0.0:
            o = 0.0
        if o <= c.hold_hi:
            # Hold region: at/above rated is equilibrium, below rating cools.
            if load_w < rated:
                breaker.trip_fraction *= math.exp(-dt_s / c.cooldown_tau)
            breaker._time_s += dt_s
            return
        if 1.0 + o >= c.inst_mult:
            trip_time = c.inst_time
        else:
            trip_time = c.K / (o * o)
        budget_left = 1.0 - breaker.trip_fraction
        time_to_trip = budget_left * trip_time
        if time_to_trip <= dt_s:
            breaker.trip_fraction = 1.0
            breaker.tripped = True
            breaker.tripped_at_s = breaker._time_s + time_to_trip
            breaker._time_s += dt_s
            raise BreakerTrippedError(breaker.name, breaker.tripped_at_s)
        breaker.trip_fraction += dt_s / trip_time
        breaker._time_s += dt_s

    @staticmethod
    def _cb_deliverable(
        breaker: CircuitBreaker,
        c: _BreakerConsts,
        horizon_s: float,
        reserve_s: float,
    ) -> float:
        if breaker.tripped:
            return 0.0
        head = 1.0 - breaker.trip_fraction
        if head <= 0.0:
            return 0.0
        t = (horizon_s + reserve_s) / head
        if t <= c.inst_time:
            o_star = c.inst_o
        else:
            o_star = math.sqrt(c.K / t)
            if c.hold_lo > o_star:
                o_star = c.hold_lo
            if c.inst_cap < o_star:
                o_star = c.inst_cap
        if o_star <= c.hold_p12:
            return breaker.rated_power_w * c.hold * horizon_s
        if o_star <= c.hold_hi:
            trip_time = math.inf
        elif 1.0 + o_star >= c.inst_mult:
            trip_time = c.inst_time
        else:
            trip_time = c.K / (o_star * o_star)
        run_time = head * trip_time - reserve_s
        if not run_time < horizon_s:
            run_time = horizon_s
        if not run_time > 0.0:
            run_time = 0.0
        return breaker.rated_power_w * o_star * run_time

    # ------------------------------------------------------------------
    # Budget (inlined EnergyBudget)
    # ------------------------------------------------------------------
    def _remaining_j(self, budget: EnergyBudget) -> float:
        ups_e = (self._battery.energy_j * self._n_batteries) * self._n_pdus
        tes = self._tes
        tes_e = 0.0 if tes is None else tes.energy_j * self._tes_saving
        horizon = budget.horizon_s
        reserve = budget.reserve_s
        pdu_total = (
            self._cb_deliverable(self._pdu_breaker, self._pdu_consts, horizon, reserve)
            * self._n_pdus
        )
        dc_total = self._cb_deliverable(
            self._dc_breaker, self._dc_consts, horizon, reserve
        )
        return ups_e + tes_e + (dc_total if dc_total < pdu_total else pdu_total)

    # ------------------------------------------------------------------
    # Cooling (inlined CoolingPlant / ChillerPlant / TesTank / Room)
    # ------------------------------------------------------------------
    def _tes_absorb(self, heat_w: float, dt_s: float) -> None:
        tes = self._tes
        if heat_w > tes.max_discharge_w * (1.0 + 1e-9):
            raise TankDepletedError(
                f"requested {heat_w:.0f} W exceeds the tank's "
                f"{tes.max_discharge_w:.0f} W absorption limit"
            )
        needed = heat_w * dt_s
        if needed > tes.energy_j + 1e-6:
            raise TankDepletedError(
                f"requested {needed:.0f} J but only {tes.energy_j:.0f} J stored"
            )
        energy = tes.energy_j - needed
        tes.energy_j = energy if energy > 0.0 else 0.0
        tes.total_absorbed_j += needed

    # ------------------------------------------------------------------
    # Controller internals (inlined _fit_thermal)
    # ------------------------------------------------------------------
    def _fit_thermal(
        self,
        ctrl: SprintingController,
        degree: float,
        use_tes: bool,
        time_s: float,
    ) -> Tuple[float, bool]:
        # The step body calls this only once the room's headroom is at or
        # below the thermal margin (it tests the margin inline).
        removal = self._chiller.rated_removal_w
        tes = self._tes
        if tes is not None and not tes.energy_j <= 1e-9:
            use_tes = True
            removal += tes.max_discharge_w
        safe_degree = self._degree_for_power(removal)
        if safe_degree < degree:
            ctrl.safety.thermal_degree_is_safe(ctrl.cooling, use_tes, time_s)
            degree = min(degree, max(1.0, safe_degree))
        return degree, use_tes

    # ------------------------------------------------------------------
    # The control loop: one step body for every scalar run
    # ------------------------------------------------------------------
    def run_trace(
        self, ctrl: SprintingController, trace: Trace, start_index: int = 0
    ) -> None:
        """Run ``trace``'s samples as steps ``start_index``, ``start_index + 1``, ...

        One *segment*: sample ``j`` runs as step ``i = start_index + j`` at
        ``time_s = i * trace.dt_s``, bit-identical to driving the reference
        :meth:`SprintingController._step_reference` sample by sample — the
        same floating-point sequence, the same telemetry, the same
        exceptions at the same step.  A segment that raises leaves the
        steps before the failing one committed (history rows, substrate,
        accumulators) and the failing step's row unwritten, exactly like
        the per-sample loop; the caller reads the failing index as
        ``start_index`` plus the rows the segment wrote.  Splitting a trace
        into consecutive segments is therefore invisible in the results,
        which is what lets fault injection, forked searches and MPC
        rollouts run through here.

        The timestamps, demands and needed degrees are computed as arrays
        once per segment and handed to the step body as lists of Python
        numbers.  Each element equals its scalar form: an index below 2**53
        converts to a float exactly, so ``arange * dt_s`` is the same
        multiply as ``i * dt_s``, and ``degrees_for_capacities`` equals
        ``degree_for_capacity`` bit for bit.
        """
        samples = trace.samples
        steps = np.arange(start_index, start_index + samples.size)
        self._run(
            ctrl,
            start_index,
            (steps * trace.dt_s).tolist(),
            samples.tolist(),
            self._throughput.degrees_for_capacities(samples).tolist(),
        )

    def run_sample(
        self,
        ctrl: SprintingController,
        demand: float,
        time_s: float,
        step_index: int,
    ) -> ControlStep:
        """One control period at an explicit ``time_s``: a one-sample segment.

        Runs the same body as :meth:`run_trace` and returns the committed
        step's telemetry.
        """
        require_non_negative(demand, "demand")
        require_non_negative(time_s, "time_s")
        return self._run(
            ctrl,
            step_index,
            [time_s],
            [demand],
            [self._throughput.degree_for_capacity(demand)],
        )

    def _run(
        self,
        ctrl: SprintingController,
        start_index: int,
        times: List[float],
        demands: List[float],
        degrees: List[float],
    ) -> ControlStep:
        """The step body: one segment of at least one sample.  Sample ``j``
        runs as step ``start_index + j`` at ``times[j]``, with demand
        ``demands[j]`` and needed degree ``degrees[j]``; the last step's
        ``ControlStep`` is returned.  Each step does only the work that can
        change its result:

        * constant-bound strategies skip the observation and the budget
          fraction: they never read it, and it feeds no stored state;
        * out of a burst (no budget snapshot) the budget fraction is
          EB/EB, which is exactly 1.0 whenever the UPS holds charge, so
          ``_remaining_j``'s trip-curve solve runs there only on an empty
          battery;
        * one power fit prices each degree (IT power, then the cooling
          split) and the commit reuses the last pricing; the thermal fit
          runs only once the room's headroom reaches the margin;
        * every value a step cannot change is read once per segment: the
          ratings and limits only a fault event mutates (events land
          between segments; an MPC plan restores what it forks), the
          detector, recharge and PCM parameters, the PCM chip's products
          and the breakers' and the room's decay factors; state (trip
          fractions, charges, temperatures, the PCM's melt and latch, the
          detector's flags) stays live;
        * a breaker in its hold region is updated inline, and no step
          calls the ``min``/``max`` builtins (see the module docstring
          for the exact conditional forms);
        * the admission integrals, phase energies, time-in-phase and
          current phase live in locals and are written back in the
          ``finally`` (also when a step raises): every per-step add still
          happens in the reference order, so the values are bit-identical
          at every segment boundary (see :class:`SprintingStrategy` for
          the contract this relies on);
        * telemetry rows are written straight into the ``StepLog`` columns,
          through memoryviews taken once per segment after
          ``history.reserve`` (a float store through a memoryview skips
          numpy's scalar conversion) and released in the ``finally``,
          instead of materialising a frozen ``ControlStep`` per step: only
          the last step's is built, as the return value.  The reserve
          covers every row of the segment, so the columns are never
          reallocated under the views.

        Fault events only ever land between two segments: the engine ends
        each segment at the next fault boundary.
        """
        settings = ctrl.settings
        dt = settings.dt_s
        battery = self._battery
        n_pdus = self._n_pdus
        n_batteries = self._n_batteries
        detector = ctrl.detector
        budget = ctrl.budget
        strategy = ctrl.strategy
        admission = ctrl.admission
        phases = ctrl.phases
        safety = ctrl.safety
        pcm = ctrl.pcm
        tes = self._tes
        room = self._room
        history = ctrl.history
        reserve = settings.reserve_trip_time_s
        thermal_margin = settings.thermal_margin_k
        tes_activation = ctrl.tes_activation_s
        voltage = self._voltage_v
        max_degree = self._tp_max_degree
        pdu_breaker = self._pdu_breaker
        dc_breaker = self._dc_breaker
        pdu_c = self._pdu_consts
        dc_c = self._dc_consts
        overhead = self._overhead
        aux_share = self._aux_share
        setpoint = self._setpoint
        room_hc = self._room_hc
        room_tau = self._room_tau
        threshold = self._threshold
        efficiency = self._efficiency
        n_servers = self._n_servers
        normal_cores = self._normal_cores
        total_cores_f = self._total_cores_f
        core_power_w = self._core_power_w
        idle_chip_power_w = self._idle_chip_power_w
        non_cpu_power_w = self._non_cpu_power_w
        chip_max_eps = self._chip_max_eps

        # Segment constants (see the module docstring): what only a fault
        # event can change, and what no run changes, read once with
        # exactly the reference's op order.  The decay factors depend only
        # on ``dt`` and frozen time constants: the same expressions the
        # reference evaluates every step.
        detector_capacity = detector.capacity
        hold_off_s = detector.hold_off_s
        recharge_when_idle = settings.recharge_when_idle
        max_recharge_fraction = settings.max_recharge_fraction
        pdu_rated = pdu_breaker.rated_power_w
        pdu_rated_total = pdu_rated * n_pdus
        dc_rated = dc_breaker.rated_power_w
        chiller_removal = self._chiller.rated_removal_w
        max_discharge_w = battery.max_discharge_power_w
        tes_max_discharge_w = 0.0 if tes is None else tes.max_discharge_w
        battery_capacity_j = battery.capacity_ah * voltage * SECONDS_PER_HOUR
        ups_floor_total = settings.ups_outage_reserve_fraction * (
            (battery.capacity_ah * voltage * SECONDS_PER_HOUR * n_batteries)
            * n_pdus
        )
        ups_floor_per_pdu = ups_floor_total / n_pdus
        per_floor_j = ups_floor_per_pdu / n_batteries
        if pcm is not None:
            pcm_chip = pcm.chip
            pcm_latent_j = pcm.latent_budget_j
            pcm_full_j = pcm_latent_j * (1.0 - 1e-12)
            pcm_refreeze_j = pcm.refreeze_power_w * dt
            pcm_idle_w = pcm_chip.idle_chip_power_w
            pcm_core_w = pcm_chip.core_power_w
            pcm_normal_cores = pcm_chip.normal_cores
            pcm_per_degree = pcm_core_w * pcm_normal_cores
            pcm_chip_max = pcm_chip.total_cores / pcm_normal_cores
            pcm_chip_max_eps = pcm_chip_max + 1e-9
            pcm_total_cores_f = float(pcm_chip.total_cores)
            pcm_normal_w = pcm_idle_w + (pcm_core_w * pcm_normal_cores * 1.0)
        pdu_hold_hi = pdu_c.hold_hi
        dc_hold_hi = dc_c.hold_hi
        pdu_cool = math.exp(-dt / pdu_c.cooldown_tau)
        dc_cool = math.exp(-dt / dc_c.cooldown_tau)
        room_decay = 1.0 - 2.718281828459045 ** (-dt / room_tau)

        const_bound = strategy.bound_if_constant(max_degree)
        # The base notify_realized is a documented no-op; skipping the
        # call cannot change any state.
        notify_is_real = (
            type(strategy).notify_realized
            is not SprintingStrategy.notify_realized
        )

        # Memoryviews of the columns, taken after the reserve so no row of
        # this segment reallocates under them.
        history.reserve(len(history) + len(times))
        cols = history._cols
        col_time = memoryview(cols["time_s"])
        col_demand = memoryview(cols["demand"])
        col_upper = memoryview(cols["upper_bound"])
        col_degree = memoryview(cols["degree"])
        col_capacity = memoryview(cols["capacity"])
        col_served = memoryview(cols["served"])
        col_dropped = memoryview(cols["dropped"])
        col_it = memoryview(cols["it_power_w"])
        col_grid = memoryview(cols["grid_w"])
        col_ups = memoryview(cols["ups_w"])
        col_cb = memoryview(cols["cb_overload_w"])
        col_tes_heat = memoryview(cols["tes_heat_w"])
        col_tes_saved = memoryview(cols["tes_electric_saved_w"])
        col_cooling = memoryview(cols["cooling_electric_w"])
        col_room = memoryview(cols["room_temperature_c"])
        col_bound = memoryview(cols["pdu_grid_bound_w"])
        col_phase = memoryview(history._phase)
        col_burst = memoryview(history._in_burst)
        views = (
            col_time, col_demand, col_upper, col_degree, col_capacity,
            col_served, col_dropped, col_it, col_grid, col_ups, col_cb,
            col_tes_heat, col_tes_saved, col_cooling, col_room, col_bound,
            col_phase, col_burst,
        )
        row = history._n

        # Deferred accumulators, seeded with the live values so
        # consecutive segments keep accumulating.
        served_acc = admission.served_integral
        dropped_acc = admission.dropped_integral
        demand_acc = admission.demand_integral
        cb_acc = phases.cb_overload_energy_j
        ups_acc = phases.ups_energy_j
        tes_acc = phases.tes_electric_energy_j
        tip = phases.time_in_phase_s
        tip_idle = tip[_IDLE]
        tip_p1 = tip[_PHASE1]
        tip_p2 = tip[_PHASE2]
        tip_p3 = tip[_PHASE3]
        last_phase = phases.current_phase
        i = start_index
        try:
            for time_s, demand, needed in zip(times, demands, degrees):
                demand_dt = demand * dt

                # --- burst detector (inlined OnlineBurstDetector.observe)
                if demand > detector_capacity:
                    if not detector.in_burst:
                        detector.in_burst = True
                        detector.burst_started_at_s = time_s
                    detector._below_since_s = None
                elif detector.in_burst:
                    if detector._below_since_s is None:
                        detector._below_since_s = time_s
                    if time_s - detector._below_since_s >= hold_off_s:
                        detector.in_burst = False
                        detector._below_since_s = None
                in_burst = detector.in_burst

                # --- burst edges (snapshot / clear the energy budget) ----
                if in_burst and not ctrl._burst_was_active:
                    total_j = self._remaining_j(budget)
                    budget._snapshot_total_j = total_j
                    set_scale = getattr(strategy, "set_budget_scale", None)
                    if callable(set_scale):
                        set_scale(total_j)
                elif not in_burst and ctrl._burst_was_active:
                    budget._snapshot_total_j = None
                ctrl._burst_was_active = in_burst

                # --- time in burst ---------------------------------------
                started = detector.burst_started_at_s
                if not in_burst or started is None:
                    time_in_burst = 0.0
                else:
                    time_in_burst = time_s - started
                    if not time_in_burst > 0.0:
                        time_in_burst = 0.0

                # --- strategy bound (constant bounds skip the observation)
                if const_bound is None:
                    snap = budget._snapshot_total_j
                    if snap is None:
                        # No burst snapshot: the fraction is EB/EB, 1.0
                        # unless EB <= 0 (a NaN or infinite EB clamps to
                        # 1.0 too).  The UPS term alone makes EB > 0
                        # while the battery holds charge (the TES and
                        # breaker terms are never negative), so the
                        # trip curves are solved only on an empty one.
                        if (
                            battery.energy_j > 0.0
                            or not self._remaining_j(budget) <= 0.0
                        ):
                            budget_fraction = 1.0
                        else:
                            budget_fraction = 0.0
                    else:
                        if snap <= 0.0:
                            budget_fraction = 0.0
                        else:
                            budget_fraction = self._remaining_j(budget) / snap
                            if not budget_fraction < 1.0:
                                budget_fraction = 1.0
                            if not budget_fraction > 0.0:
                                budget_fraction = 0.0
                    obs = StrategyObservation(
                        time_s=time_s,
                        demand=demand,
                        in_burst=in_burst,
                        time_in_burst_s=time_in_burst,
                        budget_fraction_remaining=budget_fraction,
                        max_degree=max_degree,
                        step_index=i,
                    )
                    upper_bound = strategy.degree_upper_bound(obs)
                else:
                    upper_bound = const_bound

                ctrl.last_needed_degree = needed
                degree = upper_bound if upper_bound < needed else needed
                if safety._emergency_latched and 1.0 < degree:
                    degree = 1.0
                if pcm is not None:
                    melted = pcm.melted_j
                    if melted >= pcm_full_j or pcm._latched:
                        if 1.0 < degree:
                            degree = 1.0
                    else:
                        remaining_j = pcm_latent_j - melted
                        if remaining_j <= 0.0:
                            sustainable = 1.0
                        else:
                            sustainable = (
                                1.0 + (remaining_j / dt) / pcm_per_degree
                            )
                            if pcm_chip_max < sustainable:
                                sustainable = pcm_chip_max
                        if sustainable < degree:
                            degree = sustainable

                use_tes = (
                    in_burst
                    and tes is not None
                    and not tes.energy_j <= 1e-9
                    and time_in_burst >= tes_activation
                    and degree > _SPRINT_THRESHOLD
                )

                # --- power and thermal fit (inlined _fit_power, the
                # cooling split and max_load_for_trip_time) -------------
                # Each pass prices the degree (IT power, then the cooling
                # split) and checks it against what the breakers and the
                # UPS can source; a failed check shrinks the degree.  The
                # reference commits at the degree its three checks leave,
                # so after three failures a fourth pass only prices the
                # shrunken degree.  The commit reuses the last pricing;
                # pdu_bound is the last checked pass's.  Once the fit is
                # done the thermal fit may move the operating point, and
                # then the fit runs once more.  When it does not, the
                # reference's second fit would re-run with bit-identical
                # arguments against unmutated substrate (``_fit_thermal``
                # only ever records a safety event, which the fit never
                # reads), so it is skipped.
                checks = 0
                thermal_pending = True
                while True:
                    if 0.0 <= degree <= chip_max_eps:
                        active = degree * normal_cores
                        if total_cores_f < active:
                            active = total_cores_f
                        it_power = n_servers * (
                            non_cpu_power_w
                            + (idle_chip_power_w + core_power_w * active)
                        )
                    else:
                        # Out of range: the substrate method raises.
                        it_power = self._cluster.power_at_degree_w(degree)
                    heat_via_tes = 0.0
                    if use_tes and tes is not None:
                        energy = tes.energy_j
                        avail = 0.0 if energy <= 1e-9 else tes_max_discharge_w
                        heat_via_tes = avail if avail < it_power else it_power
                        rate = energy / dt
                        if rate < heat_via_tes:
                            heat_via_tes = rate
                        if not heat_via_tes > 0.0:
                            heat_via_tes = 0.0
                    excess_k = room.temperature_c - setpoint
                    if excess_k <= 0.0:
                        recovery = 0.0
                    else:
                        recovery = room_hc * excess_k / room_tau
                    heat_via_chiller = (it_power - heat_via_tes) + recovery
                    if chiller_removal < heat_via_chiller:
                        heat_via_chiller = chiller_removal
                    cooling_electric = overhead * (
                        heat_via_chiller + aux_share * heat_via_tes
                    )
                    if checks < 3:
                        if pdu_breaker.tripped:
                            own = 0.0
                        else:
                            head = 1.0 - pdu_breaker.trip_fraction
                            if head <= 0.0:
                                own = math.nextafter(pdu_rated, 0.0)
                            else:
                                t = reserve / head
                                if t <= pdu_c.inst_time:
                                    o = pdu_c.inst_o
                                else:
                                    o = math.sqrt(pdu_c.K / t)
                                    if o < pdu_c.hold_lo:
                                        o = pdu_c.hold_lo
                                    if o > pdu_c.inst_cap:
                                        o = pdu_c.inst_cap
                                own = pdu_rated * (1.0 + o)
                        if dc_breaker.tripped:
                            parent_total = 0.0
                        else:
                            head = 1.0 - dc_breaker.trip_fraction
                            if head <= 0.0:
                                parent_total = math.nextafter(dc_rated, 0.0)
                            else:
                                t = reserve / head
                                if t <= dc_c.inst_time:
                                    o = dc_c.inst_o
                                else:
                                    o = math.sqrt(dc_c.K / t)
                                    if o < dc_c.hold_lo:
                                        o = dc_c.hold_lo
                                    if o > dc_c.inst_cap:
                                        o = dc_c.inst_cap
                                parent_total = dc_rated * (1.0 + o)
                        parent_share = parent_total - cooling_electric
                        parent_share = (
                            parent_share if parent_share > 0.0 else 0.0
                        ) / n_pdus
                        pdu_bound = parent_share if parent_share < own else own
                        usable_j = (
                            battery.energy_j * n_batteries - ups_floor_per_pdu
                        )
                        if not usable_j > 0.0:
                            usable_j = 0.0
                        if battery.energy_j <= 1e-9:
                            avail_w = 0.0 * n_batteries
                        else:
                            avail_w = max_discharge_w * n_batteries
                        usable_w = usable_j / dt
                        ups_power = usable_w if usable_w < avail_w else avail_w
                        available = (pdu_bound + ups_power) * n_pdus
                        if not it_power <= available * (1.0 + 1e-12):
                            shrunk = self._degree_for_power(available)
                            if shrunk < degree:
                                degree = shrunk
                            checks += 1
                            continue
                    if not thermal_pending:
                        break
                    thermal_pending = False
                    if threshold - room.temperature_c > thermal_margin:
                        break
                    t_degree, t_use_tes = self._fit_thermal(
                        ctrl, degree, use_tes, time_s
                    )
                    if t_degree == degree and t_use_tes == use_tes:
                        break
                    degree = t_degree
                    use_tes = t_use_tes
                    checks = 0

                # --- commit (inlined SprintingController._commit) --------
                if heat_via_tes > 0.0:
                    self._tes_absorb(heat_via_tes, dt)
                # --- inlined Room.step (the TES draw leaves the room
                # temperature, so the fit's excess_k still holds) -------
                gap_w = it_power - (heat_via_chiller + heat_via_tes)
                if gap_w >= 0.0:
                    room.temperature_c += gap_w * dt / room_hc
                elif excess_k > 0.0:
                    cooling_capacity_k = -gap_w * dt / room_hc
                    drop_k = excess_k * room_decay
                    room.temperature_c -= (
                        cooling_capacity_k
                        if cooling_capacity_k < drop_k
                        else drop_k
                    )
                temperature = room.temperature_c
                if temperature > room.peak_temperature_c:
                    room.peak_temperature_c = temperature
                if temperature >= threshold:
                    raise ThermalEmergencyError(temperature, threshold)

                recharge_w = 0.0
                if recharge_when_idle and not in_burst:
                    capacity_j = battery_capacity_j
                    if battery.energy_j / capacity_j < 1.0:
                        per_pdu_load = it_power / n_pdus
                        spare = pdu_rated - per_pdu_load
                        if not spare > 0.0:
                            spare = 0.0
                        recharge_w = spare * max_recharge_fraction
                        if recharge_w > 0.0:
                            facility_w = recharge_w * n_pdus
                            per_battery_w = (facility_w / n_pdus) / n_batteries
                            stored = per_battery_w * dt * efficiency
                            headroom = capacity_j - battery.energy_j
                            if stored > headroom:
                                stored = headroom
                            battery.energy_j += stored

                # --- power topology (inlined PowerTopology.step / Pdu) ---
                server_demand = it_power + recharge_w * n_pdus
                grid_bound = pdu_bound + recharge_w
                per_pdu_demand = server_demand / n_pdus
                grid_w = (
                    grid_bound
                    if grid_bound < per_pdu_demand
                    else per_pdu_demand
                )
                shortfall_w = per_pdu_demand - grid_w
                ups_w = 0.0
                if shortfall_w > 0.0:
                    usable_j = battery.energy_j - per_floor_j
                    if not usable_j > 0.0:
                        usable_j = 0.0
                    deliverable = shortfall_w / n_batteries
                    if max_discharge_w < deliverable:
                        deliverable = max_discharge_w
                    usable_w = usable_j / dt
                    if usable_w < deliverable:
                        deliverable = usable_w
                    # The reference's clamp at 0.0 is folded into the
                    # test: a draw that is not positive leaves ups_w 0.0.
                    if deliverable > 0.0:
                        drawn_j = deliverable * dt
                        energy = battery.energy_j - drawn_j
                        battery.energy_j = energy if energy > 0.0 else 0.0
                        battery.total_discharged_j += drawn_j
                        battery.equivalent_full_cycles += (
                            drawn_j / battery_capacity_j
                        )
                        ups_w = deliverable * n_batteries
                deficit_per_pdu = per_pdu_demand - grid_w - ups_w
                if not deficit_per_pdu > 0.0:
                    deficit_per_pdu = 0.0
                # Breakers: the hold region (not tripped, load within
                # hold_hi of the rating; a NaN ratio fails the test)
                # inlined from _breaker_step, which keeps the tripped
                # and overload branches.  A negative overload, which
                # _breaker_step clamps to 0, passes the test either way:
                # hold_hi is never negative.
                if (
                    not pdu_breaker.tripped
                    and grid_w / pdu_rated - 1.0 <= pdu_hold_hi
                ):
                    if grid_w < pdu_rated:
                        pdu_breaker.trip_fraction *= pdu_cool
                    pdu_breaker._time_s += dt
                else:
                    self._breaker_step(pdu_breaker, pdu_c, grid_w, dt)
                pdu_grid_total = grid_w * n_pdus
                ups_total = ups_w * n_pdus
                deficit_total = deficit_per_pdu * n_pdus
                dc_feed = pdu_grid_total + cooling_electric
                if (
                    not dc_breaker.tripped
                    and dc_feed / dc_rated - 1.0 <= dc_hold_hi
                ):
                    if dc_feed < dc_rated:
                        dc_breaker.trip_fraction *= dc_cool
                    dc_breaker._time_s += dt
                else:
                    self._breaker_step(dc_breaker, dc_c, dc_feed, dt)

                # --- admission + telemetry -------------------------------
                effective_power = it_power - deficit_total
                if deficit_total <= 1e-9:
                    effective_degree = degree
                else:
                    effective_degree = self._degree_for_power(effective_power)
                # _capacity_at_degree inlined on its sub-sprint fast path
                # (identity below 1.0); the quadratic keeps the helper.
                if 0.0 <= effective_degree <= 1.0:
                    capacity = effective_degree
                else:
                    capacity = self._capacity_at_degree(effective_degree)

                served = capacity if capacity < demand else demand
                dropped = demand - served

                pdu_overload_w = pdu_grid_total - pdu_rated_total
                if not pdu_overload_w > 0.0:
                    pdu_overload_w = 0.0
                dc_overload_w = dc_feed - dc_rated
                if not dc_overload_w > 0.0:
                    dc_overload_w = 0.0
                cb_overload_w = (
                    dc_overload_w
                    if dc_overload_w > pdu_overload_w
                    else pdu_overload_w
                )
                electric_without_tes = overhead * (
                    chiller_removal if chiller_removal < it_power else it_power
                )
                tes_saved_w = electric_without_tes - cooling_electric
                if not tes_saved_w > 0.0:
                    tes_saved_w = 0.0

                # The accumulator adds: independent sums, so their order
                # against each other leaves every value unchanged.
                sprinting = effective_degree > _SPRINT_THRESHOLD
                if not sprinting:
                    phase = _IDLE
                    phase_code = _CODE_IDLE
                    tip_idle += dt
                elif heat_via_tes > _ACTIVE_POWER_EPS_W:
                    phase = _PHASE3
                    phase_code = _CODE_PHASE3
                    tip_p3 += dt
                elif ups_total > _ACTIVE_POWER_EPS_W:
                    phase = _PHASE2
                    phase_code = _CODE_PHASE2
                    tip_p2 += dt
                else:
                    phase = _PHASE1
                    phase_code = _CODE_PHASE1
                    tip_p1 += dt
                last_phase = phase
                served_acc += served * dt
                dropped_acc += dropped * dt
                demand_acc += demand_dt
                cb_acc += (cb_overload_w if sprinting else 0.0) * dt
                ups_acc += ups_total * dt
                tes_acc += tes_saved_w * dt

                # --- telemetry row (direct StepLog column writes) --------
                col_time[row] = time_s
                col_demand[row] = demand
                col_upper[row] = upper_bound
                col_degree[row] = effective_degree
                col_capacity[row] = capacity
                col_served[row] = served
                col_dropped[row] = dropped
                col_it[row] = effective_power
                col_grid[row] = pdu_grid_total
                col_ups[row] = ups_total
                col_cb[row] = cb_overload_w
                col_tes_heat[row] = heat_via_tes
                col_tes_saved[row] = tes_saved_w
                col_cooling[row] = cooling_electric
                col_room[row] = room.temperature_c
                col_bound[row] = pdu_bound
                col_phase[row] = phase_code
                col_burst[row] = in_burst

                # --- chip-level PCM (inlined PcmHeatSink.step) -----------
                if pcm is not None:
                    d = effective_degree
                    if not d >= 0.0:
                        require_non_negative(d, "degree")
                    if d > pcm_chip_max_eps:
                        raise ConfigurationError(
                            f"degree {d!r} exceeds the chip maximum "
                            f"{pcm_chip_max!r}"
                        )
                    active = d * pcm_normal_cores
                    if pcm_total_cores_f < active:
                        active = pcm_total_cores_f
                    # The clamp at 0.0 is folded into the melt test.
                    excess = (pcm_idle_w + pcm_core_w * active) - pcm_normal_w
                    if excess > 0.0:
                        melted = pcm.melted_j + excess * dt
                        if not melted < pcm_latent_j:
                            melted = pcm_latent_j
                        pcm.melted_j = melted
                        if melted >= pcm_full_j:
                            pcm._latched = True
                    else:
                        melted = pcm.melted_j - pcm_refreeze_j
                        if not melted > 0.0:
                            melted = 0.0
                        pcm.melted_j = melted
                        if melted == 0.0:
                            pcm._latched = False

                if notify_is_real:
                    strategy.notify_realized(effective_degree, dt, in_burst)
                row += 1
                history._n = row
                i += 1

            return self._ControlStep(
                time_s=time_s,
                demand=demand,
                upper_bound=upper_bound,
                degree=effective_degree,
                capacity=capacity,
                served=served,
                dropped=dropped,
                phase=phase,
                in_burst=in_burst,
                it_power_w=effective_power,
                grid_w=pdu_grid_total,
                ups_w=ups_total,
                cb_overload_w=cb_overload_w,
                tes_heat_w=heat_via_tes,
                tes_electric_saved_w=tes_saved_w,
                cooling_electric_w=cooling_electric,
                room_temperature_c=room.temperature_c,
                pdu_grid_bound_w=pdu_bound,
            )
        finally:
            for view in views:
                view.release()
            admission.served_integral = served_acc
            admission.dropped_integral = dropped_acc
            admission.demand_integral = demand_acc
            phases.cb_overload_energy_j = cb_acc
            phases.ups_energy_j = ups_acc
            phases.tes_electric_energy_j = tes_acc
            # Read the dict again: an MPC plan's FacilityState.restore,
            # called inside the strategy mid-segment, replaces it.
            tip = phases.time_in_phase_s
            tip[_IDLE] = tip_idle
            tip[_PHASE1] = tip_p1
            tip[_PHASE2] = tip_p2
            tip[_PHASE3] = tip_p3
            phases.current_phase = last_phase
