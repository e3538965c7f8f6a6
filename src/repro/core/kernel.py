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
body, ``StepKernel._run``, behind both :meth:`StepKernel.run_trace` (a
segment of a trace) and :meth:`StepKernel.run_sample` (a single control
period, run as a one-sample segment).

What may NOT be hoisted past a segment is anything fault injection can
mutate: breaker ``rated_power_w``/trip state, battery ``capacity_ah``/
``max_discharge_power_w``/charge, chiller ``rated_removal_w``, TES
``max_discharge_w``/charge, and the room temperature.  The engine applies
fault events between segments only, and everything but ``capacity_ah`` is
read live every step anyway.  Strategy and safety-monitor calls are kept as
method calls because they carry side effects (plan state, safety events).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Tuple

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

#: Longest steady-cycle period the span engine can detect.  The ring of
#: candidate signatures is capped here, so a k-step cycle with k above the
#: cap is simply never fast-forwarded (stepped normally — still correct).
_RING_MAX = 32

#: Consecutive eligible steps without a signature match before cycle
#: detection gives up for the rest of the streak.  Bounds the bookkeeping
#: overhead on long constant spans that never reach a periodic state
#: (e.g. a breaker slowly accumulating trip fraction under sprint load).
_RING_MISS_BUDGET = 128

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


class _SpanEntry:
    """One eligible step of a constant-demand span, cached for cycle replay.

    Holds the post-step quiescent signature (identity of the mutable state)
    plus everything a bulk replay of this step needs: the materialised
    telemetry row and the per-step accumulator increments, each precomputed
    with exactly the multiply the reference performs so the replay's adds
    are bit-identical.
    """

    __slots__ = (
        "sig_hash",
        "sig",
        "step",
        "served_dt",
        "dropped_dt",
        "cb_dt",
        "ups_dt",
        "tes_dt",
        "phase",
        "degree",
        "in_burst",
    )

    def __init__(
        self,
        sig_hash: int,
        sig: Tuple[object, ...],
        step: ControlStep,
        served_dt: float,
        dropped_dt: float,
        cb_dt: float,
        ups_dt: float,
        tes_dt: float,
        phase: SprintPhase,
        degree: float,
        in_burst: bool,
    ) -> None:
        self.sig_hash = sig_hash
        self.sig = sig
        self.step = step
        self.served_dt = served_dt
        self.dropped_dt = dropped_dt
        self.cb_dt = cb_dt
        self.ups_dt = ups_dt
        self.tes_dt = tes_dt
        self.phase = phase
        self.degree = degree
        self.in_burst = in_burst


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
        self._tp_max_capacity = tp.max_capacity
        self._tp_max_degree = tp.max_degree
        self._tp_max_eps = tp.max_degree + 1e-9
        gain = tp.max_capacity - 1.0
        span = tp.max_degree - 1.0
        self._tp_b = 2.0 * gain / span
        self._tp_c = gain / (span * span)
        self._tp_b_sq = self._tp_b * self._tp_b
        self._tp_four_c = 4.0 * self._tp_c
        self._tp_two_c = 2.0 * self._tp_c

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
    def _power_at_degree(self, degree: float) -> float:
        if not degree >= 0.0:
            require_non_negative(degree, "degree")
        if degree > self._chip_max_eps:
            raise ConfigurationError(
                f"degree {degree!r} exceeds the chip maximum "
                f"{self._chip_max_degree!r}"
            )
        active = min(degree * self._normal_cores, self._total_cores_f)
        chip_p = self._idle_chip_power_w + self._core_power_w * active
        return self._n_servers * (self._non_cpu_power_w + chip_p)

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

    def _degree_for_capacity(self, c_val: float) -> float:
        if c_val <= 1.0:
            return c_val
        if c_val >= self._tp_max_capacity:
            return self._tp_max_degree
        discriminant = self._tp_b_sq - self._tp_four_c * (c_val - 1.0)
        x = (self._tp_b - math.sqrt(max(0.0, discriminant))) / self._tp_two_c
        return min(1.0 + x, self._tp_max_degree)

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
            o_star = max(o_star, c.hold_lo)
            o_star = min(o_star, c.inst_cap)
        if o_star <= c.hold_p12:
            return breaker.rated_power_w * c.hold * horizon_s
        if o_star <= c.hold_hi:
            trip_time = math.inf
        elif 1.0 + o_star >= c.inst_mult:
            trip_time = c.inst_time
        else:
            trip_time = c.K / (o_star * o_star)
        run_time = min(horizon_s, head * trip_time - reserve_s)
        run_time = max(0.0, run_time)
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
        return ups_e + tes_e + min(pdu_total, dc_total)

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
        tes.energy_j = max(0.0, tes.energy_j - needed)
        tes.total_absorbed_j += needed

    # ------------------------------------------------------------------
    # Controller internals (inlined _fit_power / _fit_thermal)
    # ------------------------------------------------------------------
    def _fit_power(
        self,
        degree: float,
        use_tes: bool,
        dt: float,
        reserve: float,
        ups_floor_per_pdu_j: float,
    ) -> Tuple[float, float, float]:
        # The step hot path runs this once (twice when thermal intervenes)
        # per control period, so the helper calls of the original loop —
        # power at degree, the cooling split, max_load_for_trip_time — are
        # inlined here with bit-identical op order, and every mutable
        # attribute is read through a hoisted object reference (values are
        # still read fresh each iteration: fault injection mutates them).
        battery = self._battery
        n_batteries = self._n_batteries
        n_pdus = self._n_pdus
        pdu_breaker = self._pdu_breaker
        dc_breaker = self._dc_breaker
        pdu_c = self._pdu_consts
        dc_c = self._dc_consts
        tes = self._tes
        room = self._room
        chiller = self._chiller
        setpoint = self._setpoint
        room_hc = self._room_hc
        room_tau = self._room_tau
        overhead = self._overhead
        aux_share = self._aux_share
        normal_cores = self._normal_cores
        total_cores_f = self._total_cores_f
        chip_max_eps = self._chip_max_eps
        pdu_bound = 0.0
        cooling_w = 0.0
        for _ in range(3):
            # --- inlined _power_at_degree (fast path) -------------------
            # min/max calls on this path are written as conditionals: for
            # non-NaN floats ``a if a <= b else b`` is exactly ``min(a, b)``
            # (both keep the first argument on ties) and ``x if x > 0.0
            # else 0.0`` is exactly ``max(0.0, x)``.
            if 0.0 <= degree <= chip_max_eps:
                active = degree * normal_cores
                if active > total_cores_f:
                    active = total_cores_f
                it_power = self._n_servers * (
                    self._non_cpu_power_w
                    + (self._idle_chip_power_w + self._core_power_w * active)
                )
            else:
                it_power = self._power_at_degree(degree)
            # --- inlined cooling split (CoolingPlant.estimate) ----------
            heat_via_tes = 0.0
            if use_tes and tes is not None:
                energy = tes.energy_j
                avail = 0.0 if energy <= 1e-9 else tes.max_discharge_w
                heat_via_tes = min(it_power, avail, energy / dt)
                heat_via_tes = max(0.0, heat_via_tes)
            remaining = it_power - heat_via_tes
            excess_k = room.temperature_c - setpoint
            if excess_k <= 0.0:
                recovery = 0.0
            else:
                recovery = room_hc * excess_k / room_tau
            heat_via_chiller = remaining + recovery
            if heat_via_chiller > chiller.rated_removal_w:
                heat_via_chiller = chiller.rated_removal_w
            cooling_w = overhead * (
                heat_via_chiller + aux_share * heat_via_tes
            )
            # --- inlined max_load_for_trip_time (both breakers) ---------
            if pdu_breaker.tripped:
                own = 0.0
            else:
                head = 1.0 - pdu_breaker.trip_fraction
                if head <= 0.0:
                    own = math.nextafter(pdu_breaker.rated_power_w, 0.0)
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
                    own = pdu_breaker.rated_power_w * (1.0 + o)
            if dc_breaker.tripped:
                parent_total = 0.0
            else:
                head = 1.0 - dc_breaker.trip_fraction
                if head <= 0.0:
                    parent_total = math.nextafter(
                        dc_breaker.rated_power_w, 0.0
                    )
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
                    parent_total = dc_breaker.rated_power_w * (1.0 + o)
            parent_share = parent_total - cooling_w
            parent_share = (
                parent_share if parent_share > 0.0 else 0.0
            ) / n_pdus
            pdu_bound = own if own <= parent_share else parent_share
            usable_j = battery.energy_j * n_batteries - ups_floor_per_pdu_j
            if usable_j < 0.0:
                usable_j = 0.0
            if battery.energy_j <= 1e-9:
                avail_w = 0.0 * n_batteries
            else:
                avail_w = battery.max_discharge_power_w * n_batteries
            usable_w = usable_j / dt
            ups_power = avail_w if avail_w <= usable_w else usable_w
            available = (pdu_bound + ups_power) * n_pdus
            if it_power <= available * (1.0 + 1e-12):
                break
            degree = min(degree, self._degree_for_power(available))
        return degree, pdu_bound, cooling_w

    def _fit_thermal(
        self,
        ctrl: SprintingController,
        degree: float,
        use_tes: bool,
        time_s: float,
    ) -> Tuple[float, bool]:
        if self._threshold - self._room.temperature_c > ctrl.settings.thermal_margin_k:
            return degree, use_tes
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
    # The control loop: one span-compiled body for every scalar run
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
        """
        self._run(ctrl, trace, start_index, 0.0, 0.0)

    def run_sample(
        self,
        ctrl: SprintingController,
        demand: float,
        time_s: float,
        step_index: int,
    ) -> ControlStep:
        """One control period at an explicit ``time_s``: a one-sample segment.

        Runs the same body as :meth:`run_trace` and returns the committed
        step's telemetry; the span set-up (RLE, cycle detection) is skipped
        because a single sample has nothing to compile or replay.
        """
        require_non_negative(demand, "demand")
        require_non_negative(time_s, "time_s")
        step = self._run(ctrl, None, step_index, demand, time_s)
        assert step is not None
        return step

    def _run(
        self,
        ctrl: SprintingController,
        trace: Optional[Trace],
        start_index: int,
        demand: float,
        time_s: float,
    ) -> Optional[ControlStep]:
        """The step body: a segment of ``trace``, or the one sample
        ``demand`` at ``time_s`` when ``trace`` is None (returning its
        ``ControlStep``).  Per-sample orchestration is compiled out:

        * the segment is run-length-encoded into constant-demand spans, so
          demand handling and span-invariant products are paid per span;
        * constant-bound strategies skip the observation and the budget
          fraction: they never read it, and it feeds no stored state;
        * telemetry rows are written straight into the ``StepLog`` columns
          instead of materialising a frozen ``ControlStep`` per step;
        * within a span, once the post-step quiescent signature repeats
          with period k (k >= 1: idle fixed points, admission pinned at
          the bound, PCM melt/refreeze oscillation, ...), the cached
          k-step cycle is replayed in bulk for the span remainder —
          wall clocks, admission integrals and phase accumulators advance
          with exactly the per-step adds the reference performs, and the
          rows land via :meth:`StepLog.extend_cycle`.

        Cycle detection is conservative: it requires a constant-bound
        strategy and steps with no UPS or TES flow, no safety event, and
        no time dependence (out of burst, or in burst past the burst-exit
        and TES-activation timers), so every skipped step is provably a
        bit-exact repeat.  Anything else — including every field fault
        injection can mutate, via the signature — falls back to normal
        stepping.  Fault events only ever land between two segments: the
        engine ends each segment at the next fault boundary.
        """
        if trace is None:
            n_samples = 1
            trace_dt = 0.0
            bounds = [start_index, start_index + 1]
        else:
            samples = trace.samples
            n_samples = int(samples.size)
            trace_dt = trace.dt_s
            span_starts = np.flatnonzero(samples[1:] != samples[:-1])
            bounds = [start_index]
            bounds.extend((span_starts + (start_index + 1)).tolist())
            bounds.append(start_index + n_samples)
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
        tes_activation = ctrl.tes_activation_s
        voltage = self._voltage_v
        max_degree = self._tp_max_degree
        pdu_breaker = self._pdu_breaker
        dc_breaker = self._dc_breaker
        pdu_consts = self._pdu_consts
        dc_consts = self._dc_consts
        chiller = self._chiller
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

        # Segment-invariant products.  ``capacity_ah`` and the outage
        # reserve are only ever mutated by fault injection, which the
        # engine applies between segments (strategy rollouts that fork the
        # facility restore it bit-for-bit before returning), so the UPS
        # floor and per-battery capacity are computed once per segment with
        # exactly the reference's op order.
        battery_capacity_j = battery.capacity_ah * voltage * SECONDS_PER_HOUR
        ups_floor_total = settings.ups_outage_reserve_fraction * (
            (battery.capacity_ah * voltage * SECONDS_PER_HOUR * n_batteries)
            * n_pdus
        )
        ups_floor_per_pdu = ups_floor_total / n_pdus

        const_bound = strategy.bound_if_constant(max_degree)
        # The base notify_realized is a documented no-op; skipping the
        # call cannot change any state.
        notify_is_real = (
            type(strategy).notify_realized
            is not SprintingStrategy.notify_realized
        )
        # A constant-bound strategy with the no-op notify never observes
        # the controller mid-run.  That enables both the steady-cycle
        # replay and the deferred accumulators below: the admission
        # integrals, phase energies and time-in-phase live in locals for
        # the whole run and are written back (also on exceptions) in the
        # ``finally`` block — every per-step add still happens, in the
        # reference order, so the final values are bit-identical.
        quiet_run = const_bound is not None and not notify_is_real
        cycle_enabled = quiet_run and trace is not None

        history.reserve(len(history) + n_samples)
        cols = history._cols
        col_time = cols["time_s"]
        col_demand = cols["demand"]
        col_upper = cols["upper_bound"]
        col_degree = cols["degree"]
        col_capacity = cols["capacity"]
        col_served = cols["served"]
        col_dropped = cols["dropped"]
        col_it = cols["it_power_w"]
        col_grid = cols["grid_w"]
        col_ups = cols["ups_w"]
        col_cb = cols["cb_overload_w"]
        col_tes_heat = cols["tes_heat_w"]
        col_tes_saved = cols["tes_electric_saved_w"]
        col_cooling = cols["cooling_electric_w"]
        col_room = cols["room_temperature_c"]
        col_bound = cols["pdu_grid_bound_w"]
        col_phase = history._phase
        col_burst = history._in_burst
        row = history._n

        # Deferred accumulators (see ``quiet_run`` above).  Initial values
        # are the live ones so mid-sequence runs keep accumulating.
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
        try:
            n_events = 0
            for b in range(len(bounds) - 1):
                i = bounds[b]
                end = bounds[b + 1]
                if trace is not None:
                    demand = float(samples[i - start_index])
                demand_dt = demand * dt
                # Span-invariant: the needed degree is a pure function of the
                # (constant) demand and frozen throughput coefficients.
                span_needed = self._degree_for_capacity(demand)
                ring: List[_SpanEntry] = []
                miss_budget = _RING_MISS_BUDGET
                while i < end:
                    if cycle_enabled:
                        n_events = len(safety.events)
                    if trace is not None:
                        time_s = i * trace_dt

                    # --- burst detector (inlined OnlineBurstDetector.observe)
                    if demand > detector.capacity:
                        if not detector.in_burst:
                            detector.in_burst = True
                            detector.burst_started_at_s = time_s
                        detector._below_since_s = None
                    elif detector.in_burst:
                        if detector._below_since_s is None:
                            detector._below_since_s = time_s
                        if time_s - detector._below_since_s >= detector.hold_off_s:
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
                        if time_in_burst < 0.0:
                            time_in_burst = 0.0

                    # --- strategy bound (constant bounds skip the observation)
                    if const_bound is None:
                        snap = budget._snapshot_total_j
                        if snap is None:
                            remaining = self._remaining_j(budget)
                            if remaining <= 0.0:
                                budget_fraction = 0.0
                            else:
                                budget_fraction = max(
                                    0.0, min(1.0, remaining / remaining)
                                )
                        else:
                            if snap <= 0.0:
                                budget_fraction = 0.0
                            else:
                                budget_fraction = max(
                                    0.0, min(1.0, self._remaining_j(budget) / snap)
                                )
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

                    needed = span_needed
                    ctrl.last_needed_degree = needed
                    degree = needed if needed <= upper_bound else upper_bound
                    if safety._emergency_latched:
                        degree = min(degree, 1.0)
                    if pcm is not None:
                        latent = pcm.latent_budget_j
                        melted = pcm.melted_j
                        if melted >= latent * (1.0 - 1e-12) or pcm._latched:
                            degree = min(degree, 1.0)
                        else:
                            remaining_j = latent - melted
                            if remaining_j <= 0.0:
                                sustainable = 1.0
                            else:
                                chip = pcm.chip
                                per_degree = chip.core_power_w * chip.normal_cores
                                sustainable = (
                                    1.0 + (remaining_j / settings.dt_s) / per_degree
                                )
                                sustainable = min(
                                    sustainable, chip.total_cores / chip.normal_cores
                                )
                            degree = min(degree, sustainable)

                    use_tes = (
                        in_burst
                        and tes is not None
                        and not tes.energy_j <= 1e-9
                        and time_in_burst >= tes_activation
                        and degree > _SPRINT_THRESHOLD
                    )

                    degree, pdu_bound, _ = self._fit_power(
                        degree, use_tes, dt, reserve, ups_floor_per_pdu
                    )
                    t_degree, t_use_tes = self._fit_thermal(
                        ctrl, degree, use_tes, time_s
                    )
                    if t_degree != degree or t_use_tes != use_tes:
                        # Thermal changed the operating point: re-fit power.
                        # When it did not, the second fit would re-run with
                        # bit-identical arguments against unmutated substrate
                        # (``_fit_thermal`` only ever records a safety event,
                        # which the fit never reads), so it is skipped.
                        degree = t_degree
                        use_tes = t_use_tes
                        degree, pdu_bound, _ = self._fit_power(
                            degree, use_tes, dt, reserve, ups_floor_per_pdu
                        )

                    # --- commit (inlined SprintingController._commit) --------
                    # _power_at_degree inlined on its validity fast path (the
                    # degree is already bounded by the fits); identical op
                    # order: n_servers * (non_cpu + (idle + core * active)).
                    if 0.0 <= degree <= chip_max_eps:
                        active_cores = degree * normal_cores
                        if active_cores > total_cores_f:
                            active_cores = total_cores_f
                        it_power = n_servers * (
                            non_cpu_power_w
                            + (idle_chip_power_w + core_power_w * active_cores)
                        )
                    else:
                        it_power = self._power_at_degree(degree)
                    # --- inlined cooling split ---------------------------
                    heat_via_tes = 0.0
                    if use_tes and tes is not None:
                        energy = tes.energy_j
                        avail = 0.0 if energy <= 1e-9 else tes.max_discharge_w
                        heat_via_tes = min(it_power, avail, energy / dt)
                        heat_via_tes = max(0.0, heat_via_tes)
                    remaining_heat = it_power - heat_via_tes
                    excess_k = room.temperature_c - setpoint
                    if excess_k <= 0.0:
                        recovery = 0.0
                    else:
                        recovery = room_hc * excess_k / room_tau
                    heat_via_chiller = remaining_heat + recovery
                    if heat_via_chiller > chiller.rated_removal_w:
                        heat_via_chiller = chiller.rated_removal_w
                    cooling_electric = overhead * (
                        heat_via_chiller + aux_share * heat_via_tes
                    )
                    if heat_via_tes > 0.0:
                        self._tes_absorb(heat_via_tes, dt)
                    # --- inlined Room.step --------------------------------
                    gap_w = it_power - (heat_via_chiller + heat_via_tes)
                    if gap_w >= 0.0:
                        room.temperature_c += gap_w * dt / room_hc
                    else:
                        excess_k = room.temperature_c - setpoint
                        if excess_k > 0.0:
                            decay = 1.0 - 2.718281828459045 ** (
                                -dt / room_tau
                            )
                            cooling_capacity_k = -gap_w * dt / room_hc
                            drop_k = excess_k * decay
                            room.temperature_c -= (
                                drop_k
                                if drop_k <= cooling_capacity_k
                                else cooling_capacity_k
                            )
                    temperature = room.temperature_c
                    if temperature > room.peak_temperature_c:
                        room.peak_temperature_c = temperature
                    if temperature >= threshold:
                        raise ThermalEmergencyError(temperature, threshold)

                    recharge_w = 0.0
                    if settings.recharge_when_idle and not in_burst:
                        capacity_j = battery_capacity_j
                        if battery.energy_j / capacity_j < 1.0:
                            per_pdu_load = it_power / n_pdus
                            spare = pdu_breaker.rated_power_w - per_pdu_load
                            if spare < 0.0:
                                spare = 0.0
                            recharge_w = spare * settings.max_recharge_fraction
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
                        per_pdu_demand
                        if per_pdu_demand <= grid_bound
                        else grid_bound
                    )
                    shortfall_w = per_pdu_demand - grid_w
                    ups_w = 0.0
                    if shortfall_w > 0.0:
                        per_battery_w = shortfall_w / n_batteries
                        per_floor_j = ups_floor_per_pdu / n_batteries
                        usable_j = max(0.0, battery.energy_j - per_floor_j)
                        deliverable = min(
                            per_battery_w, battery.max_discharge_power_w
                        )
                        deliverable = min(deliverable, usable_j / dt)
                        deliverable = max(0.0, deliverable)
                        if deliverable > 0.0:
                            drawn_j = deliverable * dt
                            battery.energy_j -= drawn_j
                            battery.energy_j = max(0.0, battery.energy_j)
                            battery.total_discharged_j += drawn_j
                            battery.equivalent_full_cycles += (
                                drawn_j / battery_capacity_j
                            )
                        ups_w = deliverable * n_batteries
                    deficit_per_pdu = per_pdu_demand - grid_w - ups_w
                    if deficit_per_pdu < 0.0:
                        deficit_per_pdu = 0.0
                    self._breaker_step(pdu_breaker, pdu_consts, grid_w, dt)
                    pdu_grid_total = grid_w * n_pdus
                    ups_total = ups_w * n_pdus
                    deficit_total = deficit_per_pdu * n_pdus
                    dc_feed = pdu_grid_total + cooling_electric
                    self._breaker_step(dc_breaker, dc_consts, dc_feed, dt)

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

                    served = demand if demand <= capacity else capacity
                    dropped = demand - served

                    pdu_rated_total = pdu_breaker.rated_power_w * n_pdus
                    pdu_overload_w = pdu_grid_total - pdu_rated_total
                    if pdu_overload_w < 0.0:
                        pdu_overload_w = 0.0
                    dc_overload_w = dc_feed - dc_breaker.rated_power_w
                    if dc_overload_w < 0.0:
                        dc_overload_w = 0.0
                    cb_overload_w = (
                        pdu_overload_w
                        if pdu_overload_w >= dc_overload_w
                        else dc_overload_w
                    )
                    electric_without_tes = overhead * (
                        it_power
                        if it_power <= chiller.rated_removal_w
                        else chiller.rated_removal_w
                    )
                    tes_saved_w = electric_without_tes - cooling_electric
                    if tes_saved_w < 0.0:
                        tes_saved_w = 0.0

                    sprinting = effective_degree > _SPRINT_THRESHOLD
                    if not sprinting:
                        phase = _IDLE
                        phase_code = _CODE_IDLE
                    elif heat_via_tes > _ACTIVE_POWER_EPS_W:
                        phase = _PHASE3
                        phase_code = _CODE_PHASE3
                    elif ups_total > _ACTIVE_POWER_EPS_W:
                        phase = _PHASE2
                        phase_code = _CODE_PHASE2
                    else:
                        phase = _PHASE1
                        phase_code = _CODE_PHASE1
                    # The admission integrals moved here from before the
                    # overload block: adds to independent accumulators
                    # commute, so the values are unchanged.
                    if quiet_run:
                        served_acc += served * dt
                        dropped_acc += dropped * dt
                        demand_acc += demand_dt
                        cb_acc += (cb_overload_w if sprinting else 0.0) * dt
                        ups_acc += ups_total * dt
                        tes_acc += tes_saved_w * dt
                        if phase is _IDLE:
                            tip_idle += dt
                        elif phase is _PHASE1:
                            tip_p1 += dt
                        elif phase is _PHASE2:
                            tip_p2 += dt
                        else:
                            tip_p3 += dt
                        last_phase = phase
                    else:
                        admission.served_integral += served * dt
                        admission.dropped_integral += dropped * dt
                        admission.demand_integral += demand_dt
                        phases.current_phase = phase
                        phases.time_in_phase_s[phase] += dt
                        phases.cb_overload_energy_j += (
                            cb_overload_w if sprinting else 0.0
                        ) * dt
                        phases.ups_energy_j += ups_total * dt
                        phases.tes_electric_energy_j += tes_saved_w * dt

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
                        chip = pcm.chip
                        if not d >= 0.0:
                            require_non_negative(d, "degree")
                        chip_max = chip.total_cores / chip.normal_cores
                        if d > chip_max + 1e-9:
                            raise ConfigurationError(
                                f"degree {d!r} exceeds the chip maximum {chip_max!r}"
                            )
                        active = min(d * chip.normal_cores, float(chip.total_cores))
                        power = chip.idle_chip_power_w + chip.core_power_w * active
                        normal_p = chip.idle_chip_power_w + (
                            chip.core_power_w * chip.normal_cores * 1.0
                        )
                        excess = max(0.0, power - normal_p)
                        if excess > 0.0:
                            pcm.melted_j = min(
                                pcm.latent_budget_j, pcm.melted_j + excess * dt
                            )
                            if pcm.melted_j >= pcm.latent_budget_j * (1.0 - 1e-12):
                                pcm._latched = True
                        else:
                            pcm.melted_j = max(
                                0.0, pcm.melted_j - pcm.refreeze_power_w * dt
                            )
                            if pcm.melted_j == 0.0:
                                pcm._latched = False

                    if notify_is_real:
                        strategy.notify_realized(effective_degree, dt, in_burst)
                    row += 1
                    history._n = row
                    i += 1

                    # --- steady-cycle detection (span-local ring) ------------
                    if not cycle_enabled or i >= end or miss_budget <= 0:
                        continue
                    # Eligibility: the step must be provably time-independent
                    # and leave no accumulator outside the signature moving.
                    # No UPS/TES flow freezes the battery-wear and
                    # tank-absorption counters; unchanged safety-event count
                    # proves no event was recorded; out of a burst there is no
                    # timer at all, in a burst the demand must hold the
                    # detector above capacity (no exit countdown) and the TES
                    # activation threshold must be settled (empty, absent, or
                    # already crossed — it is monotone within a burst).
                    if (
                        ups_total == 0.0
                        and heat_via_tes == 0.0
                        and len(safety.events) == n_events
                        and (
                            not in_burst
                            or (
                                demand > detector.capacity
                                and (
                                    tes is None
                                    or tes.energy_j <= 1e-9
                                    or time_in_burst >= tes_activation
                                )
                            )
                        )
                    ):
                        sig = self._quiescent_sig(ctrl)
                        sig_hash = hash(sig)
                        k = 0
                        for back in range(1, len(ring) + 1):
                            cand = ring[-back]
                            if cand.sig_hash == sig_hash and cand.sig == sig:
                                k = back
                                break
                        entry = _SpanEntry(
                            sig_hash,
                            sig,
                            self._ControlStep(
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
                            ),
                            served * dt,
                            dropped * dt,
                            (cb_overload_w if sprinting else 0.0) * dt,
                            ups_total * dt,
                            tes_saved_w * dt,
                            phase,
                            effective_degree,
                            in_burst,
                        )
                        n_rep = 0
                        if k > 0:
                            n_rep = (end - i) // k
                        if n_rep == 0:
                            if k == 0:
                                miss_budget -= 1
                            ring.append(entry)
                            if len(ring) > _RING_MAX:
                                del ring[0]
                            continue
                        # --- bulk replay of the k-step cycle -----------------
                        # State after this step equals state after the step k
                        # back, so the next n_rep * k steps are bit-exact
                        # repeats of the last k cached ones.  The remainder
                        # (< k steps) is stepped normally.
                        if k == 1:
                            cycle = [entry]
                        else:
                            cycle = ring[len(ring) - (k - 1) :] + [entry]
                        total_steps = n_rep * k
                        times = (
                            np.arange(i, i + total_steps, dtype=np.float64)
                            * trace_dt
                        )
                        history.extend_cycle(
                            [e.step for e in cycle], n_rep, times
                        )
                        row = history._n
                        # The accumulators are already locals (a quiet run
                        # is a precondition for cycles), so the replay adds
                        # go straight into them — the same per-step scalar
                        # adds the reference performs, never n * delta.
                        pdu_t = pdu_breaker._time_s
                        dc_t = dc_breaker._time_s
                        deltas = [
                            (
                                e.served_dt,
                                e.dropped_dt,
                                e.cb_dt,
                                e.ups_dt,
                                e.tes_dt,
                                e.phase,
                            )
                            for e in cycle
                        ]
                        for _ in range(n_rep):
                            for s_d, d_d, cb_d, u_d, t_d, ph in deltas:
                                served_acc += s_d
                                dropped_acc += d_d
                                demand_acc += demand_dt
                                cb_acc += cb_d
                                ups_acc += u_d
                                tes_acc += t_d
                                if ph is _IDLE:
                                    tip_idle += dt
                                elif ph is _PHASE1:
                                    tip_p1 += dt
                                elif ph is _PHASE2:
                                    tip_p2 += dt
                                else:
                                    tip_p3 += dt
                                pdu_t += dt
                                dc_t += dt
                        pdu_breaker._time_s = pdu_t
                        dc_breaker._time_s = dc_t
                        i += total_steps
                        ring.append(entry)
                        if len(ring) > _RING_MAX:
                            del ring[0]
                    else:
                        ring.clear()
                        miss_budget = _RING_MISS_BUDGET
            if trace is None:
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
            if quiet_run:
                admission.served_integral = served_acc
                admission.dropped_integral = dropped_acc
                admission.demand_integral = demand_acc
                phases.cb_overload_energy_j = cb_acc
                phases.ups_energy_j = ups_acc
                phases.tes_electric_energy_j = tes_acc
                tip[_IDLE] = tip_idle
                tip[_PHASE1] = tip_p1
                tip[_PHASE2] = tip_p2
                tip[_PHASE3] = tip_p3
                phases.current_phase = last_phase
        return None

    # ------------------------------------------------------------------
    # Steady-cycle signature
    # ------------------------------------------------------------------
    def _quiescent_sig(self, ctrl: SprintingController) -> Tuple[object, ...]:
        """Signature of every piece of mutable state the step reads.

        Two identical signatures plus an identical demand sample imply the
        step computation is identical (for a constant-bound strategy, under
        the cycle detector's eligibility conditions).  Telemetry-only
        fields (histories, integrals, breaker wall clocks) are deliberately
        excluded: they never feed back into the physics.
        """
        battery = self._battery
        tes = self._tes
        pdu_b = self._pdu_breaker
        dc_b = self._dc_breaker
        room = self._room
        detector = ctrl.detector
        pcm = ctrl.pcm
        return (
            detector.in_burst,
            detector.burst_started_at_s,
            detector._below_since_s,
            ctrl._burst_was_active,
            ctrl.budget._snapshot_total_j,
            ctrl.safety._emergency_latched,
            battery.energy_j,
            battery.capacity_ah,
            battery.max_discharge_power_w,
            None if tes is None else tes.energy_j,
            None if tes is None else tes.max_discharge_w,
            self._chiller.rated_removal_w,
            pdu_b.trip_fraction,
            pdu_b.tripped,
            pdu_b.rated_power_w,
            dc_b.trip_fraction,
            dc_b.tripped,
            dc_b.rated_power_w,
            room.temperature_c,
            room.peak_temperature_c,
            None if pcm is None else pcm.melted_j,
            None if pcm is None else pcm._latched,
        )
