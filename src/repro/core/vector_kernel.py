"""Vectorized many-facility batch kernel for the sprinting control loop.

:class:`~repro.core.kernel.StepKernel` advances ONE facility per call; the
Oracle grid search and the upper-bound sweep table evaluate MANY
candidate upper bounds over the SAME trace, each candidate on its own
facility copy.  :class:`VectorStepKernel` restates the
kernel's hoisted affine/quadratic maps (trip-curve clamps, degree<->power
maps, throughput quadratic, cooling split, UPS geometry) as numpy array
operations over a batch axis: one :meth:`VectorStepKernel.step` call
advances an arbitrary batch of fixed-bound facilities in lockstep, with
per-element failure latching and SoA batch telemetry.

Bit-exactness contract
----------------------
Element ``j`` of the batch must be *bit-identical* to a scalar
:class:`~repro.core.controller.SprintingController` run with
:class:`~repro.core.strategies.FixedUpperBoundStrategy(bounds[j])` from the
seeded state (``tests/core/test_vector_kernel.py`` fuzzes this).  That
works because every elementwise float64 numpy op (``+ - * /``,
``minimum``/``maximum``, ``sqrt``, ``nextafter``) is IEEE-754 correctly
rounded exactly like the CPython float op, so replicating the scalar
kernel's *operation order* replicates its bits.  The only transcendentals
in the loop — the breaker cooldown ``exp`` and the room-recovery ``pow`` —
take per-run-constant arguments and are hoisted as scalar constants at
construction.  Op-order quirks of the scalar kernel (e.g.
``((facility_w / n_pdus) / n_batteries)``, ``min(min(a, b), c)`` chains)
are therefore preserved verbatim rather than simplified.

Divergences from the scalar kernel, each bit-neutral:

* The budget *fraction* is not computed per step: with a fixed bound it
  feeds only the strategy observation, which nothing reads.
* A per-element failure (tank depletion, thermal emergency, breaker trip)
  latches the element — its state freezes mid-step exactly where the
  scalar kernel raises (partial mutations included), and it serves 0.0
  thereafter — instead of unwinding the whole batch with an exception.
* A select or a branch is skipped when its mask is uniform (no element
  failed yet, none over its breaker's hold band, none drawing TES or
  UPS power, none recharging, none near the thermal threshold): run, it
  would keep every element's value.

Per-element failure masks double as fault-injection hooks: the mutable
rating arrays (``chiller_rated_w``, ``battery_capacity_ah``,
``battery_max_discharge_w``, ``tes_max_discharge_w``, ``pdu.rated_w``,
``dc.rated_w``) may be derated per element between steps, mirroring what
``repro.simulation.faults`` does to the scalar substrate.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernel import _BreakerConsts
from repro.core.phases import SprintPhase
from repro.errors import ConfigurationError
from repro.units import (
    SECONDS_PER_HOUR,
    require_non_negative,
    require_positive,
)

if TYPE_CHECKING:
    from repro.cooling.crac import CoolingPlant
    from repro.core.controller import SprintingController
    from repro.power.breaker import CircuitBreaker
    from repro.power.topology import PowerTopology
    from repro.servers.cluster import ServerCluster

#: Degree above which a step counts as sprinting (1.0 + controller epsilon).
_SPRINT_THRESHOLD = 1.0 + 1e-6

#: Phase-classification noise floor (mirrors ``repro.core.phases``).
_ACTIVE_POWER_EPS_W = 1e-6

#: ``failed_kind`` codes, in the order the scalar kernel can raise within
#: one step: tank depletion before the room step, thermal emergency before
#: the breaker steps, PDU breaker before the DC breaker.
FAIL_NONE = 0
FAIL_TANK = 1
FAIL_THERMAL = 2
FAIL_PDU = 3
FAIL_DC = 4

#: Phase telemetry codes: index into this tuple == the int recorded in
#: ``current_phase_code`` and the ``phase`` telemetry column.
PHASE_ORDER: Tuple[SprintPhase, ...] = (
    SprintPhase.IDLE,
    SprintPhase.PHASE1_CB,
    SprintPhase.PHASE2_UPS,
    SprintPhase.PHASE3_TES,
)

#: Telemetry columns recorded under ``record_telemetry=True`` — one float64
#: ``(n,)`` row per step per field, NaN where the element has failed
#: (``phase`` uses -1 and ``in_burst`` False).  Mirrors the 18 fields of
#: :class:`~repro.core.controller.ControlStep`.
TELEMETRY_FIELDS: Tuple[str, ...] = (
    "time_s",
    "demand",
    "upper_bound",
    "degree",
    "capacity",
    "served",
    "dropped",
    "phase",
    "in_burst",
    "it_power_w",
    "grid_w",
    "ups_w",
    "cb_overload_w",
    "tes_heat_w",
    "tes_electric_saved_w",
    "cooling_electric_w",
    "room_temperature_c",
    "pdu_grid_bound_w",
)


#: One pricing of a degree batch: the IT power and its cooling split
#: (heat via the chiller, heat via TES, cooling electric power).
_Pricing = Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray, np.ndarray]]


def _masked(
    all_ok: bool, ok: np.ndarray, new: np.ndarray, old: object
) -> np.ndarray:
    """``np.where(ok, new, old)``; just ``new`` when every element is ok."""
    return new if all_ok else np.where(ok, new, old)


class _BreakerBank:
    """One breaker tier's mutable state across the batch (SoA layout).

    The trip-curve constants are shared (curves are frozen dataclasses);
    the rated power and trip state are per-element so individual batch
    members can be derated or tripped by fault masks.
    """

    __slots__ = (
        "consts",
        "rated_w",
        "trip_fraction",
        "tripped",
        "tripped_at_s",
        "time_s",
    )

    def __init__(
        self, breaker: "CircuitBreaker", consts: _BreakerConsts, n: int
    ) -> None:
        self.consts = consts
        self.rated_w = np.full(n, breaker.rated_power_w, dtype=np.float64)
        self.trip_fraction = np.full(
            n, breaker.trip_fraction, dtype=np.float64
        )
        self.tripped = np.full(n, breaker.tripped, dtype=bool)
        tripped_at = breaker.tripped_at_s
        self.tripped_at_s = np.full(
            n,
            np.nan if tripped_at is None else tripped_at,
            dtype=np.float64,
        )
        self.time_s = np.full(n, breaker._time_s, dtype=np.float64)

    # Vector restatement of ``CircuitBreaker.max_load_for_trip_time`` (as
    # inlined in the power fit of ``StepKernel._run``).
    # The selects for a spent trip budget and a tripped breaker are
    # skipped when every element has budget left and none has tripped.
    def max_load_for_trip_time(self, reserve_s: float) -> np.ndarray:
        c = self.consts
        head = 1.0 - self.trip_fraction
        has_head = head > 0.0
        all_head = has_head.all()
        safe_head = head if all_head else np.where(has_head, head, 1.0)
        t = reserve_s / safe_head
        o = np.sqrt(c.K / t)
        o = np.maximum(o, c.hold_lo)
        o = np.minimum(o, c.inst_cap)
        o = np.where(t <= c.inst_time, c.inst_o, o)
        load = self.rated_w * (1.0 + o)
        if not all_head:
            load = np.where(head <= 0.0, np.nextafter(self.rated_w, 0.0), load)
        if self.tripped.any():
            load = np.where(self.tripped, 0.0, load)
        return load

    # Vector restatement of ``StepKernel._cb_deliverable``.
    def cb_deliverable(
        self, horizon_s: float, reserve_s: float
    ) -> np.ndarray:
        c = self.consts
        head = 1.0 - self.trip_fraction
        safe_head = np.where(head > 0.0, head, 1.0)
        t = (horizon_s + reserve_s) / safe_head
        o = np.sqrt(c.K / t)
        o = np.maximum(o, c.hold_lo)
        o = np.minimum(o, c.inst_cap)
        o = np.where(t <= c.inst_time, c.inst_o, o)
        in_hold = o <= c.hold_p12
        never_trips = o <= c.hold_hi
        denom = np.where(never_trips | (1.0 + o >= c.inst_mult), 1.0, o * o)
        trip_time = np.where(
            1.0 + o >= c.inst_mult, c.inst_time, c.K / denom
        )
        # head * inf == horizon cap in the scalar path; keep the product
        # finite so no invalid-value warnings leak from masked elements.
        run_time = np.minimum(
            horizon_s, head * np.where(never_trips, 0.0, trip_time)
            - reserve_s
        )
        run_time = np.maximum(0.0, run_time)
        run_time = np.where(never_trips, horizon_s, run_time)
        energy = self.rated_w * o * run_time
        energy = np.where(in_hold, self.rated_w * c.hold * horizon_s, energy)
        energy = np.where(head <= 0.0, 0.0, energy)
        return np.where(self.tripped, 0.0, energy)

    # Vector restatement of ``StepKernel._breaker_step``; returns the mask
    # of elements that tripped this step (where the scalar kernel raises
    # ``BreakerTrippedError``), partial mutations applied exactly as the
    # scalar kernel leaves them before raising.
    def step(
        self,
        load_w: np.ndarray,
        dt_s: float,
        active: np.ndarray,
        cooldown_factor: float,
    ) -> np.ndarray:
        c = self.consts
        any_tripped = self.tripped.any()
        if any_tripped:
            fail_pre = active & self.tripped & (load_w > 0.0)
            live = active & ~self.tripped
        else:
            live = active
        o = np.maximum(0.0, load_w / self.rated_w - 1.0)
        in_hold = o <= c.hold_hi
        cool = live & in_hold & (load_w < self.rated_w)
        self.trip_fraction = np.where(
            cool, self.trip_fraction * cooldown_factor, self.trip_fraction
        )
        over = live & ~in_hold
        # No element over its hold band: no trip and no accumulation, so
        # the masked updates below would all keep their old values.
        if not over.any():
            trip_now = over
        else:
            inst = 1.0 + o >= c.inst_mult
            denom = np.where(over & ~inst, o * o, 1.0)
            trip_time = np.where(inst, c.inst_time, c.K / denom)
            time_to_trip = (1.0 - self.trip_fraction) * trip_time
            trip_now = over & (time_to_trip <= dt_s)
            self.tripped_at_s = np.where(
                trip_now, self.time_s + time_to_trip, self.tripped_at_s
            )
            self.trip_fraction = np.where(trip_now, 1.0, self.trip_fraction)
            self.tripped = self.tripped | trip_now
            accum = over & ~trip_now
            self.trip_fraction = np.where(
                accum,
                self.trip_fraction + dt_s / trip_time,
                self.trip_fraction,
            )
        if not any_tripped:
            self.time_s = np.where(active, self.time_s + dt_s, self.time_s)
            return trip_now
        advance = active & ~fail_pre
        self.time_s = np.where(advance, self.time_s + dt_s, self.time_s)
        return fail_pre | trip_now


class VectorStepKernel:
    """A batch of fixed-bound facilities advanced in lockstep.

    Hoists the same invariants as :class:`~repro.core.kernel.StepKernel`
    from the ``(cluster, topology, cooling)`` triple, then seeds every
    per-element state array from ``ctrl``'s *current* mutable state — so a
    fresh controller seeds a fresh batch, and a controller restored from a
    :class:`~repro.simulation.snapshot.FacilityState` seeds a mid-run
    batch (the MPC rollout case).  ``bounds[j]`` is element ``j``'s fixed
    degree upper bound.
    """

    def __init__(
        self,
        cluster: "ServerCluster",
        topology: "PowerTopology",
        cooling: "CoolingPlant",
        ctrl: "SprintingController",
        bounds: np.ndarray,
        record_telemetry: bool = False,
        telemetry_fields: Optional[Sequence[str]] = None,
    ) -> None:
        bound_arr = np.asarray(bounds, dtype=np.float64)
        if bound_arr.ndim != 1 or bound_arr.size == 0:
            raise ConfigurationError(
                "bounds must be a non-empty 1-D array of upper bounds"
            )
        if not bool(np.all(bound_arr > 0.0)):
            require_positive(float(bound_arr.min()), "upper_bound")
        n = int(bound_arr.size)
        self.n = n

        # --- cluster / chip (same hoists as StepKernel) ----------------
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
        self._throughput = tp
        self._tp_max_degree = tp.max_degree
        self._tp_max_eps = tp.max_degree + 1e-9
        gain = tp.max_capacity - 1.0
        span = tp.max_degree - 1.0
        self._tp_b = 2.0 * gain / span
        self._tp_c = gain / (span * span)

        # --- power topology --------------------------------------------
        self._n_pdus = topology.n_pdus
        self._pdu_consts = _BreakerConsts(topology.pdu.breaker)
        self._dc_consts = _BreakerConsts(topology.dc_breaker)
        fleet = topology.pdu.ups
        self._n_batteries = fleet.n_batteries
        self._voltage_v = fleet.battery.voltage_v
        self._efficiency = fleet.battery.efficiency

        # --- cooling plant ---------------------------------------------
        chiller = cooling.chiller
        self._overhead = chiller.pue - 1.0
        self._aux_share = 1.0 - chiller.chiller_share
        self._tes_saving = self._overhead * chiller.chiller_share
        room = cooling.room
        self._room_hc = room.heat_capacity_j_per_k
        self._setpoint = room.setpoint_c
        self._threshold = room.threshold_c
        self._room_tau = room.recovery_tau_s

        # --- controller invariants -------------------------------------
        settings = ctrl.settings
        self._dt = settings.dt_s
        self._reserve = settings.reserve_trip_time_s
        self._thermal_margin_k = settings.thermal_margin_k
        self._recharge_when_idle = settings.recharge_when_idle
        self._max_recharge_fraction = settings.max_recharge_fraction
        self._outage_fraction = settings.ups_outage_reserve_fraction
        budget = ctrl.budget
        self._budget_horizon = budget.horizon_s
        self._budget_reserve = budget.reserve_s
        detector = ctrl.detector
        self._det_capacity = detector.capacity
        self._det_hold_off = detector.hold_off_s
        self._tes_activation_s = ctrl.tes_activation_s

        # The loop's only transcendentals take per-run-constant arguments
        # (`dt_s` over the breaker cooldown tau / room recovery tau), so
        # hoisting them is bit-neutral.
        self._pdu_cooldown_factor = math.exp(
            -settings.dt_s / self._pdu_consts.cooldown_tau
        )
        self._dc_cooldown_factor = math.exp(
            -settings.dt_s / self._dc_consts.cooldown_tau
        )
        self._room_decay = 1.0 - pow(
            2.718281828459045, -settings.dt_s / self._room_tau
        )

        # --- per-element fixed bounds ----------------------------------
        # FixedUpperBoundStrategy returns min(bound, obs.max_degree) every
        # step; both operands are per-run constants, so fold it here.
        self.bounds = bound_arr.copy()
        self._upper = np.minimum(self.bounds, self._tp_max_degree)

        # --- per-element mutable state, seeded from ctrl ---------------
        battery = fleet.battery
        self.battery_energy_j = np.full(n, battery.energy_j)
        self.battery_capacity_ah = np.full(n, battery.capacity_ah)
        self.battery_max_discharge_w = np.full(
            n, battery.max_discharge_power_w
        )
        self.battery_discharged_j = np.full(n, battery.total_discharged_j)
        self.battery_cycles = np.full(n, battery.equivalent_full_cycles)

        tes = cooling.tes
        self._has_tes = tes is not None
        if tes is not None:
            self.tes_energy_j = np.full(n, tes.energy_j)
            self.tes_max_discharge_w = np.full(n, tes.max_discharge_w)
            self.tes_absorbed_j = np.full(n, tes.total_absorbed_j)
        else:
            self.tes_energy_j = np.zeros(n)
            self.tes_max_discharge_w = np.zeros(n)
            self.tes_absorbed_j = np.zeros(n)

        self.chiller_rated_w = np.full(n, chiller.rated_removal_w)
        self.room_temperature_c = np.full(n, room.temperature_c)
        self.room_peak_c = np.full(n, room.peak_temperature_c)

        self.pdu = _BreakerBank(topology.pdu.breaker, self._pdu_consts, n)
        self.dc = _BreakerBank(topology.dc_breaker, self._dc_consts, n)

        pcm = ctrl.pcm
        self._has_pcm = pcm is not None
        if pcm is not None:
            pcm_chip = pcm.chip
            self._pcm_latent = pcm.latent_budget_j
            self._pcm_refreeze = pcm.refreeze_power_w
            self._pcm_idle = pcm_chip.idle_chip_power_w
            self._pcm_core_power = pcm_chip.core_power_w
            self._pcm_normal_cores = pcm_chip.normal_cores
            self._pcm_total_cores_f = float(pcm_chip.total_cores)
            self._pcm_per_degree = (
                pcm_chip.core_power_w * pcm_chip.normal_cores
            )
            self._pcm_chip_max = (
                pcm_chip.total_cores / pcm_chip.normal_cores
            )
            self._pcm_normal_p = pcm_chip.idle_chip_power_w + (
                pcm_chip.core_power_w * pcm_chip.normal_cores * 1.0
            )
            self.pcm_melted_j = np.full(n, pcm.melted_j)
            self.pcm_latched = np.full(n, pcm._latched, dtype=bool)
        else:
            self._pcm_latent = 0.0
            self._pcm_refreeze = 0.0
            self._pcm_idle = 0.0
            self._pcm_core_power = 0.0
            self._pcm_normal_cores = 0
            self._pcm_total_cores_f = 0.0
            self._pcm_per_degree = 0.0
            self._pcm_chip_max = 0.0
            self._pcm_normal_p = 0.0
            self.pcm_melted_j = np.zeros(n)
            self.pcm_latched = np.zeros(n, dtype=bool)

        self.in_burst = np.full(n, detector.in_burst, dtype=bool)
        started = detector.burst_started_at_s
        self.burst_started_s = np.full(
            n, 0.0 if started is None else started
        )
        self._has_burst_start = np.full(n, started is not None, dtype=bool)
        below = detector._below_since_s
        self.below_since_s = np.full(n, 0.0 if below is None else below)
        self._has_below = np.full(n, below is not None, dtype=bool)

        self.burst_was_active = np.full(
            n, ctrl._burst_was_active, dtype=bool
        )
        snap = budget._snapshot_total_j
        self.budget_snapshot_j = np.full(n, 0.0 if snap is None else snap)
        self._has_snapshot = np.full(n, snap is not None, dtype=bool)
        self.emergency_latched = np.full(
            n, ctrl.safety._emergency_latched, dtype=bool
        )

        admission = ctrl.admission
        self.served_integral = np.full(n, admission.served_integral)
        self.dropped_integral = np.full(n, admission.dropped_integral)
        self.demand_integral = np.full(n, admission.demand_integral)

        phases = ctrl.phases
        self.time_in_phase_s: List[np.ndarray] = [
            np.full(n, phases.time_in_phase_s[p]) for p in PHASE_ORDER
        ]
        self.cb_overload_energy_j = np.full(n, phases.cb_overload_energy_j)
        self.ups_energy_j = np.full(n, phases.ups_energy_j)
        self.tes_electric_energy_j = np.full(
            n, phases.tes_electric_energy_j
        )
        self.current_phase_code = np.full(
            n, PHASE_ORDER.index(phases.current_phase), dtype=np.int64
        )

        #: Safety-envelope events provoked *since construction* (the MPC
        #: rollout scorer consumes this as a delta, so it starts at 0).
        self.violations = np.zeros(n, dtype=np.int64)
        self.last_needed_degree = np.full(n, math.nan)

        self.failed = np.zeros(n, dtype=bool)
        self.failed_kind = np.full(n, FAIL_NONE, dtype=np.int64)
        self.failed_step = np.full(n, -1, dtype=np.int64)
        self.failed_time_s = np.full(n, math.nan)
        self.steps_done = 0

        # ``telemetry_fields`` restricts recording to a subset of
        # TELEMETRY_FIELDS (the packed-sweep path only needs two of the
        # eighteen columns; recording the rest would dominate its step
        # cost).  Recorded values are unchanged — only which columns are
        # kept differs.
        if record_telemetry:
            if telemetry_fields is None:
                selected: Tuple[str, ...] = TELEMETRY_FIELDS
            else:
                selected = tuple(telemetry_fields)
                unknown = [
                    name for name in selected if name not in TELEMETRY_FIELDS
                ]
                if unknown:
                    raise ConfigurationError(
                        f"unknown telemetry field(s) {unknown!r}; expected "
                        f"a subset of {list(TELEMETRY_FIELDS)!r}"
                    )
            self.telemetry: Optional[Dict[str, List[np.ndarray]]] = {
                name: [] for name in selected
            }
        else:
            self.telemetry = None

    # ------------------------------------------------------------------
    # Cluster arithmetic (vector restatement of StepKernel's maps)
    # ------------------------------------------------------------------
    def _power_at_degree_vec(self, degree: np.ndarray) -> np.ndarray:
        if (degree > self._chip_max_eps).any():
            raise ConfigurationError(
                f"degree {float(degree.max())!r} exceeds the chip maximum "
                f"{self._chip_max_degree!r}"
            )
        active = np.minimum(
            degree * self._normal_cores, self._total_cores_f
        )
        chip_p = self._idle_chip_power_w + self._core_power_w * active
        return self._n_servers * (self._non_cpu_power_w + chip_p)

    def _degree_for_power_vec(self, fleet_power_w: np.ndarray) -> np.ndarray:
        per_server = fleet_power_w / self._n_servers
        degree = (per_server - self._fixed_per_server) / self._per_degree_w
        return np.maximum(0.0, np.minimum(degree, self._chip_max_degree))

    def _capacity_at_degree_vec(self, degree: np.ndarray) -> np.ndarray:
        if (degree > self._tp_max_eps).any():
            raise ConfigurationError(
                f"degree {float(degree.max())!r} exceeds max_degree "
                f"{self._tp_max_degree!r}"
            )
        x = degree - 1.0
        quad = 1.0 + self._tp_b * x - self._tp_c * x * x
        return np.where(degree <= 1.0, degree, quad)

    # ------------------------------------------------------------------
    # Budget / cooling (vector restatements)
    # ------------------------------------------------------------------
    def _remaining_j_vec(self) -> np.ndarray:
        ups_e = (self.battery_energy_j * self._n_batteries) * self._n_pdus
        if self._has_tes:
            tes_e = self.tes_energy_j * self._tes_saving
        else:
            tes_e = np.zeros(self.n)
        pdu_total = (
            self.pdu.cb_deliverable(self._budget_horizon, self._budget_reserve)
            * self._n_pdus
        )
        dc_total = self.dc.cb_deliverable(
            self._budget_horizon, self._budget_reserve
        )
        return ups_e + tes_e + np.minimum(pdu_total, dc_total)

    def _cooling_split_vec(
        self, it_heat_w: np.ndarray, use_tes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._has_tes and use_tes.any():
            avail = np.where(
                self.tes_energy_j <= 1e-9, 0.0, self.tes_max_discharge_w
            )
            hvt = np.minimum(
                np.minimum(it_heat_w, avail), self.tes_energy_j / self._dt
            )
            hvt = np.maximum(0.0, hvt)
            heat_via_tes = np.where(use_tes, hvt, 0.0)
        else:
            heat_via_tes = np.zeros(self.n)
        remaining = it_heat_w - heat_via_tes
        excess_k = self.room_temperature_c - self._setpoint
        recovery = np.where(
            excess_k <= 0.0,
            0.0,
            self._room_hc * excess_k / self._room_tau,
        )
        heat_via_chiller = np.minimum(
            remaining + recovery, self.chiller_rated_w
        )
        electric = self._overhead * (
            heat_via_chiller + self._aux_share * heat_via_tes
        )
        return heat_via_chiller, heat_via_tes, electric

    # ------------------------------------------------------------------
    # Controller internals (vector SprintingController._fit_power /
    # _fit_thermal)
    # ------------------------------------------------------------------
    def _fit_limits_vec(
        self, ups_floor_per_pdu_j: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The power fit's degree-independent inputs for this step.

        Both breakers' trip-time-bounded loads and the UPS power depend
        only on state that neither fit of one step changes, so they are
        computed once per step rather than once per fit iteration.
        """
        own = self.pdu.max_load_for_trip_time(self._reserve)
        parent_total = self.dc.max_load_for_trip_time(self._reserve)
        usable_j = np.maximum(
            0.0,
            self.battery_energy_j * self._n_batteries - ups_floor_per_pdu_j,
        )
        avail_w = np.where(
            self.battery_energy_j <= 1e-9,
            0.0,
            self.battery_max_discharge_w * self._n_batteries,
        )
        ups_power = np.minimum(avail_w, usable_j / self._dt)
        return own, parent_total, ups_power

    def _fit_power_vec(
        self,
        degree: np.ndarray,
        use_tes: np.ndarray,
        limits: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, Optional[_Pricing]]:
        # The scalar kernel breaks out of the 3-iteration loop once the
        # power fits; running the remaining iterations with the degree
        # frozen recomputes identical values (available, pdu_bound and
        # cooling_w are pure functions of degree and state frozen within
        # the fit), so a converged mask replicates the break bit-for-bit —
        # and once EVERY element has converged, breaking out of the batch
        # loop early skips only those identical recomputations.  The
        # third value is the last pass's ``(it_power, cooling split)``
        # when it priced the returned degree (the loop broke), else None.
        own, parent_total, ups_power = limits
        converged = np.zeros(self.n, dtype=bool)
        pdu_bound = np.zeros(self.n)
        for _ in range(3):
            it_power = self._power_at_degree_vec(degree)
            split = self._cooling_split_vec(it_power, use_tes)
            parent_share = (
                np.maximum(0.0, parent_total - split[2]) / self._n_pdus
            )
            pdu_bound = np.minimum(own, parent_share)
            available = (pdu_bound + ups_power) * self._n_pdus
            converged = converged | (
                it_power <= available * (1.0 + 1e-12)
            )
            if converged.all():
                return degree, pdu_bound, (it_power, split)
            degree = np.where(
                converged,
                degree,
                np.minimum(degree, self._degree_for_power_vec(available)),
            )
        return degree, pdu_bound, None

    def _fit_thermal_vec(
        self,
        degree: np.ndarray,
        use_tes: np.ndarray,
        alive: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        entered = alive & ~(
            self._threshold - self.room_temperature_c > self._thermal_margin_k
        )
        if not entered.any():
            return degree, use_tes
        removal = self.chiller_rated_w
        if self._has_tes:
            tes_nonempty = ~(self.tes_energy_j <= 1e-9)
            engage = entered & tes_nonempty
            use_tes = use_tes | engage
            removal = np.where(
                engage,
                self.chiller_rated_w + self.tes_max_discharge_w,
                removal,
            )
            tes_can_hold = use_tes & tes_nonempty
        else:
            tes_can_hold = np.zeros(self.n, dtype=bool)
        safe_degree = self._degree_for_power_vec(removal)
        shrink = entered & (safe_degree < degree)
        # SafetyMonitor.thermal_degree_is_safe appends an event exactly
        # when called (safe < degree) with the emergency not latched, no
        # thermal headroom beyond the margin (== `entered`), and no TES
        # charge left to hold the line.
        self.violations = self.violations + (
            shrink & ~self.emergency_latched & ~tes_can_hold
        )
        degree = np.where(
            shrink,
            np.minimum(degree, np.maximum(1.0, safe_degree)),
            degree,
        )
        return degree, use_tes

    # ------------------------------------------------------------------
    # Failure latching
    # ------------------------------------------------------------------
    def _latch(self, mask: np.ndarray, kind: int, time_s: float) -> bool:
        """Latch the elements in ``mask``; whether any element failed."""
        if not mask.any():
            return False
        self.failed = self.failed | mask
        self.failed_kind = np.where(mask, kind, self.failed_kind)
        self.failed_step = np.where(mask, self.steps_done, self.failed_step)
        self.failed_time_s = np.where(mask, time_s, self.failed_time_s)
        return True

    # ------------------------------------------------------------------
    # The control period
    # ------------------------------------------------------------------
    def step(self, demand: object, time_s: float) -> np.ndarray:
        """Advance the whole batch by one control period.

        ``demand`` is a scalar (shared by every element) or an ``(n,)``
        array (per-element); returns the served throughput per element,
        0.0 for elements that have failed.
        """
        d = np.asarray(demand, dtype=np.float64)
        if d.ndim not in (0, 1) or (d.ndim == 1 and d.shape[0] != self.n):
            raise ConfigurationError(
                f"demand must be scalar or shape ({self.n},), "
                f"got shape {d.shape!r}"
            )
        if not (d >= 0.0).all():
            require_non_negative(float(d.min()), "demand")
        require_non_negative(time_s, "time_s")

        dt = self._dt
        n_pdus = self._n_pdus
        n_batteries = self._n_batteries
        alive = ~self.failed
        # While no element has failed, every ``np.where(ok, new, old)``
        # below is ``new``; ``_masked`` skips those selects.
        all_ok = not self.failed.any()

        # --- burst detector (vector OnlineBurstDetector.observe) -------
        above = d > self._det_capacity
        start = alive & above & ~self.in_burst
        self.in_burst = self.in_burst | start
        self.burst_started_s = np.where(start, time_s, self.burst_started_s)
        self._has_burst_start = self._has_burst_start | start
        self._has_below = self._has_below & ~(alive & above)
        below_branch = alive & ~above & self.in_burst
        set_below = below_branch & ~self._has_below
        self.below_since_s = np.where(set_below, time_s, self.below_since_s)
        self._has_below = self._has_below | set_below
        end = below_branch & (
            time_s - self.below_since_s >= self._det_hold_off
        )
        self.in_burst = self.in_burst & ~end
        self._has_below = self._has_below & ~end
        in_burst = self.in_burst

        # --- burst edges (snapshot / clear the energy budget) ----------
        entered = alive & in_burst & ~self.burst_was_active
        exited = alive & ~in_burst & self.burst_was_active
        if entered.any():
            total = self._remaining_j_vec()
            self.budget_snapshot_j = np.where(
                entered, total, self.budget_snapshot_j
            )
            self._has_snapshot = self._has_snapshot | entered
        self._has_snapshot = self._has_snapshot & ~exited
        self.burst_was_active = np.where(
            alive, in_burst, self.burst_was_active
        )

        # --- time in burst ---------------------------------------------
        time_in_burst = np.where(
            in_burst & self._has_burst_start,
            np.maximum(0.0, time_s - self.burst_started_s),
            0.0,
        )

        # NOTE: the budget *fraction* is deliberately not computed — with
        # a per-element fixed bound it would only feed an observation
        # nothing reads (FixedUpperBoundStrategy ignores it).

        upper_bound = self._upper
        needed = self._throughput.degrees_for_capacities(d)
        self.last_needed_degree = np.where(
            alive, needed, self.last_needed_degree
        )
        degree = np.minimum(needed, upper_bound)
        if self.emergency_latched.any():
            degree = np.where(
                self.emergency_latched, np.minimum(degree, 1.0), degree
            )

        # --- chip-level PCM degree cap ---------------------------------
        if self._has_pcm:
            latent = self._pcm_latent
            melted = self.pcm_melted_j
            cap_to_one = (
                melted >= latent * (1.0 - 1e-12)
            ) | self.pcm_latched
            remaining_j = latent - melted
            sustainable = (
                1.0 + (remaining_j / dt) / self._pcm_per_degree
            )
            sustainable = np.minimum(sustainable, self._pcm_chip_max)
            sustainable = np.where(remaining_j <= 0.0, 1.0, sustainable)
            degree = np.minimum(
                degree, np.where(cap_to_one, 1.0, sustainable)
            )

        if self._has_tes:
            use_tes = (
                in_burst
                & ~(self.tes_energy_j <= 1e-9)
                & (time_in_burst >= self._tes_activation_s)
                & (degree > _SPRINT_THRESHOLD)
            )
        else:
            use_tes = np.zeros(self.n, dtype=bool)

        ups_floor_total = self._outage_fraction * (
            (
                self.battery_capacity_ah
                * self._voltage_v
                * SECONDS_PER_HOUR
                * n_batteries
            )
            * n_pdus
        )
        ups_floor_per_pdu = ups_floor_total / n_pdus

        limits = self._fit_limits_vec(ups_floor_per_pdu)
        degree, pdu_bound, priced = self._fit_power_vec(
            degree, use_tes, limits
        )
        # The second fit only matters when the thermal fit shrank a degree
        # or engaged TES; otherwise it is a pure function of the same
        # (degree, use_tes, frozen state) inputs and recomputes the first
        # fit's outputs bit-for-bit, so skipping it is exact.  The thermal
        # fit hands back its own inputs when no element is near the
        # threshold.
        degree2, use_tes2 = self._fit_thermal_vec(degree, use_tes, alive)
        if degree2 is not degree and not (
            np.array_equal(degree2, degree)
            and np.array_equal(use_tes2, use_tes)
        ):
            degree, pdu_bound, _ = self._fit_power_vec(
                degree2, use_tes2, limits
            )
            priced = None
        degree, use_tes = degree2, use_tes2

        # --- commit ----------------------------------------------------
        # The fit's last pass priced this very degree unless the loop ran
        # out or the thermal fit changed it: reuse that pricing.
        if priced is None:
            it_power = self._power_at_degree_vec(degree)
            priced = (it_power, self._cooling_split_vec(it_power, use_tes))
        it_power, (heat_via_chiller, heat_via_tes, cooling_electric) = priced
        ok = alive.copy()

        absorb = ok & (heat_via_tes > 0.0)
        if self._has_tes and absorb.any():
            needed_j = heat_via_tes * dt
            tank_fail = absorb & (
                (
                    heat_via_tes
                    > self.tes_max_discharge_w * (1.0 + 1e-9)
                )
                | (needed_j > self.tes_energy_j + 1e-6)
            )
            do_absorb = absorb & ~tank_fail
            self.tes_energy_j = np.where(
                do_absorb,
                np.maximum(0.0, self.tes_energy_j - needed_j),
                self.tes_energy_j,
            )
            self.tes_absorbed_j = np.where(
                do_absorb, self.tes_absorbed_j + needed_j, self.tes_absorbed_j
            )
            if self._latch(tank_fail, FAIL_TANK, time_s):
                ok = ok & ~tank_fail
                all_ok = False

        # --- room step (partial mutations precede the thermal latch,
        # exactly as the scalar kernel mutates before raising) ----------
        gap = it_power - (heat_via_chiller + heat_via_tes)
        heated = self.room_temperature_c + gap * dt / self._room_hc
        excess = self.room_temperature_c - self._setpoint
        cooling_capacity_k = -gap * dt / self._room_hc
        cooled = self.room_temperature_c - np.minimum(
            excess * self._room_decay, cooling_capacity_k
        )
        new_temp = np.where(
            gap >= 0.0,
            heated,
            np.where(excess > 0.0, cooled, self.room_temperature_c),
        )
        self.room_temperature_c = _masked(
            all_ok, ok, new_temp, self.room_temperature_c
        )
        self.room_peak_c = _masked(
            all_ok,
            ok,
            np.maximum(self.room_peak_c, self.room_temperature_c),
            self.room_peak_c,
        )
        thermal_fail = ok & (self.room_temperature_c >= self._threshold)
        if self._latch(thermal_fail, FAIL_THERMAL, time_s):
            ok = ok & ~thermal_fail
            all_ok = False

        # --- idle UPS recharge -----------------------------------------
        recharge_w = np.zeros(self.n)
        if self._recharge_when_idle:
            capacity_j = (
                self.battery_capacity_ah * self._voltage_v * SECONDS_PER_HOUR
            )
            want = (
                ok
                & ~in_burst
                & (self.battery_energy_j / capacity_j < 1.0)
            )
            # Nothing is stored when no element wants a recharge.
            if want.any():
                per_pdu_load = it_power / n_pdus
                spare = np.maximum(0.0, self.pdu.rated_w - per_pdu_load)
                recharge_w = np.where(
                    want, spare * self._max_recharge_fraction, 0.0
                )
                store = want & (recharge_w > 0.0)
                facility_w = recharge_w * n_pdus
                per_battery_w = (facility_w / n_pdus) / n_batteries
                stored = per_battery_w * dt * self._efficiency
                stored = np.minimum(
                    stored, capacity_j - self.battery_energy_j
                )
                self.battery_energy_j = np.where(
                    store,
                    self.battery_energy_j + stored,
                    self.battery_energy_j,
                )

        # --- power topology --------------------------------------------
        server_demand = it_power + recharge_w * n_pdus
        grid_bound = pdu_bound + recharge_w
        per_pdu_demand = server_demand / n_pdus
        grid_w = np.minimum(per_pdu_demand, grid_bound)
        shortfall_w = per_pdu_demand - grid_w
        short = ok & (shortfall_w > 0.0)
        # No element short of grid power: nothing is drawn from the UPS.
        ups_w = np.zeros(self.n)
        if short.any():
            per_battery_draw = shortfall_w / n_batteries
            per_floor_j = ups_floor_per_pdu / n_batteries
            usable_j = np.maximum(0.0, self.battery_energy_j - per_floor_j)
            deliverable = np.minimum(
                per_battery_draw, self.battery_max_discharge_w
            )
            deliverable = np.minimum(deliverable, usable_j / dt)
            deliverable = np.maximum(0.0, deliverable)
            deliverable = np.where(short, deliverable, 0.0)
            draw = short & (deliverable > 0.0)
            drawn_j = deliverable * dt
            self.battery_energy_j = np.where(
                draw,
                np.maximum(0.0, self.battery_energy_j - drawn_j),
                self.battery_energy_j,
            )
            self.battery_discharged_j = np.where(
                draw,
                self.battery_discharged_j + drawn_j,
                self.battery_discharged_j,
            )
            self.battery_cycles = np.where(
                draw,
                self.battery_cycles
                + drawn_j
                / (
                    self.battery_capacity_ah
                    * self._voltage_v
                    * SECONDS_PER_HOUR
                ),
                self.battery_cycles,
            )
            ups_w = deliverable * n_batteries
        deficit_per_pdu = np.maximum(
            0.0, per_pdu_demand - grid_w - ups_w
        )

        pdu_fail = self.pdu.step(
            grid_w, dt, ok, self._pdu_cooldown_factor
        )
        if self._latch(pdu_fail, FAIL_PDU, time_s):
            ok = ok & ~pdu_fail
            all_ok = False
        pdu_grid_total = grid_w * n_pdus
        ups_total = ups_w * n_pdus
        deficit_total = deficit_per_pdu * n_pdus
        dc_feed = pdu_grid_total + cooling_electric
        dc_fail = self.dc.step(dc_feed, dt, ok, self._dc_cooldown_factor)
        if self._latch(dc_fail, FAIL_DC, time_s):
            ok = ok & ~dc_fail
            all_ok = False

        # --- admission + telemetry -------------------------------------
        effective_power = it_power - deficit_total
        needs_refit = ~(deficit_total <= 1e-9)
        effective_degree = degree
        if needs_refit.any():
            refit_power = np.where(needs_refit, effective_power, 0.0)
            if not (refit_power >= 0.0).all():
                require_non_negative(
                    float(refit_power.min()), "fleet_power_w"
                )
            effective_degree = np.where(
                needs_refit, self._degree_for_power_vec(refit_power), degree
            )
        capacity = self._capacity_at_degree_vec(effective_degree)
        served = np.minimum(d, capacity)
        dropped = d - served
        self.served_integral = self.served_integral + _masked(
            all_ok, ok, served * dt, 0.0
        )
        self.dropped_integral = self.dropped_integral + _masked(
            all_ok, ok, dropped * dt, 0.0
        )
        self.demand_integral = self.demand_integral + _masked(
            all_ok, ok, d * dt, 0.0
        )

        pdu_rated_total = self.pdu.rated_w * n_pdus
        pdu_overload_w = np.maximum(0.0, pdu_grid_total - pdu_rated_total)
        dc_overload_w = np.maximum(0.0, dc_feed - self.dc.rated_w)
        cb_overload_w = np.maximum(pdu_overload_w, dc_overload_w)
        electric_without_tes = self._overhead * np.minimum(
            it_power, self.chiller_rated_w
        )
        tes_saved_w = np.maximum(
            0.0, electric_without_tes - cooling_electric
        )

        sprinting = effective_degree > _SPRINT_THRESHOLD
        phase = np.where(
            sprinting,
            np.where(
                heat_via_tes > _ACTIVE_POWER_EPS_W,
                3,
                np.where(ups_total > _ACTIVE_POWER_EPS_W, 2, 1),
            ),
            0,
        )
        self.current_phase_code = _masked(
            all_ok, ok, phase, self.current_phase_code
        )
        # ``(phase_ok == code) * dt`` is ``np.where(ok & (phase == code),
        # dt, 0.0)``: True * dt is dt and False * dt is 0.0.
        phase_ok = _masked(all_ok, ok, phase, -1)
        for code in range(len(PHASE_ORDER)):
            self.time_in_phase_s[code] = self.time_in_phase_s[code] + (
                (phase_ok == code) * dt
            )
        self.cb_overload_energy_j = self.cb_overload_energy_j + _masked(
            all_ok, ok, np.where(sprinting, cb_overload_w, 0.0) * dt, 0.0
        )
        self.ups_energy_j = self.ups_energy_j + _masked(
            all_ok, ok, ups_total * dt, 0.0
        )
        self.tes_electric_energy_j = self.tes_electric_energy_j + _masked(
            all_ok, ok, tes_saved_w * dt, 0.0
        )

        # --- chip-level PCM (vector PcmHeatSink.step) ------------------
        if self._has_pcm:
            active_cores = np.minimum(
                effective_degree * self._pcm_normal_cores,
                self._pcm_total_cores_f,
            )
            chip_power = (
                self._pcm_idle + self._pcm_core_power * active_cores
            )
            pcm_excess = np.maximum(0.0, chip_power - self._pcm_normal_p)
            melt = ok & (pcm_excess > 0.0)
            freeze = ok & ~(pcm_excess > 0.0)
            melted_up = np.minimum(
                self._pcm_latent, self.pcm_melted_j + pcm_excess * dt
            )
            melted_down = np.maximum(
                0.0, self.pcm_melted_j - self._pcm_refreeze * dt
            )
            self.pcm_melted_j = np.where(
                melt,
                melted_up,
                np.where(freeze, melted_down, self.pcm_melted_j),
            )
            self.pcm_latched = np.where(
                melt
                & (
                    self.pcm_melted_j
                    >= self._pcm_latent * (1.0 - 1e-12)
                ),
                True,
                np.where(
                    freeze & (self.pcm_melted_j == 0.0),
                    False,
                    self.pcm_latched,
                ),
            )

        served_out = _masked(all_ok, ok, served, 0.0)

        if self.telemetry is not None:
            t = self.telemetry
            nan = math.nan
            if "time_s" in t:
                t["time_s"].append(np.where(ok, time_s, nan))
            if "demand" in t:
                t["demand"].append(np.where(ok, d, nan))
            if "upper_bound" in t:
                t["upper_bound"].append(np.where(ok, upper_bound, nan))
            if "degree" in t:
                t["degree"].append(np.where(ok, effective_degree, nan))
            if "capacity" in t:
                t["capacity"].append(np.where(ok, capacity, nan))
            if "served" in t:
                t["served"].append(np.where(ok, served, nan))
            if "dropped" in t:
                t["dropped"].append(np.where(ok, dropped, nan))
            if "phase" in t:
                t["phase"].append(np.where(ok, phase, -1))
            if "in_burst" in t:
                t["in_burst"].append(ok & in_burst)
            if "it_power_w" in t:
                t["it_power_w"].append(np.where(ok, effective_power, nan))
            if "grid_w" in t:
                t["grid_w"].append(np.where(ok, pdu_grid_total, nan))
            if "ups_w" in t:
                t["ups_w"].append(np.where(ok, ups_total, nan))
            if "cb_overload_w" in t:
                t["cb_overload_w"].append(np.where(ok, cb_overload_w, nan))
            if "tes_heat_w" in t:
                t["tes_heat_w"].append(np.where(ok, heat_via_tes, nan))
            if "tes_electric_saved_w" in t:
                t["tes_electric_saved_w"].append(
                    np.where(ok, tes_saved_w, nan)
                )
            if "cooling_electric_w" in t:
                t["cooling_electric_w"].append(
                    np.where(ok, cooling_electric, nan)
                )
            if "room_temperature_c" in t:
                t["room_temperature_c"].append(
                    np.where(ok, self.room_temperature_c, nan)
                )
            if "pdu_grid_bound_w" in t:
                t["pdu_grid_bound_w"].append(np.where(ok, pdu_bound, nan))

        self.steps_done += 1
        return served_out
