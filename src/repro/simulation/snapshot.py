"""Typed snapshot/restore of a running facility (the fork engine).

:class:`FacilityState` captures every piece of mutable run state — breaker
thermal accumulators and trip flags, UPS battery charge, TES charge, room
temperature, the controller's burst/phase/admission/safety state, strategy
plan state, and (optionally) a fault injector's pending events and armed
expiries — and restores it bit-for-bit onto the *same* facility objects.
That round-trip is what makes forked simulation sound: the shared-prefix
Oracle search (:func:`repro.simulation.engine.shared_prefix_oracle_search`)
runs the trace once, snapshots at each candidate's divergence frontier, and
resumes only the suffix per candidate, producing element-wise identical
results to a full re-simulation.

Design notes
------------
* **Same-substrate restore.** A snapshot binds to the facility it was
  captured from: breaker/battery/tank objects are identified positionally,
  and a fault injector's armed expiry callbacks close over the live
  substrate objects.  Restoring onto a different facility is not supported
  (and not needed — forking re-uses one facility).
* **Ratings are state.** Fault injection mutates ratings
  (``rated_power_w``, ``capacity_ah``, ``max_discharge_w``,
  ``rated_removal_w``) in place, so they are captured and restored like any
  accumulator; restoring a pre-fault snapshot un-derates the substrate.
* **Telemetry history is not captured.**  ``controller.history`` grows
  per-step and belongs to a *run*, not to the facility state; callers fork
  from a snapshot with whatever history container they need.  Everything
  that feeds back into the physics *is* captured.
* **NaN-aware equality.** ``tripped_at_s`` and ``last_needed_degree`` are
  NaN before first use; :class:`FacilityState` equality treats NaN as equal
  to itself so capture→restore→capture round-trips compare equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.power.topology import PowerTopology

if TYPE_CHECKING:
    from repro.core.controller import SprintingController
    from repro.core.phases import SprintPhase
    from repro.power.breaker import CircuitBreaker
    from repro.simulation.datacenter import DataCenter
    from repro.simulation.faults import FaultInjector


def _canon(value: Any) -> Any:
    """Map a captured value to a canonical, comparable form (NaN-safe)."""
    if isinstance(value, float) and math.isnan(value):
        return ("nan",)
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            _canon(getattr(value, f.name)) for f in fields(value)
        )
    if isinstance(value, tuple):
        return tuple(_canon(v) for v in value)
    if isinstance(value, list):
        return ("list",) + tuple(_canon(v) for v in value)
    if isinstance(value, dict):
        return ("dict",) + tuple(
            (k, _canon(v)) for k, v in sorted(value.items(), key=repr)
        )
    return value


@dataclass(frozen=True, eq=False)
class BreakerState:
    """One circuit breaker's mutable state (including its fault-mutable rating)."""

    trip_fraction: float
    tripped: bool
    tripped_at_s: float
    time_s: float
    rated_power_w: float

    @classmethod
    def capture(cls, breaker: "CircuitBreaker") -> "BreakerState":
        return cls(
            trip_fraction=breaker.trip_fraction,
            tripped=breaker.tripped,
            tripped_at_s=breaker.tripped_at_s,
            time_s=breaker._time_s,
            rated_power_w=breaker.rated_power_w,
        )

    def restore(self, breaker: "CircuitBreaker") -> None:
        breaker.trip_fraction = self.trip_fraction
        breaker.tripped = self.tripped
        breaker.tripped_at_s = self.tripped_at_s
        breaker._time_s = self.time_s
        breaker.rated_power_w = self.rated_power_w


@dataclass(frozen=True, eq=False)
class InjectorState:
    """A :class:`~repro.simulation.faults.FaultInjector`'s mutable state.

    Pending events and records are immutable objects (shallow list copies
    suffice); armed expiry/undo callbacks close over the live substrate
    objects and their *original* values, so they remain valid for restores
    onto the same facility.
    """

    records: Tuple[Any, ...]
    pending: Tuple[Any, ...]
    expiries: Tuple[Any, ...]
    gaps: Tuple[Any, ...]
    last_good_demand: float
    degradation: Optional[Tuple[float, str]]
    undo: Tuple[Any, ...]
    pdu_forced_fraction: Optional[float]

    @classmethod
    def capture(cls, injector: "FaultInjector") -> "InjectorState":
        return cls(
            records=tuple(injector.records),
            pending=tuple(injector._pending),
            expiries=tuple(injector._expiries),
            gaps=tuple(injector._gaps),
            last_good_demand=injector._last_good_demand,
            degradation=injector._degradation,
            undo=tuple(injector._undo),
            pdu_forced_fraction=injector._pdu_forced_fraction,
        )

    def restore(self, injector: "FaultInjector") -> None:
        injector.records = list(self.records)
        injector._pending = list(self.pending)
        injector._expiries = list(self.expiries)
        injector._gaps = list(self.gaps)
        injector._last_good_demand = self.last_good_demand
        injector._degradation = self.degradation
        injector._undo = list(self.undo)
        injector._pdu_forced_fraction = self.pdu_forced_fraction


@dataclass(frozen=True, eq=False)
class FacilityState:
    """Complete mutable state of one facility + controller (+ injector).

    Create with :meth:`capture`; apply with :meth:`restore`.  Equality is
    field-wise with NaN treated as self-equal, so
    ``FacilityState.capture(...) == state`` immediately after
    ``state.restore(...)`` — the bit-for-bit round-trip contract the
    shared-prefix search is built on.
    """

    # --- power -------------------------------------------------------
    pdu_breaker: BreakerState
    dc_breaker: BreakerState
    battery_energy_j: float
    battery_total_discharged_j: float
    battery_equivalent_full_cycles: float
    battery_capacity_ah: float
    battery_max_discharge_power_w: float
    # --- cooling -----------------------------------------------------
    tes: Optional[Tuple[float, float, float]]  # (energy, absorbed, max_w)
    chiller_rated_removal_w: float
    room_temperature_c: float
    room_peak_temperature_c: float
    # --- chip thermals ----------------------------------------------
    pcm: Optional[Tuple[float, bool]]  # (melted_j, latched)
    # --- controller --------------------------------------------------
    detector_in_burst: bool
    detector_burst_started_at_s: Optional[float]
    detector_below_since_s: Optional[float]
    budget_snapshot_total_j: Optional[float]
    phases_time_in_phase_s: Dict["SprintPhase", float]
    phases_cb_overload_energy_j: float
    phases_ups_energy_j: float
    phases_tes_electric_energy_j: float
    phases_current_phase: "SprintPhase"
    admission_served_integral: float
    admission_dropped_integral: float
    admission_demand_integral: float
    safety_emergency_latched: bool
    safety_events: Tuple[Any, ...]
    burst_was_active: bool
    degraded_capacity: Optional[float]
    last_needed_degree: float
    strategy_state: Optional[Tuple[Any, ...]]
    # --- faults ------------------------------------------------------
    injector: Optional[InjectorState]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FacilityState):
            return NotImplemented
        for f in fields(self):
            if _canon(getattr(self, f.name)) != _canon(getattr(other, f.name)):
                return False
        return True

    def __hash__(self) -> int:  # pragma: no cover - identity is enough
        return id(self)

    @classmethod
    def capture(
        cls,
        datacenter: "DataCenter",
        controller: "SprintingController",
        injector: Optional["FaultInjector"] = None,
    ) -> "FacilityState":
        """Capture the complete mutable state of ``datacenter`` + ``controller``.

        Raises :class:`~repro.errors.ConfigurationError` when the facility
        uses a topology other than the representative-PDU
        :class:`~repro.power.topology.PowerTopology` (per-child breaker
        state is not modelled here), or when the controller drives a
        different substrate than ``datacenter``.
        """
        topology = datacenter.topology
        if type(topology) is not PowerTopology:
            raise ConfigurationError(
                "FacilityState supports the representative-PDU PowerTopology "
                f"only, got {type(topology).__name__}"
            )
        if controller.topology is not topology:
            raise ConfigurationError(
                "controller does not drive the given datacenter's substrate"
            )
        cooling = datacenter.cooling
        battery = topology.pdu.ups_battery
        tes = cooling.tes
        room = cooling.room
        pcm = controller.pcm
        detector = controller.detector
        phases = controller.phases
        admission = controller.admission
        return cls(
            pdu_breaker=BreakerState.capture(topology.pdu.breaker),
            dc_breaker=BreakerState.capture(topology.dc_breaker),
            battery_energy_j=battery.energy_j,
            battery_total_discharged_j=battery.total_discharged_j,
            battery_equivalent_full_cycles=battery.equivalent_full_cycles,
            battery_capacity_ah=battery.capacity_ah,
            battery_max_discharge_power_w=battery.max_discharge_power_w,
            tes=(
                None
                if tes is None
                else (tes.energy_j, tes.total_absorbed_j, tes.max_discharge_w)
            ),
            chiller_rated_removal_w=cooling.chiller.rated_removal_w,
            room_temperature_c=room.temperature_c,
            room_peak_temperature_c=room.peak_temperature_c,
            pcm=None if pcm is None else (pcm.melted_j, pcm._latched),
            detector_in_burst=detector.in_burst,
            detector_burst_started_at_s=detector.burst_started_at_s,
            detector_below_since_s=detector._below_since_s,
            budget_snapshot_total_j=controller.budget._snapshot_total_j,
            phases_time_in_phase_s=dict(phases.time_in_phase_s),
            phases_cb_overload_energy_j=phases.cb_overload_energy_j,
            phases_ups_energy_j=phases.ups_energy_j,
            phases_tes_electric_energy_j=phases.tes_electric_energy_j,
            phases_current_phase=phases.current_phase,
            admission_served_integral=admission.served_integral,
            admission_dropped_integral=admission.dropped_integral,
            admission_demand_integral=admission.demand_integral,
            safety_emergency_latched=controller.safety._emergency_latched,
            safety_events=tuple(controller.safety.events),
            burst_was_active=controller._burst_was_active,
            degraded_capacity=controller._degraded_capacity,
            last_needed_degree=controller.last_needed_degree,
            strategy_state=controller.strategy.snapshot_state(),
            injector=None if injector is None else InjectorState.capture(injector),
        )

    def restore(
        self,
        datacenter: "DataCenter",
        controller: "SprintingController",
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        """Restore this state onto the facility it was captured from.

        ``controller`` may be a *different* controller instance over the
        same substrate (the shared-prefix search builds a fresh controller
        per candidate) — its strategy then starts from the captured plan
        state.
        """
        topology = datacenter.topology
        if type(topology) is not PowerTopology:
            raise ConfigurationError(
                "FacilityState supports the representative-PDU PowerTopology "
                f"only, got {type(topology).__name__}"
            )
        if controller.topology is not topology:
            raise ConfigurationError(
                "controller does not drive the given datacenter's substrate"
            )
        if (self.injector is None) != (injector is None):
            raise ConfigurationError(
                "snapshot and restore must agree on fault-injector presence"
            )
        cooling = datacenter.cooling
        battery = topology.pdu.ups_battery
        self.pdu_breaker.restore(topology.pdu.breaker)
        self.dc_breaker.restore(topology.dc_breaker)
        battery.energy_j = self.battery_energy_j
        battery.total_discharged_j = self.battery_total_discharged_j
        battery.equivalent_full_cycles = self.battery_equivalent_full_cycles
        battery.capacity_ah = self.battery_capacity_ah
        battery.max_discharge_power_w = self.battery_max_discharge_power_w
        if self.tes is not None:
            tes = cooling.tes
            if tes is None:
                raise ConfigurationError(
                    "snapshot carries TES state but the facility has no tank"
                )
            tes.energy_j, tes.total_absorbed_j, tes.max_discharge_w = self.tes
        cooling.chiller.rated_removal_w = self.chiller_rated_removal_w
        room = cooling.room
        room.temperature_c = self.room_temperature_c
        room.peak_temperature_c = self.room_peak_temperature_c
        if self.pcm is not None:
            pcm = controller.pcm
            if pcm is None:
                raise ConfigurationError(
                    "snapshot carries PCM state but the controller has no PCM"
                )
            pcm.melted_j, pcm._latched = self.pcm
        detector = controller.detector
        detector.in_burst = self.detector_in_burst
        detector.burst_started_at_s = self.detector_burst_started_at_s
        detector._below_since_s = self.detector_below_since_s
        controller.budget._snapshot_total_j = self.budget_snapshot_total_j
        phases = controller.phases
        phases.time_in_phase_s = dict(self.phases_time_in_phase_s)
        phases.cb_overload_energy_j = self.phases_cb_overload_energy_j
        phases.ups_energy_j = self.phases_ups_energy_j
        phases.tes_electric_energy_j = self.phases_tes_electric_energy_j
        phases.current_phase = self.phases_current_phase
        admission = controller.admission
        admission.served_integral = self.admission_served_integral
        admission.dropped_integral = self.admission_dropped_integral
        admission.demand_integral = self.admission_demand_integral
        controller.safety._emergency_latched = self.safety_emergency_latched
        controller.safety.events = list(self.safety_events)
        controller._burst_was_active = self.burst_was_active
        controller._degraded_capacity = self.degraded_capacity
        controller.last_needed_degree = self.last_needed_degree
        controller.strategy.restore_state(self.strategy_state)
        if self.injector is not None and injector is not None:
            self.injector.restore(injector)


def capture(
    datacenter: "DataCenter",
    controller: "SprintingController",
    injector: Optional["FaultInjector"] = None,
) -> FacilityState:
    """Module-level alias of :meth:`FacilityState.capture`."""
    return FacilityState.capture(datacenter, controller, injector)


def restore(
    state: FacilityState,
    datacenter: "DataCenter",
    controller: "SprintingController",
    injector: Optional["FaultInjector"] = None,
) -> None:
    """Module-level alias of :meth:`FacilityState.restore`."""
    state.restore(datacenter, controller, injector)


__all__ = [
    "BreakerState",
    "FacilityState",
    "InjectorState",
    "capture",
    "restore",
]
