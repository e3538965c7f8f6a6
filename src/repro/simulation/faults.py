"""Fault injection and graceful degradation for simulation runs.

The paper's premise is operating *past* rated limits safely, so the
simulator must be able to answer "what happens when a component actually
fails mid-sprint?" without the whole run (or a whole sweep) crashing.
Related work treats failure as a first-class input — Govindan et al. use
stored energy precisely to ride through power emergencies, and eBuff
studies battery unavailability — and this module gives the reproduction
the same vocabulary:

* a :class:`FaultPlan` is a time-ordered list of :class:`FaultEvent`\\ s
  (breaker forced trips and de-ratings, UPS fleet losses, chiller
  outages, stuck TES valves, telemetry gaps in the demand trace);
* a :class:`FaultInjector` applies the due events to a live
  :class:`~repro.simulation.datacenter.DataCenter` as the engine steps
  through the trace, restores duration-limited faults when they expire,
  and keeps an audit trail of :class:`FaultRecord`\\ s;
* :data:`RECOVERABLE_FAULT_ERRORS` names the substrate exceptions the
  engine may catch (only while a fault plan is active) to degrade the
  run to admission-control-only instead of crashing.

Degradation semantics
---------------------
When a fault destroys serving capacity, the run does not raise: the
controller falls back to admission control on the *surviving* capacity
and the simulation completes, reporting ``fault_events`` and
``aborted_at_s`` on the :class:`~repro.simulation.metrics.SimulationResult`.
The surviving fraction depends on what failed:

* a forced PDU breaker trip of ``fraction`` of the PDU population leaves
  ``1 - fraction`` of the fleet serving at the normal degree;
* a substation (DC-level) breaker trip, or a thermal emergency after a
  chiller outage, takes the whole facility down (surviving 0);
* battery or tank depletion only ends *sprinting* — the facility keeps
  serving at peak-normal capacity (surviving 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

import numpy as np

from repro.errors import (
    BatteryDepletedError,
    BreakerTrippedError,
    ConfigurationError,
    TankDepletedError,
    ThermalEmergencyError,
)
from repro.units import require_finite, require_non_negative

if TYPE_CHECKING:
    from repro.cooling.chiller import ChillerPlant
    from repro.cooling.tes import TesTank
    from repro.power.breaker import CircuitBreaker
    from repro.power.ups import UpsBattery
    from repro.simulation.datacenter import DataCenter
    from repro.workloads.traces import Trace

#: Substrate exceptions the engine may recover from under a fault plan.
#: ConfigurationError is deliberately absent: a bad configuration is a
#: programming error and must keep raising.
RECOVERABLE_FAULT_ERRORS = (
    BreakerTrippedError,
    BatteryDepletedError,
    TankDepletedError,
    ThermalEmergencyError,
)

#: Canonical fault kinds.
FAULT_KINDS = (
    "breaker_trip",
    "breaker_derate",
    "ups_failure",
    "chiller_outage",
    "tes_valve_stuck",
    "trace_gap",
)

#: CLI/JSON shorthand aliases for the canonical kinds.
FAULT_KIND_ALIASES = {
    "breaker": "breaker_trip",
    "derate": "breaker_derate",
    "ups": "ups_failure",
    "chiller": "chiller_outage",
    "tes": "tes_valve_stuck",
    "gap": "trace_gap",
}

#: Default severity per kind (interpretation of ``fraction`` below).
_DEFAULT_FRACTION = {
    "breaker_trip": 1.0,
    "breaker_derate": 0.25,
    "ups_failure": 0.5,
    "chiller_outage": 1.0,
    "tes_valve_stuck": 1.0,
    "trace_gap": 1.0,
}

#: Default fault duration per kind (seconds; inf = permanent).
_DEFAULT_DURATION_S = {
    "breaker_trip": math.inf,
    "breaker_derate": math.inf,
    "ups_failure": math.inf,
    "chiller_outage": math.inf,
    "tes_valve_stuck": math.inf,
    "trace_gap": 60.0,
}

#: Valid breaker targets.
_BREAKER_TARGETS = ("pdu", "dc")


def canonical_fault_kind(kind: str) -> str:
    """Resolve a kind or alias to its canonical name (raises if unknown)."""
    resolved = FAULT_KIND_ALIASES.get(kind, kind)
    if resolved not in FAULT_KINDS:
        raise ConfigurationError(
            f"unknown fault kind {kind!r}; expected one of "
            f"{', '.join(FAULT_KINDS)} (or aliases "
            f"{', '.join(sorted(FAULT_KIND_ALIASES))})"
        )
    return resolved


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault to inject into the substrate.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS` (aliases are resolved).
    time_s:
        Simulation time at which the fault strikes.
    fraction:
        Severity in (0, 1]: the share of PDU breakers forced open, of the
        breaker rating lost to de-rating, of the UPS fleet failed, of the
        chiller capacity lost, or of the TES valve closed.  A
        ``breaker_derate`` must keep some rating, so its fraction is below
        1 (``breaker_trip`` opens a breaker outright).  Ignored for
        ``trace_gap``.
    duration_s:
        How long the fault lasts before the component is restored;
        ``math.inf`` (the default for everything but ``trace_gap``) means
        permanent.  For ``trace_gap`` this is the length of the telemetry
        gap during which the last good demand sample is held.
    target:
        ``"pdu"`` or ``"dc"`` — which breaker level a ``breaker_trip`` /
        ``breaker_derate`` hits.  Ignored for other kinds.
    """

    kind: str
    time_s: float
    fraction: float = math.nan
    duration_s: float = math.nan
    target: str = "pdu"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", canonical_fault_kind(self.kind))
        require_finite(self.time_s, "time_s")
        require_non_negative(self.time_s, "time_s")
        if math.isnan(self.fraction):
            object.__setattr__(
                self, "fraction", _DEFAULT_FRACTION[self.kind]
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must be in (0, 1], got {self.fraction!r}"
            )
        if self.kind == "breaker_derate" and self.fraction == 1.0:
            raise ConfigurationError(
                "breaker_derate fraction must be below 1: a 100% de-rate "
                "leaves the breaker no rating; use breaker_trip to force "
                "it open"
            )
        if math.isnan(self.duration_s):
            object.__setattr__(
                self, "duration_s", _DEFAULT_DURATION_S[self.kind]
            )
        if not self.duration_s > 0.0:
            raise ConfigurationError(
                f"duration_s must be > 0, got {self.duration_s!r}"
            )
        if self.target not in _BREAKER_TARGETS:
            raise ConfigurationError(
                f"target must be one of {_BREAKER_TARGETS}, got "
                f"{self.target!r}"
            )

    # ------------------------------------------------------------------
    # Parsing / serialisation
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultEvent":
        """Parse the CLI grammar ``kind@TIME[s][:key=val,...]``.

        Examples: ``breaker@120s``, ``chiller@300s:fraction=0.5,duration=120``,
        ``breaker@60s:target=dc``, ``gap@10s:duration=30``.
        """
        head, sep, tail = spec.partition(":")
        kind_str, at, time_str = head.partition("@")
        if not at or not kind_str or not time_str:
            raise ConfigurationError(
                f"fault spec {spec!r} does not match kind@TIMEs[:key=val,...]"
            )
        time_str = time_str.rstrip("s")
        try:
            time_s = float(time_str)
        except ValueError:
            raise ConfigurationError(
                f"fault spec {spec!r} has a non-numeric time {time_str!r}"
            ) from None
        params: Dict[str, Any] = {}
        if sep:
            for item in tail.split(","):
                key, eq, value = item.partition("=")
                key = key.strip()
                if not eq or not key:
                    raise ConfigurationError(
                        f"fault spec {spec!r}: parameter {item!r} is not "
                        "key=value"
                    )
                if key in ("fraction", "duration", "duration_s"):
                    try:
                        parsed = float(value.rstrip("s"))
                    except ValueError:
                        raise ConfigurationError(
                            f"fault spec {spec!r}: parameter {key} has a "
                            f"non-numeric value {value!r}"
                        ) from None
                    params["duration_s" if key.startswith("d") else key] = parsed
                elif key == "target":
                    params["target"] = value.strip()
                else:
                    raise ConfigurationError(
                        f"fault spec {spec!r}: unknown parameter {key!r} "
                        "(expected fraction, duration or target)"
                    )
        return cls(kind=kind_str.strip(), time_s=time_s, **params)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form; infinite duration maps to ``null``."""
        return {
            "kind": self.kind,
            "time_s": self.time_s,
            "fraction": self.fraction,
            "duration_s": (
                None if math.isinf(self.duration_s) else self.duration_s
            ),
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        """Inverse of :meth:`to_dict`; missing keys take their defaults."""
        if "kind" not in data or "time_s" not in data:
            raise ConfigurationError(
                f"fault event requires 'kind' and 'time_s', got {data!r}"
            )
        duration = data.get("duration_s", math.nan)
        if duration is None:
            duration = math.inf
        return cls(
            kind=data["kind"],
            time_s=float(data["time_s"]),
            fraction=float(data.get("fraction", math.nan)),
            duration_s=float(duration),
            target=data.get("target", "pdu"),
        )


@dataclass(frozen=True)
class FaultRecord:
    """One fault actually applied (or degradation entered) during a run."""

    time_s: float
    kind: str
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form for caching and reports."""
        return {"time_s": self.time_s, "kind": self.kind, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            time_s=float(data["time_s"]),
            kind=str(data["kind"]),
            detail=str(data["detail"]),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered collection of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time_s, e.kind, e.target))
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_specs(cls, specs: Sequence[str]) -> "FaultPlan":
        """Build a plan from CLI-style specs (``breaker@120s`` etc.)."""
        return cls(tuple(FaultEvent.parse(s) for s in specs))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Build a plan from the JSON schema ``{"events": [...]}``."""
        if "events" not in data or not isinstance(data["events"], list):
            raise ConfigurationError(
                "fault plan JSON must be an object with an 'events' list"
            )
        return cls(tuple(FaultEvent.from_dict(e) for e in data["events"]))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from a JSON document string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"fault plan is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file on disk."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (inverse of :meth:`from_dict`)."""
        return {"events": [e.to_dict() for e in self.events]}

    def canonical(self) -> Dict[str, Any]:
        """Deterministic form for cache keys: sorted events, null for inf."""
        return self.to_dict()


class FaultInjector:
    """Applies a :class:`FaultPlan` to a live facility as time advances.

    The engine calls :meth:`apply_due` once per control period *before*
    stepping the controller; due events mutate the substrate (force-trip
    a breaker, fail a UPS fraction, zero the chiller, close the TES
    valve) and duration-limited faults are automatically restored when
    they expire.  Telemetry gaps never touch the substrate: they are
    realised by :meth:`effective_demand` holding the last good sample.
    """

    def __init__(self, plan: FaultPlan, datacenter: "DataCenter") -> None:
        self.plan = plan
        self.datacenter = datacenter
        #: Audit trail of everything applied/restored, in time order.
        self.records: List[FaultRecord] = []
        self._pending: List[FaultEvent] = list(plan.events)
        #: (expiry time, restore callable, record kind, record detail)
        self._expiries: List[Tuple[float, Any, str, str]] = []
        #: Active telemetry-gap windows as (start, end) pairs.
        self._gaps: List[Tuple[float, float]] = []
        self._last_good_demand = 0.0
        #: Surviving-capacity fraction demanded by a capacity-destroying
        #: fault (consumed by the engine via :meth:`take_degradation`).
        self._degradation: Optional[Tuple[float, str]] = None
        #: Undo actions restoring every substrate parameter this injector
        #: mutated (``reset()`` only restores *state*, not ratings).
        self._undo: List[Any] = []
        #: Forced-trip fraction of the PDU population (informs the
        #: surviving capacity when a BreakerTrippedError surfaces).
        self._pdu_forced_fraction: Optional[float] = None

    # ------------------------------------------------------------------
    # Per-step hooks
    # ------------------------------------------------------------------
    def apply_due(self, time_s: float) -> List[FaultRecord]:
        """Apply every event due at ``time_s``; returns the new records.

        Expired duration-limited faults are restored first, so an outage
        of exactly one control period is active for exactly one step.
        """
        new: List[FaultRecord] = []
        still_armed = []
        for expiry_s, restore, kind, detail in self._expiries:
            if time_s >= expiry_s:
                restore()
                record = FaultRecord(time_s, f"{kind}:restored", detail)
                self.records.append(record)
                new.append(record)
            else:
                still_armed.append((expiry_s, restore, kind, detail))
        self._expiries = still_armed

        while self._pending and self._pending[0].time_s <= time_s:
            event = self._pending.pop(0)
            record = self._apply(event, time_s)
            self.records.append(record)
            new.append(record)
        return new

    def next_boundary_s(self) -> float:
        """Earliest time at which :meth:`apply_due` would change anything.

        That is the next pending event or armed expiry, ``math.inf`` when
        neither is left.  Between two boundaries the substrate is frozen
        as far as the plan is concerned, so the engine runs the samples in
        between as one span-engine segment.  Telemetry gaps need no
        boundary of their own: :meth:`effective_demand` realises them on
        the demand fed into the segment.
        """
        boundary = self._pending[0].time_s if self._pending else math.inf
        for expiry_s, _, _, _ in self._expiries:
            if expiry_s < boundary:
                boundary = expiry_s
        return boundary

    def effective_demand(self, demand: float, time_s: float) -> float:
        """The demand the controller should see at ``time_s``.

        Inside a telemetry gap the last good sample is held (the standard
        hold-last-value imputation for a dead sensor feed); outside gaps
        the sample passes through and becomes the new last-good value.
        """
        for start_s, end_s in self._gaps:
            if start_s <= time_s < end_s:
                return self._last_good_demand
        self._last_good_demand = demand
        return demand

    def take_degradation(self) -> Optional[Tuple[float, str]]:
        """Consume a pending (surviving fraction, reason) degradation."""
        degradation = self._degradation
        self._degradation = None
        return degradation

    def restore_substrate(self) -> None:
        """Undo every rating/capacity mutation this injector applied.

        Called by the engine when the run ends so the faulted facility can
        be reused: ``DataCenter.reset()`` restores *state* (charge, trip
        latches, room temperature) but knows nothing about mutated
        ratings.  Undo actions run in reverse application order.
        """
        while self._undo:
            self._undo.pop()()

    def surviving_capacity_for(self, error: Exception) -> float:
        """Surviving capacity fraction after a recoverable substrate error.

        * DC-level breaker trip or thermal emergency: the whole facility
          is dark / shut down — 0.
        * PDU breaker trip: if the trip was injected on a fraction of the
          population, the rest keeps serving; a *natural* trip of the
          representative PDU means every (identical) PDU tripped — 0.
        * Battery or tank depletion: storage is exhausted but the grid
          feed is intact — sprinting ends, normal capacity survives — 1.
        """
        if isinstance(error, ThermalEmergencyError):
            return 0.0
        if isinstance(error, BreakerTrippedError):
            dc_name = self.datacenter.topology.dc_breaker.name
            if getattr(error, "breaker_name", None) == dc_name:
                return 0.0
            if self._pdu_forced_fraction is not None:
                return max(0.0, 1.0 - self._pdu_forced_fraction)
            return 0.0
        return 1.0

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent, time_s: float) -> FaultRecord:
        handler = getattr(self, f"_apply_{event.kind}")
        detail = handler(event, time_s)
        return FaultRecord(time_s, event.kind, detail)

    def _arm_expiry(
        self,
        event: FaultEvent,
        time_s: float,
        restore: Callable[[], None],
        detail: str,
    ) -> None:
        if math.isfinite(event.duration_s):
            self._expiries.append(
                (time_s + event.duration_s, restore, event.kind, detail)
            )

    def _apply_breaker_trip(self, event: FaultEvent, time_s: float) -> str:
        topology = self.datacenter.topology
        if event.target == "dc":
            topology.dc_breaker.force_trip(time_s)
            self._degradation = (
                0.0,
                f"forced trip of {topology.dc_breaker.name}",
            )
            return f"{topology.dc_breaker.name} forced open"
        topology.pdu.breaker.force_trip(time_s)
        self._pdu_forced_fraction = event.fraction
        surviving = max(0.0, 1.0 - event.fraction)
        self._degradation = (
            surviving,
            f"forced trip of {event.fraction:.0%} of PDU breakers",
        )
        return (
            f"{event.fraction:.0%} of PDU breakers forced open "
            f"({surviving:.0%} of the fleet survives)"
        )

    def _apply_breaker_derate(self, event: FaultEvent, time_s: float) -> str:
        topology = self.datacenter.topology
        breaker = (
            topology.dc_breaker if event.target == "dc" else topology.pdu.breaker
        )
        original_w = breaker.rated_power_w
        breaker.derate(1.0 - event.fraction)

        def restore(
            b: "CircuitBreaker" = breaker, w: float = original_w
        ) -> None:
            b.rated_power_w = w

        detail = (
            f"{breaker.name} de-rated by {event.fraction:.0%} "
            f"({original_w:.0f} W -> {breaker.rated_power_w:.0f} W)"
        )
        self._arm_expiry(event, time_s, restore, detail)
        self._undo.append(restore)
        return detail

    def _apply_ups_failure(self, event: FaultEvent, time_s: float) -> str:
        ups = self.datacenter.topology.pdu.ups
        battery = ups.battery
        original_ah = battery.capacity_ah
        original_rate_w = battery.max_discharge_power_w

        def restore(
            b: "UpsBattery" = battery,
            ah: float = original_ah,
            rate: float = original_rate_w,
        ) -> None:
            b.capacity_ah = ah
            b.max_discharge_power_w = rate

        self._undo.append(restore)
        ups.fail_fraction(event.fraction)
        return (
            f"{event.fraction:.0%} of the UPS fleet failed "
            f"({ups.energy_j:.0f} J remain per PDU group)"
        )

    def _apply_chiller_outage(self, event: FaultEvent, time_s: float) -> str:
        chiller = self.datacenter.cooling.chiller
        original_w = chiller.rated_removal_w
        chiller.rated_removal_w = original_w * (1.0 - event.fraction)

        def restore(c: "ChillerPlant" = chiller, w: float = original_w) -> None:
            c.rated_removal_w = w

        detail = (
            f"chiller outage: removal capacity {original_w:.0f} W -> "
            f"{chiller.rated_removal_w:.0f} W"
        )
        self._arm_expiry(event, time_s, restore, detail)
        self._undo.append(restore)
        return detail

    def _apply_tes_valve_stuck(self, event: FaultEvent, time_s: float) -> str:
        tes = self.datacenter.cooling.tes
        if tes is None:
            return "TES valve fault ignored: facility has no TES tank"
        original_w = tes.max_discharge_w
        tes.max_discharge_w = original_w * (1.0 - event.fraction)

        def restore(t: "TesTank" = tes, w: float = original_w) -> None:
            t.max_discharge_w = w

        detail = (
            f"TES valve stuck: discharge limit {original_w:.0f} W -> "
            f"{tes.max_discharge_w:.0f} W"
        )
        self._arm_expiry(event, time_s, restore, detail)
        self._undo.append(restore)
        return detail

    def _apply_trace_gap(self, event: FaultEvent, time_s: float) -> str:
        end_s = time_s + event.duration_s
        self._gaps.append((time_s, end_s))
        span = "the rest of the trace" if math.isinf(end_s) else f"{end_s:g} s"
        return (
            f"telemetry gap from {time_s:g} s to {span}: holding the last "
            "good demand sample"
        )


def effective_demand_series(plan: FaultPlan, trace: "Trace") -> np.ndarray:
    """The demand a faulted run's controller sees, sample by sample.

    Telemetry gaps hold the last good sample
    (:meth:`FaultInjector.effective_demand`); a gap opens at the first
    sample whose time reaches its event, as :meth:`FaultInjector.apply_due`
    fires it, so the series depends on the plan and the trace only, never
    on the facility or the strategy.  It is computed by replaying the
    plan's gap events through a gap-only injector, the same calls the
    engine makes per sample, so it equals the ``demand`` column every run
    under ``plan`` logs.
    """
    gaps = FaultPlan(tuple(e for e in plan if e.kind == "trace_gap"))
    if not gaps:
        return np.array(trace.samples, dtype=float)
    # Gap events never touch the substrate, so this injector needs none.
    injector = FaultInjector(gaps, cast("DataCenter", None))
    dt = trace.dt_s
    effective = []
    for m, demand in enumerate(trace.samples.tolist()):
        injector.apply_due(m * dt)
        effective.append(injector.effective_demand(demand, m * dt))
    return np.asarray(effective, dtype=float)
