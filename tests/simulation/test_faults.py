"""Tests for the fault-injection subsystem (plans, parsing, injection)."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import (
    BatteryDepletedError,
    BreakerTrippedError,
    ConfigurationError,
    TankDepletedError,
    ThermalEmergencyError,
)
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.faults import (
    FAULT_KIND_ALIASES,
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultRecord,
    RECOVERABLE_FAULT_ERRORS,
    canonical_fault_kind,
)

SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=50)


def small_dc():
    return build_datacenter(SMALL)


class TestFaultEventParse:
    def test_minimal_spec(self):
        event = FaultEvent.parse("breaker@120s")
        assert event.kind == "breaker_trip"
        assert event.time_s == 120.0
        assert event.fraction == 1.0
        assert math.isinf(event.duration_s)
        assert event.target == "pdu"

    def test_time_without_unit_suffix(self):
        assert FaultEvent.parse("chiller@300").time_s == 300.0

    def test_full_parameter_list(self):
        event = FaultEvent.parse(
            "derate@60s:fraction=0.25,duration=120,target=dc"
        )
        assert event.kind == "breaker_derate"
        assert event.fraction == pytest.approx(0.25)
        assert event.duration_s == pytest.approx(120.0)
        assert event.target == "dc"

    def test_duration_s_key_accepted(self):
        assert FaultEvent.parse("gap@10s:duration_s=30").duration_s == 30.0

    @pytest.mark.parametrize("alias,canonical", sorted(FAULT_KIND_ALIASES.items()))
    def test_every_alias_resolves(self, alias, canonical):
        assert FaultEvent.parse(f"{alias}@5s").kind == canonical
        assert canonical_fault_kind(alias) == canonical

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_canonical_kinds_pass_through(self, kind):
        assert canonical_fault_kind(kind) == kind

    @pytest.mark.parametrize(
        "spec",
        [
            "breaker",                      # no @TIME
            "@120s",                        # no kind
            "breaker@",                     # no time
            "breaker@soon",                 # non-numeric time
            "warp@120s",                    # unknown kind
            "breaker@120s:fraction",        # parameter without =
            "breaker@120s:fraction=lots",   # non-numeric fraction
            "breaker@120s:colour=red",      # unknown parameter
            "breaker@120s:fraction=0.0",    # fraction out of (0, 1]
            "breaker@120s:fraction=1.5",
            "gap@120s:duration=0",          # non-positive duration
            "breaker@120s:target=rack",     # unknown target
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            FaultEvent.parse(spec)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="breaker_trip", time_s=-1.0)

    def test_full_breaker_derate_rejected_when_built(self):
        """A 100% de-rate would leave the breaker no rating and raise
        mid-run when injected; the plan rejects it up front and points to
        ``breaker_trip``, which opens a breaker outright."""
        with pytest.raises(ConfigurationError, match="breaker_derate.*breaker_trip"):
            FaultEvent(kind="breaker_derate", time_s=100.0, fraction=1.0)
        with pytest.raises(ConfigurationError, match="breaker_derate.*breaker_trip"):
            FaultEvent.parse("derate@100s:fraction=1.0")
        assert FaultEvent.parse("breaker@100s:fraction=1.0").fraction == 1.0
        nearly = FaultEvent(kind="breaker_derate", time_s=100.0, fraction=0.999)
        assert nearly.fraction == 0.999


class TestFaultEventSerialisation:
    def test_round_trip_preserves_fields(self):
        event = FaultEvent.parse("chiller@300s:fraction=0.5,duration=120")
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_infinite_duration_maps_to_null(self):
        data = FaultEvent.parse("breaker@120s").to_dict()
        assert data["duration_s"] is None
        assert json.loads(json.dumps(data)) == data
        assert math.isinf(FaultEvent.from_dict(data).duration_s)

    def test_from_dict_requires_kind_and_time(self):
        with pytest.raises(ConfigurationError):
            FaultEvent.from_dict({"kind": "breaker_trip"})
        with pytest.raises(ConfigurationError):
            FaultEvent.from_dict({"time_s": 10.0})

    def test_record_round_trip(self):
        record = FaultRecord(12.0, "chiller_outage", "capacity halved")
        assert FaultRecord.from_dict(record.to_dict()) == record


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan.from_specs(["chiller@300s", "breaker@120s"])
        assert [e.time_s for e in plan] == [120.0, 300.0]

    def test_len_and_bool(self):
        assert len(FaultPlan()) == 0
        assert not FaultPlan()
        assert FaultPlan.from_specs(["ups@5s"])

    def test_json_round_trip(self):
        plan = FaultPlan.from_specs(
            ["breaker@120s:fraction=0.5", "gap@10s:duration=30"]
        )
        assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan

    def test_load_from_file(self, tmp_path):
        plan = FaultPlan.from_specs(["chiller@60s:duration=120"])
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.load(str(path)) == plan

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json("not json")

    def test_missing_events_key_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict({"faults": []})

    def test_canonical_is_deterministic(self):
        a = FaultPlan.from_specs(["chiller@300s", "breaker@120s"])
        b = FaultPlan.from_specs(["breaker@120s", "chiller@300s"])
        assert a.canonical() == b.canonical()


class TestFaultInjector:
    def test_events_apply_once_at_due_time(self):
        dc = small_dc()
        injector = FaultInjector(FaultPlan.from_specs(["chiller@10s"]), dc)
        assert injector.apply_due(0.0) == []
        applied = injector.apply_due(10.0)
        assert [r.kind for r in applied] == ["chiller_outage"]
        assert dc.cooling.chiller.rated_removal_w == 0.0
        assert injector.apply_due(11.0) == []
        injector.restore_substrate()

    def test_finite_duration_fault_restores_on_expiry(self):
        dc = small_dc()
        original_w = dc.cooling.chiller.rated_removal_w
        injector = FaultInjector(
            FaultPlan.from_specs(["chiller@10s:duration=5"]), dc
        )
        injector.apply_due(10.0)
        assert dc.cooling.chiller.rated_removal_w == 0.0
        restored = injector.apply_due(15.0)
        assert [r.kind for r in restored] == ["chiller_outage:restored"]
        assert dc.cooling.chiller.rated_removal_w == pytest.approx(original_w)

    def test_restore_substrate_undoes_every_rating_mutation(self):
        dc = small_dc()
        chiller_w = dc.cooling.chiller.rated_removal_w
        tes_w = dc.cooling.tes.max_discharge_w
        breaker_w = dc.topology.pdu.breaker.rated_power_w
        battery = dc.topology.pdu.ups.battery
        battery_ah = battery.capacity_ah
        battery_rate_w = battery.max_discharge_power_w
        injector = FaultInjector(
            FaultPlan.from_specs(
                ["chiller@1s", "tes@1s", "derate@1s:fraction=0.5", "ups@1s"]
            ),
            dc,
        )
        injector.apply_due(1.0)
        assert dc.cooling.chiller.rated_removal_w != chiller_w
        assert dc.cooling.tes.max_discharge_w != tes_w
        assert dc.topology.pdu.breaker.rated_power_w != breaker_w
        assert battery.capacity_ah != battery_ah
        injector.restore_substrate()
        assert dc.cooling.chiller.rated_removal_w == pytest.approx(chiller_w)
        assert dc.cooling.tes.max_discharge_w == pytest.approx(tes_w)
        assert dc.topology.pdu.breaker.rated_power_w == pytest.approx(breaker_w)
        assert battery.capacity_ah == pytest.approx(battery_ah)
        assert battery.max_discharge_power_w == pytest.approx(battery_rate_w)

    def test_trace_gap_holds_last_good_demand(self):
        dc = small_dc()
        injector = FaultInjector(
            FaultPlan.from_specs(["gap@10s:duration=3"]), dc
        )
        assert injector.effective_demand(1.5, 9.0) == 1.5
        injector.apply_due(10.0)
        # Inside the gap the last pre-gap sample is held.
        assert injector.effective_demand(9.9, 10.0) == 1.5
        assert injector.effective_demand(0.1, 12.0) == 1.5
        # The gap is half-open: the sample at start + duration passes.
        assert injector.effective_demand(2.5, 13.0) == 2.5

    def test_forced_pdu_trip_flags_degradation(self):
        dc = small_dc()
        injector = FaultInjector(
            FaultPlan.from_specs(["breaker@10s:fraction=0.25"]), dc
        )
        injector.apply_due(10.0)
        assert dc.topology.pdu.breaker.tripped
        degradation = injector.take_degradation()
        assert degradation is not None
        surviving, reason = degradation
        assert surviving == pytest.approx(0.75)
        assert "forced trip" in reason
        # The pending degradation is consumed exactly once.
        assert injector.take_degradation() is None

    def test_forced_dc_trip_leaves_nothing(self):
        dc = small_dc()
        injector = FaultInjector(
            FaultPlan.from_specs(["breaker@10s:target=dc"]), dc
        )
        injector.apply_due(10.0)
        assert dc.topology.dc_breaker.tripped
        surviving, _ = injector.take_degradation()
        assert surviving == 0.0

    def test_ups_failure_scales_fleet_energy(self):
        dc = small_dc()
        battery = dc.topology.pdu.ups.battery
        original_j = battery.energy_j
        injector = FaultInjector(
            FaultPlan.from_specs(["ups@10s:fraction=0.5"]), dc
        )
        injector.apply_due(10.0)
        assert battery.energy_j == pytest.approx(0.5 * original_j)
        assert battery.max_discharge_power_w == pytest.approx(165.0)
        injector.restore_substrate()


class TestSurvivingCapacity:
    def test_thermal_emergency_kills_everything(self):
        injector = FaultInjector(FaultPlan(), small_dc())
        error = ThermalEmergencyError(40.0, 35.0)
        assert injector.surviving_capacity_for(error) == 0.0

    def test_dc_breaker_trip_kills_everything(self):
        dc = small_dc()
        injector = FaultInjector(FaultPlan(), dc)
        error = BreakerTrippedError(dc.topology.dc_breaker.name, time_s=10.0)
        assert injector.surviving_capacity_for(error) == 0.0

    def test_natural_pdu_trip_kills_everything(self):
        # Every PDU is identical, so an organic trip of the representative
        # breaker means all of them tripped.
        dc = small_dc()
        injector = FaultInjector(FaultPlan(), dc)
        error = BreakerTrippedError(dc.topology.pdu.breaker.name, time_s=10.0)
        assert injector.surviving_capacity_for(error) == 0.0

    def test_forced_pdu_trip_leaves_complement(self):
        dc = small_dc()
        injector = FaultInjector(
            FaultPlan.from_specs(["breaker@10s:fraction=0.3"]), dc
        )
        injector.apply_due(10.0)
        error = BreakerTrippedError(dc.topology.pdu.breaker.name, time_s=10.0)
        assert injector.surviving_capacity_for(error) == pytest.approx(0.7)

    def test_storage_depletion_keeps_normal_capacity(self):
        injector = FaultInjector(FaultPlan(), small_dc())
        assert injector.surviving_capacity_for(BatteryDepletedError()) == 1.0
        assert injector.surviving_capacity_for(TankDepletedError()) == 1.0

    def test_recoverable_errors_tuple_excludes_configuration_error(self):
        assert ConfigurationError not in RECOVERABLE_FAULT_ERRORS
        assert BreakerTrippedError in RECOVERABLE_FAULT_ERRORS
        assert ThermalEmergencyError in RECOVERABLE_FAULT_ERRORS
