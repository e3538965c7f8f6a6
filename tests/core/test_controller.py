"""Tests for the three-phase sprinting controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.controller import ControllerSettings, SprintingController
from repro.core.phases import SprintPhase
from repro.core.strategies import FixedUpperBoundStrategy, GreedyStrategy
from repro.errors import ConfigurationError
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter


def run_constant_demand(datacenter, demand, seconds, strategy=None):
    controller = datacenter.controller(strategy or GreedyStrategy())
    steps = [controller.step(demand, float(t)) for t in range(seconds)]
    return controller, steps


class TestNormalOperation:
    def test_idle_below_capacity(self, small_datacenter):
        _, steps = run_constant_demand(small_datacenter, 0.8, 30)
        assert all(s.phase is SprintPhase.IDLE for s in steps)
        assert all(s.served == pytest.approx(0.8) for s in steps)
        assert all(s.dropped == 0.0 for s in steps)

    def test_no_breaker_stress_below_capacity(self, small_datacenter):
        run_constant_demand(small_datacenter, 0.9, 120)
        assert small_datacenter.topology.pdu.breaker.trip_fraction == 0.0

    def test_idle_recharges_drained_ups(self, small_datacenter):
        small_datacenter.topology.pdu.ups.discharge_up_to(500.0, 60.0)
        before = small_datacenter.topology.pdu.ups.state_of_charge
        run_constant_demand(small_datacenter, 0.5, 60)
        after = small_datacenter.topology.pdu.ups.state_of_charge
        assert after > before

    def test_recharge_can_be_disabled(self, small_datacenter):
        small_datacenter.topology.pdu.ups.discharge_up_to(500.0, 60.0)
        before = small_datacenter.topology.pdu.ups.state_of_charge
        controller = SprintingController(
            cluster=small_datacenter.cluster,
            topology=small_datacenter.topology,
            cooling=small_datacenter.cooling,
            strategy=GreedyStrategy(),
            settings=ControllerSettings(recharge_when_idle=False),
        )
        for t in range(60):
            controller.step(0.5, float(t))
        assert small_datacenter.topology.pdu.ups.state_of_charge == (
            pytest.approx(before)
        )


class TestSprinting:
    def test_burst_triggers_sprinting(self, small_datacenter):
        _, steps = run_constant_demand(small_datacenter, 2.0, 30)
        assert steps[-1].sprinting
        assert steps[-1].degree > 1.0
        assert steps[-1].served > 1.0

    def test_served_matches_capacity_of_degree(self, small_datacenter):
        _, steps = run_constant_demand(small_datacenter, 2.0, 10)
        step = steps[-1]
        expected = small_datacenter.cluster.capacity_at_degree(step.degree)
        assert step.served == pytest.approx(min(step.demand, expected))

    def test_phase_progression_cb_then_ups(self, small_datacenter):
        """Phase 1 runs on breaker tolerance alone; as the overload bound
        shrinks the UPS joins (Phase 2) — Fig. 4's T1-T3.

        Demand 2.1 needs degree ~2.5: the initial 60 % overload bound
        covers it for tens of seconds (Phase 1), then the shrinking bound
        hands the difference to the batteries (Phase 2) well before the
        TES activation time.  Much higher demand would engage the UPS from
        the first second; much lower demand would reach the TES timer
        while still on breaker tolerance alone.
        """
        _, steps = run_constant_demand(small_datacenter, 2.1, 150)
        phases = [s.phase for s in steps if s.sprinting]
        assert phases[0] is SprintPhase.PHASE1_CB
        assert SprintPhase.PHASE2_UPS in phases
        first_ups = phases.index(SprintPhase.PHASE2_UPS)
        assert first_ups > 5
        assert all(p is SprintPhase.PHASE1_CB for p in phases[:first_ups])

    def test_phase3_tes_activates_on_schedule(self, small_datacenter):
        controller, steps = run_constant_demand(small_datacenter, 2.6, 400)
        tes_steps = [s for s in steps if s.phase is SprintPhase.PHASE3_TES]
        assert tes_steps
        first = tes_steps[0]
        assert first.time_s >= controller.tes_activation_s - 1.0

    def test_never_trips_breakers(self, small_datacenter):
        """The headline safety property: a 30-minute full burst cannot trip
        anything under controller bounds."""
        run_constant_demand(small_datacenter, 3.2, 1800)
        assert not small_datacenter.topology.pdu.breaker.tripped
        assert not small_datacenter.topology.dc_breaker.tripped

    def test_never_overheats(self, small_datacenter):
        run_constant_demand(small_datacenter, 3.2, 1800)
        room = small_datacenter.cooling.room
        assert room.peak_temperature_c < room.threshold_c

    def test_breaker_reserve_maintained_every_step(self, small_datacenter):
        controller = small_datacenter.controller(GreedyStrategy())
        reserve = controller.settings.reserve_trip_time_s
        for t in range(600):
            step = controller.step(2.6, float(t))
            per_pdu = step.grid_w / small_datacenter.topology.n_pdus
            remaining = (
                small_datacenter.topology.pdu.breaker.remaining_trip_time_s(
                    per_pdu
                )
            )
            assert remaining >= reserve * 0.98

    def test_degree_respects_strategy_bound(self, small_datacenter):
        _, steps = run_constant_demand(
            small_datacenter, 3.0, 120, strategy=FixedUpperBoundStrategy(2.0)
        )
        assert max(s.degree for s in steps) <= 2.0 + 1e-9

    def test_degree_never_exceeds_demand_needs(self, small_datacenter):
        """Cores are activated 'just enough' for the workload."""
        _, steps = run_constant_demand(small_datacenter, 1.5, 60)
        needed = small_datacenter.cluster.degree_for_demand(1.5)
        assert max(s.degree for s in steps) <= needed + 1e-9

    def test_long_burst_eventually_desprints(self, small_datacenter):
        """When the stored energy is gone the degree decays toward the
        sustainable level near 1."""
        _, steps = run_constant_demand(small_datacenter, 3.2, 1800)
        late = steps[-100:]
        assert max(s.degree for s in late) < 1.6

    def test_energy_accounting_positive(self, small_datacenter):
        controller, _ = run_constant_demand(small_datacenter, 2.6, 600)
        shares = controller.phases.energy_shares()
        assert shares["ups"] > 0.0
        assert shares["cb"] > 0.0
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_history_recorded(self, small_datacenter):
        controller, steps = run_constant_demand(small_datacenter, 2.0, 10)
        assert len(controller.history) == 10
        assert controller.history[-1] == steps[-1]


class TestControllerLifecycle:
    def test_reset_restores_everything(self, small_datacenter):
        controller, _ = run_constant_demand(small_datacenter, 3.0, 300)
        controller.reset()
        assert controller.history == []
        assert small_datacenter.topology.ups_energy_j == pytest.approx(
            small_datacenter.topology.ups_capacity_j
        )
        assert small_datacenter.cooling.tes.state_of_charge == pytest.approx(1.0)

    def test_settings_validation(self):
        with pytest.raises(ConfigurationError):
            ControllerSettings(dt_s=0.0)
        with pytest.raises(ConfigurationError):
            ControllerSettings(reserve_trip_time_s=-1.0)

    def test_recharge_fraction_above_one_is_rejected(self):
        # A fraction of the PDU's spare rating: 2.0 recharges past the
        # rating and trips the DC breaker after a burst, so it is refused
        # up front; the whole spare rating (1.0) stays valid.
        settings = ControllerSettings(max_recharge_fraction=1.0)
        assert settings.max_recharge_fraction == 1.0
        for fraction in (1.0 + 1e-9, 2.0, 4.0):
            with pytest.raises(ConfigurationError, match="max_recharge_fraction"):
                ControllerSettings(max_recharge_fraction=fraction)

    def test_emergency_forces_normal_operation(self, small_datacenter):
        controller = small_datacenter.controller(GreedyStrategy())
        for t in range(30):
            controller.step(2.6, float(t))
        controller.safety.declare_emergency(30.0, "utility spike")
        step = controller.step(2.6, 31.0)
        assert step.degree <= 1.0 + 1e-9
