"""Tests for the utility-event scenarios (Section IV-A's special cases)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strategies import FixedUpperBoundStrategy, GreedyStrategy
from repro.power.utility import UtilityEvent, UtilityEventKind, UtilityFeed
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.metrics import SimulationResult
from repro.simulation.scenarios import (
    run_with_utility_events,
    spike_during_sprint_scenario,
)
from repro.workloads.traces import Trace

from tests.core.test_kernel_differential import assert_results_identical

SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=50)


def burst_trace():
    values = [0.8] * 60 + [2.4] * 600 + [0.8] * 60
    return Trace(np.asarray(values, dtype=float), 1.0, "burst")


class TestSpikeDuringSprint:
    def test_spike_forces_normal_operation(self):
        event = UtilityEvent(UtilityEventKind.SPIKE, 200.0, 60.0, 1.15)
        result = run_with_utility_events(
            burst_trace(), [event], config=SMALL
        )
        degrees = result.degrees
        # Sprinting before the spike...
        assert degrees[150] > 1.5
        # ...at most normal during it...
        assert max(degrees[205:255]) <= 1.0 + 1e-9
        # ...and resumed afterwards.
        assert max(degrees[300:400]) > 1.5

    def test_sprint_resumes_with_remaining_energy(self):
        event = UtilityEvent(UtilityEventKind.SPIKE, 200.0, 60.0, 1.15)
        with_spike = run_with_utility_events(
            burst_trace(), [event], config=SMALL
        )
        without = run_with_utility_events(burst_trace(), [], config=SMALL)
        # During the spike window itself, demand goes unserved...
        spike_served = with_spike.served[205:255]
        assert spike_served.max() <= 1.0 + 1e-9
        # ...but overall the episode stays close to the undisturbed run —
        # the energy conserved during the forced pause serves the burst's
        # tail (on an energy-bound burst the pause can even help, the same
        # efficiency effect as a constrained sprinting degree).
        assert with_spike.average_performance == pytest.approx(
            without.average_performance, rel=0.05
        )
        assert with_spike.average_performance > 1.3

    def test_no_events_matches_plain_run(self):
        from repro.core.strategies import GreedyStrategy
        from repro.simulation.engine import simulate_strategy

        plain = simulate_strategy(burst_trace(), GreedyStrategy(), SMALL)
        scenario = run_with_utility_events(burst_trace(), [], config=SMALL)
        assert scenario.average_performance == pytest.approx(
            plain.average_performance
        )

    def test_outage_event_also_desprints(self):
        event = UtilityEvent(UtilityEventKind.OUTAGE, 200.0, 30.0)
        result = run_with_utility_events(burst_trace(), [event], config=SMALL)
        assert max(result.degrees[205:225]) <= 1.0 + 1e-9

    def test_packaged_scenario_runs(self):
        result = spike_during_sprint_scenario(config=SMALL)
        assert result.average_performance > 1.0
        # The spike window is de-sprinted.
        window = result.degrees[555:605]
        assert max(window) <= 1.0 + 1e-9


def reference_run(trace, events, strategy):
    """The spec: the per-sample loop on the reference controller."""
    datacenter = build_datacenter(SMALL)
    datacenter.reset()
    controller = datacenter.controller(strategy, use_kernel=False)
    controller.strategy.reset()
    feed = UtilityFeed(
        nominal_capacity_w=datacenter.topology.dc_breaker.rated_power_w,
        events=list(events),
    )
    active = False
    for i, demand in enumerate(trace):
        time_s = i * trace.dt_s
        event = feed.event_at(time_s)
        if event is not None and not active:
            controller.safety.declare_emergency(
                time_s, f"utility {event.kind.value}"
            )
            active = True
        elif event is None and active:
            controller.safety.clear_emergency()
            active = False
        controller.step(demand, time_s, i)
    return SimulationResult(
        trace=trace,
        strategy_name=controller.strategy.name,
        steps=controller.history.snapshot(),
        energy_shares=controller.phases.energy_shares(),
        time_in_phase_s=dict(controller.phases.time_in_phase_s),
        dropped_integral=controller.admission.dropped_integral,
        served_integral=controller.admission.served_integral,
        demand_integral=controller.admission.demand_integral,
    )


class TestUtilityEventSegments:
    """The scenario runs one span-engine segment per stretch of constant
    feed health, bit-identical to the per-sample reference loop."""

    #: A disturbance from t=0 (no empty leading segment), a mid-burst
    #: spike and an outage starting between samples (at 401 s).
    EVENTS = (
        UtilityEvent(UtilityEventKind.SPIKE, 0.0, 30.0, 1.15),
        UtilityEvent(UtilityEventKind.SPIKE, 200.0, 60.0, 1.15),
        UtilityEvent(UtilityEventKind.OUTAGE, 400.5, 30.0),
    )

    @pytest.mark.parametrize(
        "make_strategy",
        (GreedyStrategy, lambda: FixedUpperBoundStrategy(2.0)),
        ids=("greedy", "fixed"),
    )
    def test_matches_per_sample_reference(self, make_strategy):
        fast = run_with_utility_events(
            burst_trace(), list(self.EVENTS), make_strategy(), config=SMALL
        )
        ref = reference_run(burst_trace(), self.EVENTS, make_strategy())
        assert_results_identical(fast, ref)

    def test_one_segment_per_health_stretch(self, controller_calls):
        run_with_utility_events(burst_trace(), list(self.EVENTS), config=SMALL)
        # [0,30) [30,200) [200,260) [260,401) [401,431) [431,720)
        assert controller_calls == {"step": 0, "run_trace": 6}
