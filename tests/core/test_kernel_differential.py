"""Differential validation of the precomputed step kernel.

The :class:`~repro.core.kernel.StepKernel` is a hand-inlined fast path
that must replicate the reference controller's sequence of floating-point
operations *exactly* — not approximately.  Every test here drives the same
inputs through both paths (``use_kernel=True`` vs ``False``) and asserts
element-wise equality on all per-step telemetry, the admission integrals,
the phase-tracker accumulators and the fault records.  Any relaxation to
``approx`` would defeat the point: the kernel's contract is bit-identity.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.controller import ControllerSettings, SprintingController
from repro.core.steplog import StepLog
from repro.core.strategies import FixedUpperBoundStrategy, GreedyStrategy
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import run_simulation
from repro.simulation.faults import FaultEvent, FaultPlan
from repro.workloads.traces import Trace

#: Small facility: same per-server ratios as the paper config, cheap to run.
SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=50)


def random_trace(seed: int, n: int = 420, dt_s: float = 1.0) -> Trace:
    """A randomised demand trace with idle stretches and hard bursts."""
    rng = np.random.default_rng(seed)
    base = 0.55 + 0.3 * rng.random(n)
    # A couple of rectangular bursts of random degree and duration.
    for _ in range(rng.integers(1, 4)):
        start = int(rng.integers(0, n - 40))
        length = int(rng.integers(20, 120))
        base[start:start + length] += rng.uniform(0.8, 3.0)
    return Trace(np.clip(base, 0.0, 4.5), dt_s=dt_s, name=f"random-{seed}")


def assert_results_identical(fast, ref):
    """Every observable of the two runs must match bit-for-bit."""
    assert len(fast.steps) == len(ref.steps)
    # StepLog equality is column-wise np.array_equal — exact, NaN-aware.
    assert fast.steps == ref.steps
    assert fast.energy_shares == ref.energy_shares
    assert fast.time_in_phase_s == ref.time_in_phase_s
    assert fast.dropped_integral == ref.dropped_integral
    assert fast.served_integral == ref.served_integral
    assert fast.demand_integral == ref.demand_integral
    assert fast.aborted_at_s == ref.aborted_at_s
    assert fast.fault_events == ref.fault_events


class TestKernelMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces_greedy(self, seed):
        trace = random_trace(seed)
        fast = run_simulation(
            build_datacenter(SMALL), trace, GreedyStrategy(), use_kernel=True
        )
        ref = run_simulation(
            build_datacenter(SMALL), trace, GreedyStrategy(), use_kernel=False
        )
        assert_results_identical(fast, ref)

    @pytest.mark.parametrize("seed", (10, 11, 12))
    @pytest.mark.parametrize("bound", (2.0, 3.5))
    def test_random_traces_fixed_bound(self, seed, bound):
        trace = random_trace(seed)
        strategy = FixedUpperBoundStrategy(bound)
        fast = run_simulation(
            build_datacenter(SMALL), trace, strategy, use_kernel=True
        )
        ref = run_simulation(
            build_datacenter(SMALL), trace, strategy, use_kernel=False
        )
        assert_results_identical(fast, ref)

    def test_ms_trace_full_facility(self, ms_trace):
        """The golden workload on the paper-size facility."""
        fast = run_simulation(
            build_datacenter(), ms_trace, GreedyStrategy(), use_kernel=True
        )
        ref = run_simulation(
            build_datacenter(), ms_trace, GreedyStrategy(), use_kernel=False
        )
        assert_results_identical(fast, ref)

    @pytest.mark.parametrize("seed", (20, 21))
    def test_with_fault_plan(self, seed):
        """Fault injection and graceful degradation follow the same path."""
        trace = random_trace(seed, n=360)
        plan = FaultPlan((
            FaultEvent.parse("breaker@90s:fraction=0.5"),
            FaultEvent.parse("chiller@180s:fraction=0.5,duration=60"),
        ))
        fast = run_simulation(
            build_datacenter(SMALL), trace, GreedyStrategy(),
            fault_plan=plan, use_kernel=True,
        )
        ref = run_simulation(
            build_datacenter(SMALL), trace, GreedyStrategy(),
            fault_plan=plan, use_kernel=False,
        )
        assert_results_identical(fast, ref)

    def test_ups_outage_reserve(self):
        """The UPS-floor constraint must bind identically in both paths."""
        trace = random_trace(30)
        settings = ControllerSettings(ups_outage_reserve_fraction=0.4)
        steps = {}
        for use_kernel in (True, False):
            dc = build_datacenter(SMALL)
            controller = SprintingController(
                cluster=dc.cluster,
                topology=dc.topology,
                cooling=dc.cooling,
                strategy=GreedyStrategy(),
                settings=settings,
                use_kernel=use_kernel,
            )
            for i, demand in enumerate(trace):
                controller.step(demand, float(i))
            steps[use_kernel] = controller.history.snapshot()
        assert steps[True] == steps[False]

    def test_quiescent_fast_forward_engages_and_matches(self, monkeypatch):
        """Flat demand is the fast-forward sweet spot: after the first
        repeated quiescent sample the span engine replays the idle fixed
        point in bulk.  The replayed telemetry must still match per-sample
        reference stepping bit-for-bit, and the replay must actually have
        engaged (otherwise this test would silently stop covering it)."""
        replayed = []
        original = StepLog.extend_cycle

        def spy(self, steps, repeats, times=None):
            replayed.append(len(steps) * repeats)
            original(self, steps, repeats, times)

        monkeypatch.setattr(StepLog, "extend_cycle", spy)
        flat = Trace(np.full(600, 0.8), dt_s=1.0, name="flat")
        histories = {}
        for use_kernel in (True, False):
            dc = build_datacenter(SMALL)
            controller = SprintingController(
                cluster=dc.cluster,
                topology=dc.topology,
                cooling=dc.cooling,
                strategy=FixedUpperBoundStrategy(3.0),
                use_kernel=use_kernel,
            )
            if use_kernel:
                controller.run_trace(flat)
            else:
                for i, demand in enumerate(flat):
                    controller.step(demand, float(i))
            histories[use_kernel] = controller.history.snapshot()
        assert histories[True] == histories[False]
        assert sum(replayed) > 500, "the idle fixed point was never replayed"

    def test_fast_forward_cache_invalidated_by_burst(self):
        """A burst breaks the fixed point; post-burst steps must still be
        identical to the reference (the cache re-arms with fresh state)."""
        values = np.concatenate([
            np.full(120, 0.8), np.full(90, 2.4), np.full(240, 0.8)
        ])
        trace = Trace(values, dt_s=1.0, name="flat-burst-flat")
        fast = run_simulation(
            build_datacenter(SMALL), trace,
            FixedUpperBoundStrategy(3.0), use_kernel=True,
        )
        ref = run_simulation(
            build_datacenter(SMALL), trace,
            FixedUpperBoundStrategy(3.0), use_kernel=False,
        )
        assert_results_identical(fast, ref)

    def test_per_field_equality_is_exact(self):
        """Spot-check that equality above really is field-by-field exact."""
        trace = random_trace(40, n=240)
        fast = run_simulation(
            build_datacenter(SMALL), trace, GreedyStrategy(), use_kernel=True
        )
        ref = run_simulation(
            build_datacenter(SMALL), trace, GreedyStrategy(), use_kernel=False
        )
        for a, b in zip(fast.steps, ref.steps):
            for field in dataclasses.fields(a):
                va, vb = getattr(a, field.name), getattr(b, field.name)
                if isinstance(va, float):
                    assert va == vb or (
                        math.isnan(va) and math.isnan(vb)
                    ), field.name
                else:
                    assert va == vb, field.name
