"""Differential suite for the span-compiled trace engine.

``StepKernel.run_trace`` compiles per-sample stepping into per-span
stepping with steady-cycle fast-forward; its contract (like the rest of
the kernel) is *bit-identity* with the reference controller.  This suite
drives randomized traces built of long constant-demand spans — the shape
the span engine accelerates — through every strategy kind the repo ships,
with and without fault plans, and asserts every per-step telemetry field
and every accumulator matches the reference exactly.  It also pins:

* an explicit k>1 steady cycle (PCM melt/refreeze oscillation) actually
  replaying through :meth:`~repro.core.steplog.StepLog.extend_cycle`;
* the path of faulted runs under every fault kind: span-engine segments
  split at the fault boundaries, never a per-sample ``controller.step``;
* the vector kernel's per-element quiescent latch arming, replaying
  bit-identically, and disarming on demand changes and external writes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.steplog import StepLog
from repro.core.strategies import FixedUpperBoundStrategy, GreedyStrategy
from repro.errors import ConfigurationError
from repro.simulation.batch_facility import BatchFacility
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import run_simulation
from repro.simulation.faults import FAULT_KINDS, FaultEvent, FaultPlan
from repro.workloads.traces import Trace

from tests.core.test_kernel_differential import (
    SMALL,
    assert_results_identical,
)
from tests.core.test_strategy_state_property import STRATEGY_FACTORIES

STRATEGY_KINDS = tuple(STRATEGY_FACTORIES)


def span_trace(seed: int, n: int = 600, dt_s: float = 1.0) -> Trace:
    """A randomized trace made of long constant-demand spans.

    Mixes sub-capacity plateaus (idle fixed points), above-capacity
    plateaus (burst plateaus), and occasional single-sample jitter so
    span boundaries, burst edges and degenerate one-sample spans are all
    exercised.
    """
    rng = np.random.default_rng(seed)
    parts = []
    total = 0
    while total < n:
        kind = rng.integers(0, 10)
        if kind < 5:
            level = float(rng.uniform(0.2, 0.95))
            length = int(rng.integers(20, 160))
        elif kind < 8:
            level = float(rng.uniform(1.1, 3.5))
            length = int(rng.integers(10, 80))
        else:
            level = float(rng.uniform(0.0, 3.5))
            length = 1
        parts.append(np.full(min(length, n - total), level))
        total += length
    return Trace(np.concatenate(parts)[:n], dt_s=dt_s, name=f"spans-{seed}")


def run_both(trace, strategy_kind, fault_plan=None):
    fast = run_simulation(
        build_datacenter(SMALL),
        trace,
        STRATEGY_FACTORIES[strategy_kind](),
        fault_plan=fault_plan,
        use_kernel=True,
    )
    ref = run_simulation(
        build_datacenter(SMALL),
        trace,
        STRATEGY_FACTORIES[strategy_kind](),
        fault_plan=fault_plan,
        use_kernel=False,
    )
    return fast, ref


class TestSpanView:
    def test_spans_roundtrip(self):
        trace = span_trace(7)
        spans = trace.spans()
        rebuilt = np.concatenate(
            [np.full(s.length, s.demand) for s in spans]
        )
        assert np.array_equal(rebuilt, trace.samples)
        assert spans[0].start == 0
        assert spans[-1].end == len(trace)
        for a, b in zip(spans, spans[1:]):
            assert a.end == b.start
            assert a.demand != b.demand

    def test_span_stats_constant_trace(self):
        trace = Trace(np.full(100, 0.5), dt_s=1.0, name="flat")
        stats = trace.span_stats()
        assert stats.n_samples == 100
        assert stats.n_spans == 1
        assert stats.mean_length == 100.0
        assert stats.max_length == 100
        assert stats.predicted_ff_coverage == pytest.approx(0.99)

    def test_span_stats_alternating_trace(self):
        trace = Trace(
            np.tile([0.3, 0.7], 50), dt_s=1.0, name="alternating"
        )
        stats = trace.span_stats()
        assert stats.n_spans == 100
        assert stats.mean_length == 1.0
        assert stats.predicted_ff_coverage == 0.0


class TestSpanDifferential:
    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_all_strategy_kinds(self, kind):
        fast, ref = run_both(span_trace(3), kind)
        assert_results_identical(fast, ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_greedy_many_seeds(self, seed):
        fast, ref = run_both(span_trace(seed), "greedy")
        assert_results_identical(fast, ref)

    @pytest.mark.parametrize("kind", ("greedy", "fixed", "mpc"))
    def test_with_fault_plan(self, kind):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="ups_failure", time_s=150.0),
                FaultEvent(kind="chiller_outage", time_s=320.0,
                           fraction=0.5),
            )
        )
        fast, ref = run_both(span_trace(5), kind, fault_plan=plan)
        assert_results_identical(fast, ref)

    def test_fault_mid_constant_span_disarm(self):
        """Satellite: a due fault event must end the running segment.

        A long flat trace settles into a replayed idle fixed point; the
        fault at t=200 lands mid-span, where a segment that ran on would
        replay pre-fault state.  The engine cuts the segment at the fault
        boundary, so the faulted run stays bit-identical to the reference.
        """
        trace = Trace(np.full(500, 0.6), dt_s=1.0, name="flat-faulted")
        plan = FaultPlan(
            events=(FaultEvent(kind="breaker_derate", time_s=200.0,
                               fraction=0.4),)
        )
        fast, ref = run_both(trace, "greedy", fault_plan=plan)
        assert_results_identical(fast, ref)

    def test_fault_boundaries_split_segments(self, controller_calls):
        """A faulted run is one segment per fault boundary, plus one."""
        trace = Trace(np.full(300, 0.6), dt_s=1.0, name="flat")
        plan = FaultPlan(
            events=(
                FaultEvent(kind="ups_failure", time_s=100.0),
                FaultEvent(kind="chiller_outage", time_s=150.5,
                           fraction=0.2, duration_s=60.0),
            )
        )
        result = run_simulation(
            build_datacenter(SMALL),
            trace,
            GreedyStrategy(),
            fault_plan=plan,
            use_kernel=True,
        )
        assert result.aborted_at_s is None
        # Boundaries: the UPS loss at 100, the outage at 151 (the first
        # sample at or after 150.5 s) and its expiry at 211.
        assert controller_calls == {"step": 0, "run_trace": 4}

    @pytest.mark.parametrize("use_kernel", (True, False))
    @pytest.mark.parametrize("start_index", (-1, 2.0, "3"))
    def test_bad_start_index_rejected_before_any_step(
        self, use_kernel, start_index
    ):
        """Kernel and reference segments both reject a negative or
        non-integer ``start_index`` up front, committing no step."""
        controller = build_datacenter(SMALL).controller(
            GreedyStrategy(), use_kernel=use_kernel
        )
        with pytest.raises(ConfigurationError, match="start_index"):
            controller.run_trace(span_trace(1, n=20), start_index=start_index)
        assert len(controller.history) == 0


class TestFaultedSegments:
    """Faulted runs under every fault kind: bit-identical to the
    per-sample reference, and run entirely as span-engine segments."""

    #: One fault of each kind on span_trace(11), with the run_trace calls
    #: the kernel run must make: one per fault boundary before the
    #: degradation, plus one.  Expiring faults add their restore as a
    #: boundary; a trace gap's end is not one (the held demand is fed into
    #: the segment); a forced breaker trip degrades on its own boundary.
    CASES = {
        "breaker_trip": (
            FaultEvent(kind="breaker_trip", time_s=250.0, fraction=0.5), 1
        ),
        "breaker_derate": (
            FaultEvent(kind="breaker_derate", time_s=120.5, fraction=0.3,
                       duration_s=200.0),
            3,
        ),
        "ups_failure": (FaultEvent(kind="ups_failure", time_s=150.0), 2),
        "chiller_outage": (
            FaultEvent(kind="chiller_outage", time_s=180.0, fraction=0.5,
                       duration_s=90.0),
            3,
        ),
        "tes_valve_stuck": (
            FaultEvent(kind="tes_valve_stuck", time_s=160.0,
                       duration_s=100.0),
            3,
        ),
        "trace_gap": (
            FaultEvent(kind="trace_gap", time_s=140.0, duration_s=45.0), 2
        ),
    }

    def test_cases_cover_every_fault_kind(self):
        assert set(self.CASES) == set(FAULT_KINDS)

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_fault_kind_runs_as_segments(self, kind, controller_calls):
        event, segments = self.CASES[kind]
        plan = FaultPlan(events=(event,))
        trace = span_trace(11)
        fast = run_simulation(
            build_datacenter(SMALL), trace, GreedyStrategy(),
            fault_plan=plan, use_kernel=True,
        )
        assert controller_calls == {"step": 0, "run_trace": segments}
        ref = run_simulation(
            build_datacenter(SMALL), trace, GreedyStrategy(),
            fault_plan=plan, use_kernel=False,
        )
        assert_results_identical(fast, ref)

    def test_failure_inside_a_segment_degrades_on_that_sample(
        self, controller_calls
    ):
        """A full chiller outage mid-burst on a tank-less facility ends in
        a thermal emergency raised from inside a segment: the run
        degrades on exactly the failing sample and the remaining samples
        step degraded."""
        config = SMALL.with_changes(has_tes=False)
        plan = FaultPlan(
            events=(FaultEvent(kind="chiller_outage", time_s=100.0),)
        )
        values = np.concatenate([np.full(100, 0.8), np.full(500, 2.5)])
        trace = Trace(values, dt_s=1.0, name="outage-burst")
        fast = run_simulation(
            build_datacenter(config), trace, GreedyStrategy(),
            fault_plan=plan, use_kernel=True,
        )
        assert controller_calls == {"step": 0, "run_trace": 2}
        assert fast.aborted_at_s is not None and fast.aborted_at_s > 100.0
        ref = run_simulation(
            build_datacenter(config), trace, GreedyStrategy(),
            fault_plan=plan, use_kernel=False,
        )
        assert_results_identical(fast, ref)


class TestSteadyCycle:
    def test_k1_cycle_replays_in_bulk(self, monkeypatch):
        """An idle fixed point inside a span goes through extend_cycle."""
        replays = []
        original = StepLog.extend_cycle

        def spy(self, steps, repeats, times=None):
            replays.append((len(steps), repeats))
            original(self, steps, repeats, times)

        monkeypatch.setattr(StepLog, "extend_cycle", spy)
        trace = Trace(np.full(400, 0.5), dt_s=1.0, name="flat")
        fast, ref = run_both(trace, "greedy")
        assert_results_identical(fast, ref)
        assert replays, "no bulk replay on a 400-sample constant trace"
        assert sum(k * r for k, r in replays) > 300

    def test_k_greater_than_one_pcm_cycle(self, monkeypatch):
        """PCM melt/refreeze oscillation forms a k>1 steady cycle.

        With a tiny PCM latent budget and demand just above capacity the
        chip sprints, exhausts the sink, caps to 1.0, refreezes, and
        sprints again — a multi-step periodic orbit inside one constant-
        demand span.  The orbit is float-exact because the PCM saturates
        at both ends (fully melted, fully solid); the sprint must stay
        within breaker ratings and chiller capacity so no other state
        (trip fractions, room temperature) drifts asymptotically.  The
        span engine must detect the period and replay whole cycles
        bit-identically.
        """
        replays = []
        original = StepLog.extend_cycle

        def spy(self, steps, repeats, times=None):
            replays.append((len(steps), repeats))
            original(self, steps, repeats, times)

        monkeypatch.setattr(StepLog, "extend_cycle", spy)
        config = DataCenterConfig(
            n_pdus=2,
            servers_per_pdu=50,
            has_tes=False,
            chiller_margin=4.0,
            enforce_chip_thermal=True,
            chip_sprint_endurance_min=0.005,
        )
        trace = Trace(np.full(400, 1.1), dt_s=1.0, name="pcm-cycle")
        strategy = GreedyStrategy()
        fast = run_simulation(
            build_datacenter(config), trace, strategy, use_kernel=True
        )
        ref = run_simulation(
            build_datacenter(config), trace, GreedyStrategy(),
            use_kernel=False,
        )
        assert_results_identical(fast, ref)
        multi = [(k, r) for k, r in replays if k > 1]
        assert multi, (
            f"expected a k>1 cycle replay, got only {replays!r}"
        )
        assert max(k for k, _ in multi) >= 5


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(STRATEGY_KINDS),
    with_fault=st.booleans(),
)
def test_span_engine_property(seed, kind, with_fault):
    """Property: span-compiled runs are bit-identical to the reference
    for every strategy kind, on random long-constant-span traces, with
    and without fault plans."""
    trace = span_trace(seed, n=420)
    plan = None
    if with_fault:
        rng = np.random.default_rng(seed + 1)
        kinds = ("ups_failure", "chiller_outage", "breaker_derate",
                 "tes_valve_stuck")
        plan = FaultPlan(
            events=tuple(
                FaultEvent(
                    kind=kinds[int(rng.integers(0, len(kinds)))],
                    time_s=float(rng.integers(30, 390)),
                )
                for _ in range(int(rng.integers(1, 3)))
            )
        )
    fast, ref = run_both(trace, kind, fault_plan=plan)
    assert_results_identical(fast, ref)


class TestVectorLatch:
    BOUNDS = (1.0, 1.8, 2.6, 3.4)

    def _flat_trace(self, n=400, level=0.5):
        return Trace(np.full(n, level), dt_s=1.0, name="flat")

    def _run_unlatched(self, facility, trace, **kwargs):
        """Reference batch run with the latch tracking suppressed."""
        from repro.core.vector_kernel import VectorStepKernel

        original = VectorStepKernel.step

        def no_latch(self, demand, time_s):
            self._ff_last_demand = None
            self._ff_armed = False
            self._ff_cache = None
            self._ff_sig = None
            return original(self, demand, time_s)

        VectorStepKernel.step = no_latch
        try:
            return facility.run_fixed_bounds(trace, list(self.BOUNDS),
                                             **kwargs)
        finally:
            VectorStepKernel.step = original

    def test_arms_and_replays_bit_identically(self):
        trace = self._flat_trace()
        latched = BatchFacility(SMALL).run_fixed_bounds(
            trace, list(self.BOUNDS), record_telemetry=True
        )
        plain = self._run_unlatched(
            BatchFacility(SMALL), trace, record_telemetry=True
        )
        k1, k2 = latched.kernel, plain.kernel
        assert k1._ff_armed, "constant demand never armed the latch"
        assert np.array_equal(latched.served, plain.served)
        assert np.array_equal(k1.served_integral, k2.served_integral)
        assert np.array_equal(k1.dropped_integral, k2.dropped_integral)
        assert np.array_equal(k1.demand_integral, k2.demand_integral)
        assert np.array_equal(
            k1.cb_overload_energy_j, k2.cb_overload_energy_j
        )
        assert np.array_equal(k1.ups_energy_j, k2.ups_energy_j)
        assert np.array_equal(
            k1.tes_electric_energy_j, k2.tes_electric_energy_j
        )
        for code in range(4):
            assert np.array_equal(
                k1.time_in_phase_s[code], k2.time_in_phase_s[code]
            )
        assert np.array_equal(k1.pdu.time_s, k2.pdu.time_s)
        assert np.array_equal(k1.dc.time_s, k2.dc.time_s)
        assert k1.telemetry is not None and k2.telemetry is not None
        for name in k1.telemetry:
            assert np.array_equal(
                np.vstack(k1.telemetry[name]),
                np.vstack(k2.telemetry[name]),
                equal_nan=True,
            ), name

    def test_step_trace_bit_identity(self):
        """A burst-and-plateau trace: latch on plateaus, disarm on edges."""
        samples = np.concatenate(
            [np.full(150, 0.5), np.full(100, 1.6), np.full(150, 0.5)]
        )
        trace = Trace(samples, dt_s=1.0, name="plateaus")
        latched = BatchFacility(SMALL).run_fixed_bounds(
            trace, list(self.BOUNDS), record_telemetry=True
        )
        plain = self._run_unlatched(
            BatchFacility(SMALL), trace, record_telemetry=True
        )
        assert np.array_equal(latched.served, plain.served)
        k1, k2 = latched.kernel, plain.kernel
        assert k1.telemetry is not None and k2.telemetry is not None
        for name in k1.telemetry:
            assert np.array_equal(
                np.vstack(k1.telemetry[name]),
                np.vstack(k2.telemetry[name]),
                equal_nan=True,
            ), name

    def test_demand_change_disarms(self):
        from repro.simulation.datacenter import build_datacenter as build

        dc = build(SMALL)
        ctrl = dc.controller(FixedUpperBoundStrategy(1.0))
        from repro.core.vector_kernel import VectorStepKernel

        kernel = VectorStepKernel(
            dc.cluster, dc.topology, dc.cooling, ctrl,
            np.asarray(self.BOUNDS),
        )
        for i in range(10):
            kernel.step(0.5, float(i))
        assert kernel._ff_armed
        kernel.step(0.9, 10.0)
        assert not kernel._ff_armed

    def test_clear_fast_forward_after_external_write(self):
        """External derates must be preceded by clear_fast_forward."""
        from repro.core.vector_kernel import VectorStepKernel
        from repro.simulation.datacenter import build_datacenter as build

        def make_kernel():
            dc = build(SMALL)
            ctrl = dc.controller(FixedUpperBoundStrategy(1.0))
            return VectorStepKernel(
                dc.cluster, dc.topology, dc.cooling, ctrl,
                np.asarray(self.BOUNDS),
            )

        mutated = make_kernel()
        for i in range(10):
            mutated.step(0.5, float(i))
        assert mutated._ff_armed
        mutated.battery_energy_j = mutated.battery_energy_j * 0.5
        mutated.clear_fast_forward()
        assert not mutated._ff_armed
        out_mutated = [
            mutated.step(0.5, float(10 + i)) for i in range(5)
        ]

        fresh = make_kernel()
        for i in range(10):
            fresh.step(0.5, float(i))
        fresh._ff_armed = False
        fresh._ff_cache = None
        fresh._ff_sig = None
        fresh._ff_last_demand = None
        fresh.battery_energy_j = fresh.battery_energy_j * 0.5
        out_fresh = [fresh.step(0.5, float(10 + i)) for i in range(5)]
        for a, b in zip(out_mutated, out_fresh):
            assert np.array_equal(a, b)
        assert np.array_equal(
            mutated.battery_energy_j, fresh.battery_energy_j
        )
