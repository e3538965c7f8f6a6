"""Differential suite for the kernel's trace segments.

``StepKernel.run_trace`` steps every sample of a segment in one flat
loop; its contract (like the rest of the kernel) is *bit-identity* with
the reference controller.  This suite drives randomized traces built of
long constant-demand spans, burst shelves and one-sample jitter through
every strategy kind the repo ships, with and without fault plans, and
asserts every per-step telemetry field and every accumulator matches the
reference exactly.  It also covers:

* traces that settle into a fixed point or a periodic orbit: a flat
  trace, a k>1 PCM melt/refreeze cycle, the Yahoo trace held at 60 s and
  the plateau trace of ``bench_span_engine.py``;
* the path of faulted runs under every fault kind: segments split at the
  fault boundaries, never a per-sample ``controller.step``;
* both time sources of the loop: the explicit times of
  ``controller.step`` and a segment's ``i * dt_s`` timestamps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.strategies import GreedyStrategy
from repro.errors import ConfigurationError
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import run_simulation
from repro.simulation.faults import FAULT_KINDS, FaultEvent, FaultPlan
from repro.workloads.traces import Trace
from repro.workloads.yahoo_trace import generate_yahoo_trace

from tests.core.test_kernel_differential import (
    SMALL,
    assert_results_identical,
)
from tests.core.test_strategy_state_property import STRATEGY_FACTORIES

STRATEGY_KINDS = tuple(STRATEGY_FACTORIES)

#: A burst from 60 s to 460 s on the small facility: Greedy sprints on
#: breaker overload and the UPS until about 244 s, then on the TES.
FAULT_TRACE = Trace(
    np.concatenate([np.full(60, 0.6), np.full(400, 2.6), np.full(200, 0.7)]),
    dt_s=1.0,
    name="burst-faulted",
)

#: One event per fault kind and breaker target, inside FAULT_TRACE's
#: burst; the chiller and TES-valve events land once the TES is engaged,
#: and the UPS failure is severe enough for the discharge-rate limit to
#: bind.  Every event but ``breaker_trip`` and ``ups_failure`` (which
#: never restore) expires 60 s later, well before the trace ends.
FAULT_CASES = {
    "breaker_trip-pdu": FaultEvent(
        "breaker_trip", 120.0, fraction=0.5, duration_s=60.0, target="pdu"
    ),
    "breaker_trip-dc": FaultEvent(
        "breaker_trip", 120.0, duration_s=60.0, target="dc"
    ),
    "breaker_derate-pdu": FaultEvent(
        "breaker_derate", 120.0, duration_s=60.0, target="pdu"
    ),
    "breaker_derate-dc": FaultEvent(
        "breaker_derate", 120.0, duration_s=60.0, target="dc"
    ),
    "ups_failure": FaultEvent(
        "ups_failure", 120.0, fraction=0.97, duration_s=60.0
    ),
    "chiller_outage": FaultEvent(
        "chiller_outage", 300.0, fraction=0.5, duration_s=60.0
    ),
    "tes_valve_stuck": FaultEvent(
        "tes_valve_stuck", 300.0, fraction=0.5, duration_s=60.0
    ),
    "trace_gap": FaultEvent("trace_gap", 120.0, duration_s=60.0),
}


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
    def test_span_stats_constant_trace(self):
        trace = Trace(np.full(100, 0.5), dt_s=1.0, name="flat")
        stats = trace.span_stats()
        assert stats.n_samples == 100
        assert stats.n_spans == 1
        assert stats.mean_length == 100.0
        assert stats.max_length == 100

    def test_span_stats_alternating_trace(self):
        trace = Trace(
            np.tile([0.3, 0.7], 50), dt_s=1.0, name="alternating"
        )
        stats = trace.span_stats()
        assert stats.n_spans == 100
        assert stats.mean_length == 1.0


class TestSpanDifferential:
    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_all_strategy_kinds(self, kind):
        fast, ref = run_both(span_trace(3), kind)
        assert_results_identical(fast, ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_greedy_many_seeds(self, seed):
        fast, ref = run_both(span_trace(seed), "greedy")
        assert_results_identical(fast, ref)

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_with_fault_plan(self, kind):
        """Every fault kind, both breaker targets, one event per run.

        The step body reads the ratings and limits a fault event mutates
        once per segment.  Each event here lands inside the burst while
        the part it degrades is in use, and those that expire do so
        before the trace ends, so a value read once per run (or kept from
        the previous segment) diverges from the reference.
        """
        assert {e.kind for e in FAULT_CASES.values()} == set(FAULT_KINDS)
        for case, event in FAULT_CASES.items():
            fast, ref = run_both(
                FAULT_TRACE, kind, fault_plan=FaultPlan(events=(event,))
            )
            try:
                assert_results_identical(fast, ref)
            except AssertionError as exc:
                raise AssertionError(f"{case}: {exc}") from None

    def test_fault_mid_constant_span_disarm(self):
        """Satellite: a due fault event must end the running segment.

        A long flat trace settles into an idle fixed point; the fault at
        t=200 lands mid-span, where a segment that ran on would step with
        pre-fault ratings.  The engine cuts the segment at the fault
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


class TestTimeSources:
    """The step loop takes each step's time from its caller: the explicit
    ``time_s`` of ``controller.step``, or ``i * trace.dt_s`` in a
    segment."""

    @pytest.mark.parametrize("kind", ("greedy", "heuristic"))
    def test_explicit_times_off_the_step_grid(self, kind):
        """``controller.step`` at times no ``step_index * dt`` produces:
        the kernel's one-sample segments equal the reference step for
        step, and each returned step equals its history row."""
        steps = {}
        for use_kernel in (True, False):
            controller = build_datacenter(SMALL).controller(
                STRATEGY_FACTORIES[kind](), use_kernel=use_kernel
            )
            time_s = 0.37
            returned = []
            for i, demand in enumerate(span_trace(5, n=300)):
                step = controller.step(demand, time_s, i)
                assert step == controller.history[i]
                returned.append(step)
                time_s += 1.0 + 0.013 * (i % 7)
            steps[use_kernel] = returned
        assert steps[True] == steps[False]
        assert any(step.in_burst for step in steps[True])

    def test_segment_timestamps_far_from_step_zero(self):
        """A segment starting at step 1,000,003 with a 0.1 s period times
        step ``i`` as ``i * 0.1``, as the reference does; summing
        ``start * dt + j * dt`` instead moves 180 of these 900 stamps."""
        trace = span_trace(9, n=900, dt_s=0.1)
        logs = {}
        for use_kernel in (True, False):
            controller = build_datacenter(DataCenterConfig(dt_s=0.1)).controller(
                GreedyStrategy(), use_kernel=use_kernel
            )
            controller.run_trace(trace, start_index=1_000_003)
            logs[use_kernel] = controller.history
        assert logs[True] == logs[False]
        assert np.array_equal(
            logs[True].column("time_s"),
            np.arange(1_000_003, 1_000_903) * 0.1,
        )


class TestSteadyCycle:
    """Traces that settle into a fixed point or a periodic orbit inside a
    constant-demand span.  The engine steps every sample of them, and each
    run must stay bit-identical to the reference."""

    def test_flat_trace_idle_fixed_point(self):
        """A constant sub-capacity trace is one idle fixed point."""
        trace = Trace(np.full(400, 0.5), dt_s=1.0, name="flat")
        fast, ref = run_both(trace, "greedy")
        assert_results_identical(fast, ref)

    def test_k_greater_than_one_pcm_cycle(self):
        """PCM melt/refreeze oscillation forms a k>1 steady cycle.

        With a tiny PCM latent budget and demand just above capacity the
        chip sprints, exhausts the sink, caps to 1.0, refreezes, and
        sprints again — a multi-step periodic orbit inside one constant-
        demand span.  The orbit is float-exact because the PCM saturates
        at both ends (fully melted, fully solid); the sprint stays within
        breaker ratings and chiller capacity so no other state (trip
        fractions, room temperature) drifts asymptotically.
        """
        config = DataCenterConfig(
            n_pdus=2,
            servers_per_pdu=50,
            has_tes=False,
            chiller_margin=4.0,
            enforce_chip_thermal=True,
            chip_sprint_endurance_min=0.005,
        )
        trace = Trace(np.full(400, 1.1), dt_s=1.0, name="pcm-cycle")
        fast = run_simulation(
            build_datacenter(config), trace, GreedyStrategy(), use_kernel=True
        )
        ref = run_simulation(
            build_datacenter(config), trace, GreedyStrategy(),
            use_kernel=False,
        )
        assert_results_identical(fast, ref)
        # The input really is a k>1 orbit: the tail repeats with a period
        # of at least 5 steps and sprints in some of them.
        degree = fast.steps.column("degree")[-200:]
        period = next(
            k for k in range(1, 100)
            if np.array_equal(degree[k:], degree[:-k])
        )
        assert period >= 5
        assert degree.max() > 1.0

    @pytest.mark.parametrize("shape", ("yahoo-held", "flat", "plateaus"))
    def test_held_and_plateau_shapes(self, shape):
        """Default-facility shapes with long fixed stretches: the Yahoo
        trace held at 60 s (per-minute monitoring data, which cools down
        after its burst in one-minute spans), and the flat and plateau
        traces of ``bench_span_engine.py``."""
        if shape == "yahoo-held":
            yahoo = generate_yahoo_trace(burst_degree=3.0, burst_duration_min=10)
            trace = yahoo.resampled(60.0).resampled(yahoo.dt_s)
        elif shape == "flat":
            trace = Trace(np.full(1800, 0.6), dt_s=1.0, name="flat")
        else:
            rng = np.random.default_rng(7)
            parts = []
            for _ in range(6):
                parts.append(np.full(int(rng.integers(100, 200)),
                                     float(rng.uniform(0.3, 0.8))))
                parts.append(np.full(int(rng.integers(80, 160)),
                                     float(rng.uniform(1.2, 2.8))))
            trace = Trace(np.concatenate(parts), dt_s=1.0, name="plateaus")
        fast = run_simulation(
            build_datacenter(), trace, GreedyStrategy(), use_kernel=True
        )
        ref = run_simulation(
            build_datacenter(), trace, GreedyStrategy(), use_kernel=False
        )
        assert_results_identical(fast, ref)


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
    """Property: kernel runs are bit-identical to the reference for every
    strategy kind, on random long-constant-span traces, with and without
    fault plans."""
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

