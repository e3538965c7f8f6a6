"""Differential validation of the shared-prefix Oracle search.

:func:`~repro.simulation.engine.shared_prefix_oracle_search` runs one
instrumented baseline and resumes per-candidate suffixes from snapshots;
its contract is *bit-identity* with the reference sweep — one full
:func:`simulate_strategy` per candidate, NaN on failure, strict
first-wins argmax.  Every test here computes both and compares the chosen
bound and the achieved performance with ``==``, never ``approx``; any
drift in the snapshot engine, the divergence-frontier computation or the
tie-breaking shows up as a hard mismatch.

The searches also pin their *path*: every search here must run as
span-engine segments, so a per-sample ``controller.step`` call (the slow
path a silent fallback would take) fails the test, the paper's trace
shapes must be served by the shared-prefix search rather than declined,
and so must every fault-free grid of positive bounds (a Hypothesis
property, on a coast-safe and a coast-unsafe facility) and every faulted
grid at or above 1.0.  A coast-safe search's baseline must start at
burst onset and a coast-unsafe one's at sample 0.  The pruning is pinned
the same way: every reference performance must lie under the optimistic
bound the search prunes with, a pruned candidate must still win when the
provisional winner's tail really trips, only uncertified tails may be
re-run, the paper's searches must stay under their pruned ``run_trace``
counts, the faulted searches must make exactly their pruned single-pass
counts, and every table build must run one search per point, never a
packed vector batch.

This file is the differential suite CI runs in the benchmark-smoke job
(under ``REPRO_SWEEP_WORKERS=2``) together with
``test_snapshot.py``'s round-trip checks.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.strategies import FixedUpperBoundStrategy
from repro.core.vector_kernel import VectorStepKernel
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.simulation import batch as batch_module
from repro.simulation import engine
from repro.simulation.batch import SweepRunner
from repro.simulation.batch_facility import BatchFacility
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import (
    DEFAULT_ORACLE_GRID,
    optimistic_performance,
    shared_prefix_oracle_search,
    simulate_strategy,
)
from repro.simulation.faults import FAULT_KINDS, FaultEvent, FaultPlan
from repro.simulation.packing import packed_point_searches
from repro.workloads.ms_trace import default_ms_trace
from repro.workloads.traces import Trace
from repro.workloads.yahoo_trace import generate_yahoo_trace

SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=50)

#: A facility ``engine._coast_safe`` rejects: without DC headroom its
#: peak-normal draw rounds one ulp above the DC breaker's rating.
COAST_UNSAFE = DataCenterConfig(
    n_pdus=2, servers_per_pdu=50, dc_headroom_fraction=0.0, pue=1.38
)

#: An ascending grid with clamp-induced ties: 4.5 and 5.0 both clamp to
#: the cluster's max degree, so they duplicate 4.0's run exactly.
GRID = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)


def random_trace(seed: int, n: int = 420, dt_s: float = 1.0) -> Trace:
    """Randomised demand with idle stretches and hard bursts (same shape
    as the kernel differential suite's generator)."""
    rng = np.random.default_rng(seed)
    base = 0.55 + 0.3 * rng.random(n)
    for _ in range(rng.integers(1, 4)):
        start = int(rng.integers(0, n - 40))
        length = int(rng.integers(20, 120))
        base[start:start + length] += rng.uniform(0.8, 3.0)
    return Trace(np.clip(base, 0.0, 4.5), dt_s=dt_s, name=f"random-{seed}")


def reference_performances(trace, candidates, config, fault_plan=None):
    """One full run per candidate; NaN where the run fails."""
    performances = []
    for bound in candidates:
        try:
            result = simulate_strategy(
                trace,
                FixedUpperBoundStrategy(float(bound)),
                config,
                fault_plan=fault_plan,
            )
        except ReproError:
            performances.append(math.nan)
            continue
        performances.append(result.average_performance)
    return performances


def reference_argmax(candidates, performances):
    """Strict first-wins argmax, NaN (failed) candidates skipped."""
    best_bound, best_perf = None, -math.inf
    for bound, perf in zip(candidates, performances):
        if perf > best_perf:
            best_perf = perf
            best_bound = float(bound)
    assert best_bound is not None
    return best_bound, best_perf


def reference_search(trace, candidates, config, fault_plan=None):
    """The reference Oracle: one full run per candidate, strict argmax."""
    return reference_argmax(
        candidates,
        reference_performances(trace, candidates, config, fault_plan),
    )


def assert_under_optimistic_bounds(trace, candidates, config, performances):
    """Every completed run lies under the bound the search prunes with."""
    cluster = build_datacenter(config).cluster
    for bound, perf in zip(candidates, performances):
        if not math.isnan(perf):
            assert perf <= optimistic_performance(cluster, trace, bound)


class TestNoFaultEquality:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_traces(self, seed, controller_calls):
        trace = random_trace(seed)
        fast = shared_prefix_oracle_search(trace, GRID, SMALL)
        assert fast is not None
        assert controller_calls["step"] == 0
        performances = reference_performances(trace, GRID, SMALL)
        assert fast == reference_argmax(GRID, performances)
        assert_under_optimistic_bounds(trace, GRID, SMALL, performances)

    @pytest.mark.parametrize("seed", (50, 51))
    def test_unsorted_candidate_order(self, seed):
        """First-wins argmax depends on candidate *order*, not value —
        both paths must honour the caller's ordering identically."""
        trace = random_trace(seed)
        candidates = (4.0, 2.0, 3.5, 2.5, 3.0)
        fast = shared_prefix_oracle_search(trace, candidates, SMALL)
        assert fast is not None
        assert fast == reference_search(trace, candidates, SMALL)

    def test_no_burst_trace(self):
        """Degenerate flat demand: performance is 1.0 for everyone and the
        first candidate wins the tie."""
        flat = Trace(np.full(300, 0.8), 1.0, "flat")
        fast = shared_prefix_oracle_search(flat, (2.0, 3.0, 4.0), SMALL)
        assert fast == (2.0, 1.0)
        assert fast == reference_search(flat, (2.0, 3.0, 4.0), SMALL)

    def test_short_burst_ties_resolve_to_lowest_bound(self):
        """A burst too short to exhaust any budget: every bound ≥ the
        burst degree serves it fully, and the lowest such bound wins."""
        values = [0.8] * 60 + [1.5] * 45 + [0.8] * 200
        trace = Trace(np.asarray(values, dtype=float), 1.0, "tie")
        fast = shared_prefix_oracle_search(trace, (2.0, 3.0, 4.0), SMALL)
        assert fast is not None
        assert fast[0] == 2.0
        assert fast == reference_search(trace, (2.0, 3.0, 4.0), SMALL)

    def test_long_extreme_burst(self):
        """A 40-minute degree-4 burst drains every reserve: the interior
        bound wins and both paths agree bit-for-bit."""
        values = [0.8] * 120 + [4.0] * 2400 + [0.8] * 300
        trace = Trace(np.asarray(values, dtype=float), 1.0, "extreme")
        fast = shared_prefix_oracle_search(trace, GRID, SMALL)
        assert fast is not None
        assert fast == reference_search(trace, GRID, SMALL)

    def test_default_config_yahoo(self, yahoo_trace_5min):
        """Full paper-size facility on a generated Yahoo trace."""
        candidates = (2.0, 2.5, 3.0, 3.5, 4.0)
        config = DataCenterConfig()
        fast = shared_prefix_oracle_search(
            yahoo_trace_5min, candidates, config
        )
        assert fast is not None
        performances = reference_performances(
            yahoo_trace_5min, candidates, config
        )
        assert fast == reference_argmax(candidates, performances)
        assert_under_optimistic_bounds(
            yahoo_trace_5min, candidates, config, performances
        )


class TestPruning:
    """The optimistic bound must prune, and pruning must never change a
    result — not even when the provisional winner fails after the burst."""

    def test_pruned_candidate_wins_after_tail_failure(self, monkeypatch):
        """Without DC headroom the post-burst recharge trips real tails.
        On the 5-minute degree-3.6 burst the provisional winners 3.5, 3.25
        and 3.75 each trip after the burst; the descent must demote each
        one, resume, and crown 3.0, a candidate it had pruned before the
        first trip: exactly the reference argmax."""
        config = DataCenterConfig(dc_headroom_fraction=0.0)
        trace = generate_yahoo_trace(burst_degree=3.6, burst_duration_min=5)
        n = len(trace)
        real_run_segment = engine._run_segment
        calls = []  # (bound, runs the tail, failing step), in call order

        def spy(controller, trace_, start, stop):
            failed_at = real_run_segment(controller, trace_, start, stop)
            calls.append((controller.strategy.upper_bound, stop == n, failed_at))
            return failed_at

        monkeypatch.setattr(engine, "_run_segment", spy)
        fast = shared_prefix_oracle_search(trace, DEFAULT_ORACLE_GRID, config)
        assert fast == reference_search(trace, DEFAULT_ORACLE_GRID, config)
        trips = [
            i for i, (_, tail, failed_at) in enumerate(calls)
            if tail and failed_at is not None
        ]
        assert trips  # a real post-burst trip demoted a winner
        assert fast[0] not in {bound for bound, _, _ in calls[: trips[0]]}

    def test_only_uncertified_tails_are_rerun(self, monkeypatch):
        """The default facility's tails are certified (see
        ``_tails_hold``), so its search runs no segment that ends at the
        trace's end; without DC headroom they are not, and it does."""
        trace = generate_yahoo_trace(burst_degree=3.2, burst_duration_min=5)
        real_run_segment = engine._run_segment
        stops = []

        def spy(controller, trace_, start, stop):
            stops.append(stop)
            return real_run_segment(controller, trace_, start, stop)

        monkeypatch.setattr(engine, "_run_segment", spy)
        for headroom, reruns in ((0.10, False), (0.0, True)):
            stops.clear()
            config = DataCenterConfig(dc_headroom_fraction=headroom)
            shared_prefix_oracle_search(trace, DEFAULT_ORACLE_GRID, config)
            assert (len(trace) in stops) is reruns

    @pytest.mark.parametrize(
        "degree, duration_min, max_calls",
        # Unpruned, these searches made 17 and 15 run_trace calls; with
        # every winner's tail re-run, 11 and 3.
        ((3.0, 15, 10), (3.2, 5, 2)),
    )
    def test_paper_searches_stay_pruned(
        self, degree, duration_min, max_calls, controller_calls
    ):
        trace = generate_yahoo_trace(
            burst_degree=degree, burst_duration_min=duration_min
        )
        config = DataCenterConfig()
        fast = shared_prefix_oracle_search(trace, DEFAULT_ORACLE_GRID, config)
        assert controller_calls["step"] == 0
        assert controller_calls["run_trace"] <= max_calls
        assert fast == reference_search(trace, DEFAULT_ORACLE_GRID, config)


class TestFaultEquality:
    PLANS = {
        "chiller-mid-burst": FaultPlan((
            FaultEvent.parse("chiller@150s:fraction=0.6,duration=90"),
        )),
        "ups-mid-burst": FaultPlan((
            FaultEvent.parse("ups@120s:fraction=0.4"),
        )),
        "breaker-and-gap": FaultPlan((
            FaultEvent.parse("breaker@100s:fraction=0.5"),
            FaultEvent.parse("gap@200s:duration=30"),
        )),
        "derate-pre-burst": FaultPlan((
            FaultEvent.parse("derate@30s:fraction=0.3,duration=300"),
        )),
        "tes-valve-mid-burst": FaultPlan((
            FaultEvent.parse("tes@140s:fraction=0.7,duration=120"),
        )),
    }

    #: run_trace calls of each search below: one baseline pass cut at
    #: the frontiers, then the suffixes the descent does not prune.  The
    #: unpruned two-pass search made the counts in the comments (79 in
    #: all, against 32).
    RUN_TRACE_CALLS = {
        ("breaker-and-gap", 7): 1,  # 1
        ("breaker-and-gap", 19): 6,  # 7
        ("chiller-mid-burst", 7): 4,  # 7
        ("chiller-mid-burst", 19): 3,  # 13
        ("derate-pre-burst", 7): 3,  # 5
        ("derate-pre-burst", 19): 2,  # 8
        ("tes-valve-mid-burst", 7): 4,  # 7
        ("tes-valve-mid-burst", 19): 3,  # 13
        ("ups-mid-burst", 7): 3,  # 5
        ("ups-mid-burst", 19): 3,  # 13
    }

    def test_plans_cover_every_fault_kind(self):
        kinds = {e.kind for plan in self.PLANS.values() for e in plan}
        assert kinds == set(FAULT_KINDS)

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    @pytest.mark.parametrize("seed", (7, 19))
    def test_fault_plans(self, seed, plan_name, controller_calls):
        trace = random_trace(seed)
        plan = self.PLANS[plan_name]
        fast = shared_prefix_oracle_search(
            trace, GRID, SMALL, fault_plan=plan
        )
        assert fast is not None
        assert controller_calls == {
            "step": 0,
            "run_trace": self.RUN_TRACE_CALLS[(plan_name, seed)],
        }
        assert fast == reference_search(trace, GRID, SMALL, fault_plan=plan)


class TestPaperTraceShapes:
    """The trace shapes of the paper's evaluation must be *served* by the
    shared-prefix search on the default facility and grid — a ``None``
    here means every such search silently fell back to a slower tier."""

    TRACES = {
        "yahoo-jittered": lambda: generate_yahoo_trace(3.2, 10, seed=3),
        "yahoo-held-60s": lambda: generate_yahoo_trace(
            3.2, 10, seed=3
        ).resampled(60.0).resampled(1.0),
        "ms-default": default_ms_trace,
    }

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_served_by_shared_prefix_segments(self, name, controller_calls):
        trace = self.TRACES[name]()
        config = DataCenterConfig()
        fast = shared_prefix_oracle_search(trace, DEFAULT_ORACLE_GRID, config)
        assert fast is not None
        assert controller_calls["step"] == 0
        assert fast == reference_search(trace, DEFAULT_ORACLE_GRID, config)


class TestTableRouting:
    """Every table build runs one pruned search per point and no vector
    step, also with a sub-1.0 candidate beside bounds >= 1.0 and with
    every candidate below 1.0."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = {"search": 0, "vector_step": 0, "demand_matrix": 0}
        search = batch_module.shared_prefix_oracle_search
        step = VectorStepKernel.step
        demand_matrix = BatchFacility.run_demand_matrix

        def counting_search(*args, **kwargs):
            counts["search"] += 1
            return search(*args, **kwargs)

        def counting_step(self, *args, **kwargs):
            counts["vector_step"] += 1
            return step(self, *args, **kwargs)

        def counting_demand_matrix(self, *args, **kwargs):
            counts["demand_matrix"] += 1
            return demand_matrix(self, *args, **kwargs)

        monkeypatch.setattr(
            batch_module, "shared_prefix_oracle_search", counting_search
        )
        monkeypatch.setattr(VectorStepKernel, "step", counting_step)
        monkeypatch.setattr(
            BatchFacility, "run_demand_matrix", counting_demand_matrix
        )
        return counts

    def test_six_point_table_matches_the_packed_tier(self, counts):
        durations, degrees = (1.0, 5.0), (2.6, 3.0, 3.4)
        with SweepRunner(max_workers=1) as runner:
            table = runner.build_upper_bound_table(
                burst_durations_min=durations, burst_degrees=degrees
            )
        assert counts == {"search": 6, "vector_step": 0, "demand_matrix": 0}
        traces = [
            generate_yahoo_trace(burst_degree=g, burst_duration_min=d)
            for d in durations
            for g in degrees
        ]
        packed = packed_point_searches(
            traces, DEFAULT_ORACLE_GRID, DataCenterConfig()
        )
        assert packed is not None
        assert [entry[2] for entry in table.entries()] == [
            found[0] for found in packed
        ]

    def test_default_table_runs_one_search_per_point(self, counts):
        with SweepRunner(max_workers=1) as runner:
            table = runner.build_upper_bound_table()
        assert len(table) == 24
        assert counts == {"search": 24, "vector_step": 0, "demand_matrix": 0}

    def test_sub_normal_candidate_runs_one_search_per_point(self, counts):
        """The benchmarked grid shape (0.9 prepended to the default grid)
        takes the pruned search; a silent fall back to the packed batch
        would show as vector steps.  6 points x 14 candidates is wide
        enough to pack, so the packed tier's table is the reference."""
        durations, degrees = (1.0, 5.0), (2.6, 3.0, 3.4)
        candidates = (0.9,) + DEFAULT_ORACLE_GRID
        with SweepRunner(max_workers=1) as runner:
            table = runner.build_upper_bound_table(
                burst_durations_min=durations,
                burst_degrees=degrees,
                candidates=candidates,
            )
        assert counts == {"search": 6, "vector_step": 0, "demand_matrix": 0}
        traces = [
            generate_yahoo_trace(burst_degree=g, burst_duration_min=d)
            for d in durations
            for g in degrees
        ]
        packed = packed_point_searches(traces, candidates, DataCenterConfig())
        assert packed is not None
        assert [entry[2] for entry in table.entries()] == [
            found[0] for found in packed
        ]

    def test_all_sub_normal_grid_runs_one_search_per_point(self, counts):
        """24 points x 3 candidates is wide enough to pack, so the packed
        tier's table is the reference."""
        candidates = (0.5, 0.7, 0.9)
        with SweepRunner(max_workers=1) as runner:
            table = runner.build_upper_bound_table(candidates=candidates)
        assert counts == {"search": 24, "vector_step": 0, "demand_matrix": 0}
        traces = [
            generate_yahoo_trace(burst_degree=g, burst_duration_min=d)
            for d in (1.0, 5.0, 10.0, 15.0)
            for g in (2.6, 2.8, 3.0, 3.2, 3.4, 3.6)
        ]
        packed = packed_point_searches(traces, candidates, DataCenterConfig())
        assert packed is not None
        assert [entry[2] for entry in table.entries()] == [
            found[0] for found in packed
        ]


class TestValidityEnvelope:
    def test_empty_candidates_fall_back(self):
        assert shared_prefix_oracle_search(random_trace(0), (), SMALL) is None

    def test_dt_mismatch_falls_back(self):
        """The reference path owns the descriptive dt-mismatch error."""
        coarse = random_trace(1).resampled(5.0)
        assert shared_prefix_oracle_search(coarse, GRID, SMALL) is None

    def test_sub_normal_bound_joins_the_pruned_search(self):
        """A bound below the normal degree serves less before burst
        onset, which no performance counts, so it shares the baseline's
        prefix up to onset and resumes there unless pruned.  Ties and the
        candidate order must not move the first-wins argmax."""
        for seed in (2, 5):
            trace = random_trace(seed)
            for grid in ((0.5, 2.0), (0.9, 0.5) + GRID, GRID + (0.95, 0.95)):
                fast = shared_prefix_oracle_search(trace, grid, SMALL)
                assert fast == reference_search(trace, grid, SMALL)

    def test_sub_normal_bound_wins_on_an_idle_trace(self):
        """With no burst every candidate scores 1.0 and the first one
        wins, a sub-normal one included."""
        trace = Trace(np.full(120, 0.6), dt_s=1.0, name="idle")
        grid = (0.9, 2.0, 3.0)
        fast = shared_prefix_oracle_search(trace, grid, SMALL)
        assert fast == reference_search(trace, grid, SMALL)
        assert fast is not None and fast[0] == 0.9

    def test_sub_normal_only_is_served_and_faulted_falls_back(self):
        """A grid with every bound below 1.0 takes its largest bound as
        the baseline.  A faulted search keeps sub-normal bounds on the
        per-candidate path: a degraded step can serve more than such a
        bound's capacity, so the pruning bound would not hold."""
        trace = random_trace(2)
        fast = shared_prefix_oracle_search(trace, (0.5, 0.9), SMALL)
        assert fast is not None
        assert fast == reference_search(trace, (0.5, 0.9), SMALL)
        plan = FaultPlan((FaultEvent.parse("ups@120s:fraction=0.4"),))
        fast = shared_prefix_oracle_search(
            trace, (0.5, 2.0), SMALL, fault_plan=plan
        )
        assert fast is None

    @pytest.mark.parametrize(
        "grid", ((2.0, 0.0), (2.0, -1.0), (4.0, math.inf), (math.nan,))
    )
    def test_invalid_bound_falls_back(self, grid):
        """A bound that is not positive and finite falls back, so the
        runner's search raises the reference's ConfigurationError even
        where the bound would only have shared the baseline's run."""
        trace = random_trace(3)
        assert shared_prefix_oracle_search(trace, grid, SMALL) is None
        with pytest.raises(ConfigurationError):
            SweepRunner(max_workers=1).oracle_search(trace, grid, SMALL)


@st.composite
def drawn_traces(draw):
    """A random bursty trace; one draw in four is clipped to burst-free."""
    trace = random_trace(draw(st.integers(0, 2**31 - 1)), n=240)
    if draw(st.integers(0, 3)) == 0:
        return Trace(np.minimum(trace.samples, 1.0), dt_s=1.0, name="idle")
    return trace


#: Positive grids: bounds anywhere in (0, 5], or every bound below 1.0.
positive_grids = st.one_of(
    st.lists(
        st.floats(min_value=0.0, max_value=5.0, exclude_min=True),
        min_size=1,
        max_size=5,
    ),
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        min_size=1,
        max_size=4,
    ),
)
normal_grids = st.lists(
    st.floats(min_value=1.0, max_value=5.0), min_size=1, max_size=5
)


def assert_served_like_reference(trace, grid, config, plan=None):
    """The search serves the grid and matches the reference argmax, or
    raises SimulationError exactly when every reference run fails."""
    performances = reference_performances(trace, grid, config, plan)
    if all(math.isnan(p) for p in performances):
        with pytest.raises(SimulationError):
            shared_prefix_oracle_search(trace, grid, config, fault_plan=plan)
        return
    fast = shared_prefix_oracle_search(trace, grid, config, fault_plan=plan)
    assert fast is not None
    assert fast == reference_argmax(grid, performances)


class TestEveryPositiveGrid:
    """The pruned search serves every fault-free grid of positive bounds,
    sub-normal ones included, and every faulted grid at or above 1.0, on
    a coast-safe and a coast-unsafe facility alike."""

    FACILITIES = pytest.mark.parametrize(
        "config", (SMALL, COAST_UNSAFE), ids=("coast-safe", "coast-unsafe")
    )
    SETTINGS = settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

    def test_coast_safety_of_the_facilities(self):
        assert engine._coast_safe(build_datacenter(SMALL))
        assert not engine._coast_safe(build_datacenter(COAST_UNSAFE))

    @FACILITIES
    @given(trace=drawn_traces(), grid=positive_grids)
    @SETTINGS
    def test_fault_free_grids(self, config, trace, grid):
        assert_served_like_reference(trace, grid, config)

    @FACILITIES
    @given(
        trace=drawn_traces(),
        grid=normal_grids,
        plan_name=st.sampled_from(sorted(TestFaultEquality.PLANS)),
    )
    @SETTINGS
    def test_faulted_grids(self, config, trace, grid, plan_name):
        plan = TestFaultEquality.PLANS[plan_name]
        assert_served_like_reference(trace, grid, config, plan)

    @pytest.mark.parametrize(
        "grid", ((0.5, 0.9, 3.25, 3.5, 3.75), (3.75, 0.7, 0.9, 0.9))
    )
    def test_sub_normal_winner_after_tail_trips(self, grid):
        """No run fails on the drawn traces, so a sub-normal bound below
        the baseline's is always pruned there.  Without DC headroom the
        paper facility's tails trip after a degree-3.6 x 5 min burst: each
        sprinting bound here is demoted, and a sub-normal one resumes from
        its frontier and wins (TestSegmentStarts pins where)."""
        config = DataCenterConfig(dc_headroom_fraction=0.0)
        trace = generate_yahoo_trace(burst_degree=3.6, burst_duration_min=5)
        fast = shared_prefix_oracle_search(trace, grid, config)
        assert fast is not None and fast[0] < 1.0
        assert fast == reference_search(trace, grid, config)

    @pytest.mark.parametrize("pue", (1.14, 1.38))
    @pytest.mark.parametrize(
        "grid",
        (DEFAULT_ORACLE_GRID, (0.9,) + DEFAULT_ORACLE_GRID, (0.5, 0.9)),
        ids=("default", "sub-normal-first", "all-sub-normal"),
    )
    def test_coast_unsafe_paper_facility(self, pue, grid):
        """Without DC headroom the paper facility is coast-unsafe at these
        PUEs; its tails are re-run, none certified."""
        config = DataCenterConfig(dc_headroom_fraction=0.0, pue=pue)
        assert not engine._coast_safe(build_datacenter(config))
        trace = generate_yahoo_trace(burst_degree=3.6, burst_duration_min=5)
        fast = shared_prefix_oracle_search(trace, grid, config)
        assert fast is not None
        assert fast == reference_search(trace, grid, config)


class TestSegmentStarts:
    """Where a search's segments start, read off ``engine._run_segment``:
    ``(bound, start, stop)`` per call, the baseline's first."""

    @pytest.fixture()
    def segments(self, monkeypatch):
        real_run_segment = engine._run_segment
        calls = []

        def spy(controller, trace_, start, stop):
            calls.append((controller.strategy.upper_bound, start, stop))
            return real_run_segment(controller, trace_, start, stop)

        monkeypatch.setattr(engine, "_run_segment", spy)
        return calls

    def test_coast_safe_search_starts_at_burst_onset(
        self, segments, controller_calls
    ):
        """Without DC headroom 3.5's post-burst tail trips, so the descent
        demotes it and runs the pruned 0.9, which resumes at burst onset
        from the baseline's snapshot there and wins."""
        config = DataCenterConfig(dc_headroom_fraction=0.0)
        trace = generate_yahoo_trace(burst_degree=3.6, burst_duration_min=5)
        onset = int(np.flatnonzero(trace.samples > 1.0)[0])
        grid = (0.9, 3.5)
        fast = shared_prefix_oracle_search(trace, grid, config)
        assert controller_calls["step"] == 0
        assert segments[0][:2] == (3.5, onset)
        sub_normal_starts = [start for bound, start, _ in segments if bound < 1.0]
        assert sub_normal_starts and 0 not in sub_normal_starts
        assert min(sub_normal_starts) == onset
        assert fast is not None and fast[0] == 0.9
        assert fast == reference_search(trace, grid, config)

    @pytest.mark.parametrize("idle", (False, True), ids=("bursty", "idle"))
    def test_coast_unsafe_baseline_starts_at_sample_zero(
        self, segments, controller_calls, idle
    ):
        trace = random_trace(2)
        if idle:
            trace = Trace(np.minimum(trace.samples, 1.0), dt_s=1.0, name="idle")
        grid = (0.5,) + GRID
        fast = shared_prefix_oracle_search(trace, grid, COAST_UNSAFE)
        assert controller_calls["step"] == 0
        assert segments[0][:2] == (4.0, 0)
        assert fast == reference_search(trace, grid, COAST_UNSAFE)


class TestRunnerEntryPoint:
    """`SweepRunner.oracle_search` fronts the fast path with a search-level
    cache; cold and warm calls must agree with the reference."""

    def test_cold_and_warm_match_reference(self, tmp_path):
        trace = random_trace(3)
        with SweepRunner(max_workers=1, cache_dir=tmp_path) as runner:
            cold = runner.oracle_search(trace, candidates=GRID, config=SMALL)
            warm = runner.oracle_search(trace, candidates=GRID, config=SMALL)
        expected = reference_search(trace, GRID, SMALL)
        for oracle in (cold, warm):
            assert (oracle.upper_bound, oracle.achieved_performance) == expected

    def test_pooled_table_build_matches_serial(self, monkeypatch):
        """Entry-wise table equality between the pooled point searches and
        the serial path.  CI runs this under ``REPRO_SWEEP_WORKERS=2`` so
        the worker-shipped search genuinely crosses process boundaries;
        locally `from_env` falls back to cpu_count."""
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", "off")

        def factory(degree, duration_min):
            burst = int(duration_min * 60)
            values = [0.8] * 60 + [degree] * burst + [0.8] * 120
            return Trace(
                np.asarray(values, dtype=float),
                1.0,
                f"grid-{degree:g}-{duration_min:g}",
            )

        grid = dict(
            config=SMALL,
            burst_durations_min=(2.0, 6.0),
            burst_degrees=(2.8, 3.2),
            candidates=(2.0, 2.5, 3.0, 4.0),
            trace_factory=factory,
        )
        with SweepRunner.from_env() as pooled:
            table = pooled.build_upper_bound_table(**grid)
        with SweepRunner(max_workers=1) as serial:
            expected = serial.build_upper_bound_table(**grid)
        assert table.entries() == expected.entries()

    def test_fallback_path_matches(self, tmp_path, monkeypatch):
        """With the fast path disabled the runner's per-candidate sweep
        must land on the identical answer."""
        monkeypatch.setattr(
            "repro.simulation.batch.shared_prefix_oracle_search",
            lambda *args, **kwargs: None,
        )
        trace = random_trace(4)
        with SweepRunner(max_workers=1, cache_dir=tmp_path) as runner:
            oracle = runner.oracle_search(trace, candidates=GRID, config=SMALL)
        expected = reference_search(trace, GRID, SMALL)
        assert (oracle.upper_bound, oracle.achieved_performance) == expected
