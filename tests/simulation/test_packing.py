"""Vector-packed tier: bit-identity to the scalar path, pinned.

The packed tier's whole value rests on one claim: a task that runs
packed produces the *same object* the scalar engine produces — every
float bit-identical, every tie broken the same way.  The differential
tests here randomize grids of traces and bounds and compare
``vector_pack_tasks`` / ``packed_point_searches`` output against the
scalar reference with plain ``==`` (no tolerances anywhere).

Those grids are a few lanes wide, far below the production lane floor
(``packing.MIN_PACK_WIDTH``), so the differential classes pin the floor
to 2 (the ``narrow_packing`` fixture) to keep exercising the packed path;
``TestLaneFloor`` checks the real floor.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.simulation import batch as batch_module
from repro.simulation import packing
from repro.simulation.batch import (
    RunFailure,
    StrategySpec,
    SweepTask,
    execute_task,
)
from repro.simulation.batch_facility import set_vector_oracle_enabled
from repro.simulation.config import DataCenterConfig
from repro.simulation.faults import FaultEvent, FaultPlan
from repro.simulation.packing import (
    packed_point_searches,
    task_packable,
    vector_pack_tasks,
)
from repro.workloads.traces import Trace

SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=25)


def bursty_trace(seed: int, n: int = 90) -> Trace:
    """Random trace with a guaranteed burst window (so no outcome field
    degenerates to NaN, which would defeat ``==`` comparison)."""
    rng = np.random.default_rng(seed)
    samples = 0.6 + 0.3 * rng.random(n)
    lo = int(rng.integers(10, n // 2))
    hi = lo + int(rng.integers(10, n - lo - 1))
    samples[lo:hi] += 1.2 + 1.4 * rng.random()
    return Trace(samples, name=f"pack-{seed}")


@pytest.fixture()
def narrow_packing(monkeypatch):
    """Let the few-lane differential grids below form vector batches."""
    monkeypatch.setattr(packing, "MIN_PACK_WIDTH", 2)


def scalar_reference(tasks):
    """The scalar engine's results, with every vector fast path off."""
    previous = set_vector_oracle_enabled(False)
    try:
        return [execute_task(task) for task in tasks]
    finally:
        set_vector_oracle_enabled(previous)


class TestPackability:
    def test_fixed_and_greedy_pack(self):
        trace = bursty_trace(0)
        assert task_packable(SweepTask(trace, StrategySpec.fixed(2.5), SMALL))
        assert task_packable(SweepTask(trace, StrategySpec.greedy(), SMALL))

    def test_faulted_mpc_and_mismatched_dt_do_not_pack(self):
        trace = bursty_trace(0)
        plan = FaultPlan((FaultEvent(kind="breaker", time_s=10.0),))
        assert not task_packable(
            SweepTask(trace, StrategySpec.fixed(2.5), SMALL, plan)
        )
        assert not task_packable(
            SweepTask(
                trace,
                StrategySpec.mpc(candidate_bounds=(2.0, 3.0)),
                SMALL,
            )
        )
        off_dt = Trace(trace.samples, dt_s=2.0, name="off-dt")
        assert not task_packable(
            SweepTask(off_dt, StrategySpec.fixed(2.5), SMALL)
        )


@pytest.mark.usefixtures("narrow_packing")
class TestRandomizedDifferential:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_packed_grid_bit_identical_to_scalar(self, seed):
        """Random grid: mixed traces, random fixed bounds (with
        duplicates), greedy sprinkled in — packed == scalar, bit for bit.
        """
        rng = np.random.default_rng(seed)
        traces = [bursty_trace(100 * seed + i) for i in range(3)]
        tasks = []
        for trace in traces:
            for _ in range(3):
                bound = float(
                    rng.choice([2.0, 2.5, 3.0, 3.0, 3.5])  # dup: tie bait
                )
                tasks.append(SweepTask(trace, StrategySpec.fixed(bound), SMALL))
            tasks.append(SweepTask(trace, StrategySpec.greedy(), SMALL))
        packed = vector_pack_tasks(tasks)
        assert all(result is not None for result in packed)
        assert packed == scalar_reference(tasks)

    def test_greedy_equals_unbounded_fixed_semantics(self):
        """Greedy packs as bound=inf; its packed outcome must equal its
        scalar run, not merely a high fixed bound's."""
        trace = bursty_trace(7)
        tasks = [
            SweepTask(trace, StrategySpec.greedy(), SMALL),
            SweepTask(trace, StrategySpec.greedy(), SMALL),
        ]
        packed = vector_pack_tasks(tasks)
        reference = scalar_reference(tasks)
        assert packed == reference
        assert packed[0].strategy_name == "greedy"

    def test_unpackable_tasks_stay_none(self):
        trace = bursty_trace(9)
        tasks = [
            SweepTask(trace, StrategySpec.fixed(2.0), SMALL),
            SweepTask(
                trace, StrategySpec.mpc(candidate_bounds=(2.0, 3.0)), SMALL
            ),
            SweepTask(trace, StrategySpec.fixed(3.0), SMALL),
        ]
        packed = vector_pack_tasks(tasks)
        assert packed[1] is None
        assert packed[0] is not None and packed[2] is not None

    def test_lone_task_is_not_packed(self):
        """A group narrower than MIN_PACK_WIDTH gains nothing; it stays
        on the scalar path."""
        tasks = [SweepTask(bursty_trace(11), StrategySpec.fixed(2.0), SMALL)]
        assert vector_pack_tasks(tasks) == [None]

    def test_toggle_off_disables_packing(self):
        trace = bursty_trace(12)
        tasks = [
            SweepTask(trace, StrategySpec.fixed(b), SMALL) for b in (2.0, 3.0)
        ]
        previous = set_vector_oracle_enabled(False)
        try:
            assert vector_pack_tasks(tasks) == [None, None]
        finally:
            set_vector_oracle_enabled(previous)


@pytest.mark.usefixtures("narrow_packing")
class TestPackedPointSearches:
    CANDIDATES = (2.0, 2.5, 3.0, 3.0, 3.5)  # duplicate: tie-break bait

    def scalar_searches(self, traces):
        previous = set_vector_oracle_enabled(False)
        try:
            return [
                batch_module._oracle_point_search(
                    trace, self.CANDIDATES, SMALL
                )
                for trace in traces
            ]
        finally:
            set_vector_oracle_enabled(previous)

    def test_fused_table_search_matches_reference(self):
        traces = [bursty_trace(20 + i) for i in range(4)]
        packed = packed_point_searches(traces, self.CANDIDATES, SMALL)
        assert packed is not None
        assert packed == self.scalar_searches(traces)

    def test_mixed_lengths_group_separately_and_still_match(self):
        traces = [
            bursty_trace(30, n=90),
            bursty_trace(31, n=120),
            bursty_trace(32, n=90),
            bursty_trace(33, n=120),
        ]
        packed = packed_point_searches(traces, self.CANDIDATES, SMALL)
        assert packed is not None
        assert packed == self.scalar_searches(traces)

    def test_declines_outside_envelope(self):
        traces = [bursty_trace(40), bursty_trace(41)]
        assert packed_point_searches(traces, (), SMALL) is None
        assert packed_point_searches(traces, (2.0, -1.0), SMALL) is None
        assert packed_point_searches(traces[:1], (2.0,), SMALL) is None
        off_dt = Trace(traces[0].samples, dt_s=2.0, name="off")
        assert (
            packed_point_searches([traces[0], off_dt], (2.0,), SMALL) is None
        )
        previous = set_vector_oracle_enabled(False)
        try:
            assert (
                packed_point_searches(traces, self.CANDIDATES, SMALL) is None
            )
        finally:
            set_vector_oracle_enabled(previous)


class TestLaneFloor:
    """No vector batch narrower than ``MIN_PACK_WIDTH`` is formed."""

    def test_groups_below_the_floor_stay_scalar(self):
        trace = bursty_trace(60)
        width = packing.MIN_PACK_WIDTH - 1
        tasks = [
            SweepTask(trace, StrategySpec.fixed(2.0 + 0.01 * j), SMALL)
            for j in range(width)
        ]
        assert vector_pack_tasks(tasks) == [None] * width

    def test_a_group_at_the_floor_packs(self):
        trace = bursty_trace(61)
        tasks = [
            SweepTask(trace, StrategySpec.fixed(1.5 + 0.04 * j), SMALL)
            for j in range(packing.MIN_PACK_WIDTH)
        ]
        assert vector_pack_tasks(tasks) == scalar_reference(tasks)

    def test_point_searches_below_the_floor_decline(self):
        candidates = (2.0, 2.5, 3.0, 3.5)
        points = packing.MIN_PACK_WIDTH // len(candidates) - 1
        traces = [bursty_trace(62 + i) for i in range(points)]
        assert packed_point_searches(traces, candidates, SMALL) is None


class _StubKernel:
    """Kernel double whose elements have all failed."""

    def __init__(self, n_steps: int, width: int) -> None:
        self.failed = np.ones(width, dtype=bool)
        self.telemetry = {
            "degree": [np.ones(width)] * n_steps,
            "room_temperature_c": [np.full(width, 25.0)] * n_steps,
        }


@pytest.mark.usefixtures("narrow_packing")
class TestFailureLatching:
    def test_failed_elements_rerun_on_the_scalar_engine(self, monkeypatch):
        """A packed element the kernel latches as failed must come back as
        the *scalar* engine's RunFailure — exact type, message, timestamp —
        via a scalar re-run, never as a reduced outcome.

        (Under unmutated physics the safety monitor prevents failures, so
        the kernel is stubbed to report every element failed.)
        """
        trace = bursty_trace(50)
        tasks = [
            SweepTask(trace, StrategySpec.fixed(b), SMALL) for b in (2.0, 3.0)
        ]
        sentinel = {
            task.cache_key(): RunFailure(
                "fixed", "BreakerTrippedError", "injected", float(i)
            )
            for i, task in enumerate(tasks)
        }

        class _StubFacility:
            def run_demand_matrix(self, demand, dt_s, bounds, **kwargs):
                served = np.zeros_like(np.asarray(demand, dtype=np.float64))
                return served, _StubKernel(served.shape[0], served.shape[1])

        monkeypatch.setattr(
            packing, "_batch_facility_for", lambda config: _StubFacility()
        )
        monkeypatch.setattr(
            batch_module,
            "execute_task",
            lambda task: sentinel[task.cache_key()],
        )
        packed = vector_pack_tasks(tasks)
        assert packed == [sentinel[t.cache_key()] for t in tasks]
