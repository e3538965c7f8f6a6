"""Unit tests for the column-oriented step log.

:class:`~repro.core.steplog.StepLog` replaced the controller's plain
``List[ControlStep]``, so these tests pin the list-compatibility contract
every existing consumer relies on: append/len/truthiness, integer and
negative indexing, slicing, iteration, equality against lists and other
logs, ``clear``, independent snapshots, and the fast column reads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.controller import ControlStep
from repro.core.phases import SprintPhase
from repro.core.steplog import _INITIAL_CAPACITY, StepLog


def make_step(i: int, phase=SprintPhase.IDLE, in_burst=False) -> ControlStep:
    base = float(i)
    return ControlStep(
        time_s=base,
        demand=base + 0.1,
        upper_bound=base + 0.2,
        degree=base + 0.3,
        capacity=base + 0.4,
        served=base + 0.5,
        dropped=base + 0.6,
        phase=phase,
        in_burst=in_burst,
        it_power_w=base + 0.7,
        grid_w=base + 0.8,
        ups_w=base + 0.9,
        cb_overload_w=base + 1.0,
        tes_heat_w=base + 1.1,
        tes_electric_saved_w=base + 1.2,
        cooling_electric_w=base + 1.3,
        room_temperature_c=base + 1.4,
        pdu_grid_bound_w=base + 1.5,
    )


@pytest.fixture()
def filled():
    log = StepLog()
    steps = [
        make_step(i, phase=list(SprintPhase)[i % len(SprintPhase)],
                  in_burst=bool(i % 2))
        for i in range(7)
    ]
    for step in steps:
        log.append(step)
    return log, steps


class TestListCompatibility:
    def test_len_and_truthiness(self, filled):
        log, steps = filled
        assert len(log) == len(steps)
        assert bool(log)
        assert not StepLog()
        assert len(StepLog()) == 0

    def test_rows_roundtrip_exactly(self, filled):
        log, steps = filled
        for i, expected in enumerate(steps):
            assert log[i] == expected

    def test_negative_indexing(self, filled):
        log, steps = filled
        assert log[-1] == steps[-1]
        assert log[-len(steps)] == steps[0]

    def test_out_of_range_raises(self, filled):
        log, steps = filled
        with pytest.raises(IndexError):
            log[len(steps)]
        with pytest.raises(IndexError):
            log[-len(steps) - 1]

    def test_slicing_returns_step_list(self, filled):
        log, steps = filled
        assert log[2:5] == steps[2:5]
        assert log[::2] == steps[::2]
        assert log[:] == steps

    def test_iteration(self, filled):
        log, steps = filled
        assert list(log) == steps
        assert log.to_list() == steps

    def test_equality_against_list_and_log(self, filled):
        log, steps = filled
        assert log == steps
        assert StepLog() == []
        other = StepLog()
        for step in steps:
            other.append(step)
        assert log == other
        other.append(make_step(99))
        assert log != other

    def test_clear_empties_the_log(self, filled):
        log, _ = filled
        log.clear()
        assert len(log) == 0
        assert log == []

    def test_phase_and_burst_roundtrip(self):
        log = StepLog()
        for phase in SprintPhase:
            log.append(make_step(0, phase=phase, in_burst=True))
        assert [s.phase for s in log] == list(SprintPhase)
        assert all(s.in_burst for s in log)


class TestColumns:
    def test_column_matches_attribute_walk(self, filled):
        log, steps = filled
        expected = np.array([s.degree for s in steps])
        assert np.array_equal(log.column("degree"), expected)

    def test_in_burst_and_sprinting_columns(self, filled):
        log, steps = filled
        assert np.array_equal(
            log.column("in_burst"), np.array([s.in_burst for s in steps])
        )
        assert np.array_equal(
            log.column("sprinting"),
            np.array([s.degree > 1.0 + 1e-6 for s in steps]),
        )

    def test_unknown_column_raises(self, filled):
        log, _ = filled
        with pytest.raises(KeyError):
            log.column("no_such_field")

    def test_column_is_a_copy(self, filled):
        log, steps = filled
        col = log.column("served")
        col[0] = -123.0
        assert log[0].served == steps[0].served


class TestBulkExtend:
    """``reserve`` / ``extend_cycle`` keep the list-of-steps contract."""

    def _cycle(self):
        return [
            make_step(i, phase=list(SprintPhase)[i % len(SprintPhase)],
                      in_burst=bool(i % 2))
            for i in range(3)
        ]

    def test_extend_cycle_matches_repeated_append(self):
        steps = self._cycle()
        bulk = StepLog()
        bulk.extend_cycle(steps, 5)
        plain = StepLog()
        for _ in range(5):
            for step in steps:
                plain.append(step)
        assert bulk == plain
        assert bulk.to_list() == plain.to_list()
        assert len(bulk) == 15

    def test_extend_cycle_after_appends(self):
        steps = self._cycle()
        log = StepLog()
        log.append(make_step(42))
        log.extend_cycle(steps, 2)
        assert log[0] == make_step(42)
        assert log[1:] == steps * 2

    def test_times_override_time_column(self):
        steps = self._cycle()
        times = np.arange(6, dtype=np.float64) * 10.0
        log = StepLog()
        log.extend_cycle(steps, 2, times)
        assert np.array_equal(log.column("time_s"), times)
        # every other field still tiles the cached steps
        assert [s.served for s in log] == [s.served for s in steps] * 2
        assert [s.phase for s in log] == [s.phase for s in steps] * 2

    def test_times_size_mismatch_raises(self):
        steps = self._cycle()
        with pytest.raises(ValueError):
            StepLog().extend_cycle(steps, 2, np.zeros(5))

    def test_zero_total_is_a_noop(self):
        log = StepLog()
        log.extend_cycle([], 5)
        log.extend_cycle(self._cycle(), 0)
        assert len(log) == 0
        assert log == []

    def test_extend_cycle_grows_past_capacity(self):
        steps = self._cycle()
        repeats = _INITIAL_CAPACITY // len(steps) + 10
        log = StepLog()
        log.extend_cycle(steps, repeats)
        assert len(log) == len(steps) * repeats
        assert log[-1] == steps[-1]
        assert log[0] == steps[0]

    def test_reserve_preserves_rows(self):
        log = StepLog()
        steps = self._cycle()
        for step in steps:
            log.append(step)
        log.reserve(_INITIAL_CAPACITY * 4)
        assert log == steps
        log.append(make_step(9))
        assert log[-1] == make_step(9)


class TestGrowthAndSnapshots:
    def test_grows_past_initial_capacity(self):
        log = StepLog()
        n = _INITIAL_CAPACITY + 10
        for i in range(n):
            log.append(make_step(i % 50))
        assert len(log) == n
        assert log[-1] == make_step((n - 1) % 50)

    def test_snapshot_of_an_empty_log_grows(self):
        """An empty log's snapshot holds no capacity at all; ``append``
        must grow it from zero rows, and ``reserve`` past it."""
        log = StepLog().snapshot()
        steps = [make_step(i) for i in range(6)]
        log.append(steps[0])
        log.reserve(4)
        for step in steps[1:]:
            log.append(step)
        assert len(log) == len(steps)
        assert log == steps

    def test_snapshot_is_independent(self, filled):
        log, steps = filled
        snap = log.snapshot()
        log.append(make_step(42))
        log.clear()
        assert snap == steps
        assert len(snap) == len(steps)
