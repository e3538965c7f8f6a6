"""Column-oriented storage for per-step controller telemetry.

Appending one frozen :class:`~repro.core.controller.ControlStep` dataclass
per control period and copying the whole list into every
:class:`~repro.simulation.metrics.SimulationResult` dominates the telemetry
cost of a run: a one-hour trace allocates 3,600 objects of 18 fields each,
and every ``series()`` call walks them again with ``getattr``.

:class:`StepLog` stores the same 18 fields as preallocated numpy columns
(grown geometrically), which makes ``series()`` a slice instead of a Python
loop and lets the simulation engine hand the columns to
``SimulationResult`` without materialising rows.  The list-of-steps API is
preserved: indexing materialises a ``ControlStep`` lazily, slicing returns
a list of them, and equality compares against both logs and lists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Union

import numpy as np

from repro.core.phases import SprintPhase

if TYPE_CHECKING:
    from repro.core.controller import ControlStep

#: Initial column capacity; grown geometrically (x2) on overflow.
_INITIAL_CAPACITY = 1024

#: Float-valued ControlStep fields, in declaration order.
_FLOAT_FIELDS = (
    "time_s",
    "demand",
    "upper_bound",
    "degree",
    "capacity",
    "served",
    "dropped",
    "it_power_w",
    "grid_w",
    "ups_w",
    "cb_overload_w",
    "tes_heat_w",
    "tes_electric_saved_w",
    "cooling_electric_w",
    "room_temperature_c",
    "pdu_grid_bound_w",
)

#: Phases indexed by the int8 code stored in the ``phase`` column.
_PHASE_BY_CODE = tuple(SprintPhase)
_CODE_BY_PHASE = {phase: code for code, phase in enumerate(_PHASE_BY_CODE)}


class StepLog:
    """Structure-of-arrays log of committed control steps.

    Drop-in replacement for the ``List[ControlStep]`` the controller and
    ``SimulationResult`` used to share: supports ``append``, ``clear``,
    ``len``, truthiness, iteration, integer indexing (materialises one
    step), slicing (returns a list of steps) and equality against lists
    and other logs.  Columns are float64 so a materialised row roundtrips
    bit-for-bit.
    """

    __slots__ = ("_n", "_cols", "_phase", "_in_burst")

    def __init__(self) -> None:
        self._n = 0
        self._cols = {
            name: np.empty(_INITIAL_CAPACITY, dtype=np.float64)
            for name in _FLOAT_FIELDS
        }
        self._phase = np.empty(_INITIAL_CAPACITY, dtype=np.int8)
        self._in_burst = np.empty(_INITIAL_CAPACITY, dtype=np.bool_)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, step: "ControlStep") -> None:
        """Append one ``ControlStep`` (list-compatible entry point)."""
        if self._n >= len(self._phase):
            self.reserve(self._n + 1)
        i = self._n
        cols = self._cols
        for name in _FLOAT_FIELDS:
            cols[name][i] = getattr(step, name)
        self._phase[i] = _CODE_BY_PHASE[step.phase]
        self._in_burst[i] = step.in_burst
        self._n = i + 1

    def reserve(self, n: int) -> None:
        """Ensure capacity for at least ``n`` total rows without realloc.

        The step kernel calls this once per segment so its loop can write
        into stable column arrays; ``append`` grows through it.  Capacity
        doubles until it fits ``n``, from at least one row: a snapshot of
        an empty log has none.
        """
        capacity = len(self._phase)
        if n <= capacity:
            return
        capacity = max(1, capacity)
        while capacity < n:
            capacity *= 2
        for name, col in self._cols.items():
            new = np.empty(capacity, dtype=np.float64)
            new[: self._n] = col[: self._n]
            self._cols[name] = new
        new_phase = np.empty(capacity, dtype=np.int8)
        new_phase[: self._n] = self._phase[: self._n]
        self._phase = new_phase
        new_burst = np.empty(capacity, dtype=np.bool_)
        new_burst[: self._n] = self._in_burst[: self._n]
        self._in_burst = new_burst

    def extend_cycle(
        self,
        steps: List["ControlStep"],
        repeats: int,
        times: "np.ndarray | None" = None,
    ) -> None:
        """Append ``steps`` tiled ``repeats`` times with vectorized writes.

        Equivalent to ``for _ in range(repeats): for s in steps:
        self.append(s)`` except that, when ``times`` is given (one value per
        appended row), the ``time_s`` column takes those values instead of
        each step's own ``time_s``.

        No run path calls it: the step kernel steps every sample.  It stays
        because sprintbench's tracer wraps it by name for its
        ``steplog.replayed_*`` metrics (now always 0); it goes with them.
        """
        k = len(steps)
        total = k * repeats
        if total == 0:
            return
        if times is not None and times.size != total:
            raise ValueError(
                f"times has {times.size} entries, expected {total}"
            )
        self.reserve(self._n + total)
        n = self._n
        cols = self._cols
        for name in _FLOAT_FIELDS:
            if name == "time_s" and times is not None:
                cols[name][n : n + total] = times
                continue
            vals = np.array(
                [getattr(s, name) for s in steps], dtype=np.float64
            )
            cols[name][n : n + total] = np.tile(vals, repeats)
        phase_codes = np.array(
            [_CODE_BY_PHASE[s.phase] for s in steps], dtype=np.int8
        )
        self._phase[n : n + total] = np.tile(phase_codes, repeats)
        burst_flags = np.array([s.in_burst for s in steps], dtype=np.bool_)
        self._in_burst[n : n + total] = np.tile(burst_flags, repeats)
        self._n = n + total

    def clear(self) -> None:
        """Drop all rows (capacity is retained)."""
        self._n = 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """One field as a freshly trimmed array (float columns as float64).

        ``phase`` is not a numeric column; request ``in_burst`` or
        ``sprinting`` for the boolean signals derived from the log.
        """
        if name in self._cols:
            return self._cols[name][: self._n].copy()
        if name == "in_burst":
            return self._in_burst[: self._n].copy()
        if name == "sprinting":
            return self._cols["degree"][: self._n] > 1.0 + 1e-6
        raise KeyError(f"StepLog has no column {name!r}")

    def _materialize(self, i: int) -> "ControlStep":
        from repro.core.controller import ControlStep

        cols = self._cols
        return ControlStep(
            time_s=float(cols["time_s"][i]),
            demand=float(cols["demand"][i]),
            upper_bound=float(cols["upper_bound"][i]),
            degree=float(cols["degree"][i]),
            capacity=float(cols["capacity"][i]),
            served=float(cols["served"][i]),
            dropped=float(cols["dropped"][i]),
            phase=_PHASE_BY_CODE[self._phase[i]],
            in_burst=bool(self._in_burst[i]),
            it_power_w=float(cols["it_power_w"][i]),
            grid_w=float(cols["grid_w"][i]),
            ups_w=float(cols["ups_w"][i]),
            cb_overload_w=float(cols["cb_overload_w"][i]),
            tes_heat_w=float(cols["tes_heat_w"][i]),
            tes_electric_saved_w=float(cols["tes_electric_saved_w"][i]),
            cooling_electric_w=float(cols["cooling_electric_w"][i]),
            room_temperature_c=float(cols["room_temperature_c"][i]),
            pdu_grid_bound_w=float(cols["pdu_grid_bound_w"][i]),
        )

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union["ControlStep", List["ControlStep"]]:
        if isinstance(index, slice):
            return [self._materialize(i) for i in range(*index.indices(self._n))]
        i = index
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("StepLog index out of range")
        return self._materialize(i)

    def __iter__(self) -> Iterator:
        for i in range(self._n):
            yield self._materialize(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StepLog):
            if self._n != other._n:
                return False
            n = self._n
            for name in _FLOAT_FIELDS:
                if not np.array_equal(
                    self._cols[name][:n], other._cols[name][:n], equal_nan=True
                ):
                    return False
            return bool(
                np.array_equal(self._phase[:n], other._phase[:n])
                and np.array_equal(self._in_burst[:n], other._in_burst[:n])
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"StepLog(n={self._n})"

    def snapshot(self) -> "StepLog":
        """A trimmed, independent copy — what simulation results hold on to."""
        copy = StepLog.__new__(StepLog)
        copy._n = self._n
        copy._cols = {
            name: col[: self._n].copy() for name, col in self._cols.items()
        }
        copy._phase = self._phase[: self._n].copy()
        copy._in_burst = self._in_burst[: self._n].copy()
        return copy

    def to_list(self) -> List:
        """Materialise every row (compat helper, O(n) object creation)."""
        return list(self)
