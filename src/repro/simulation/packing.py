"""Vector-packed execution tier for compatible sweep tasks.

The sweep grids behind the paper's headline figures are dominated by
*fixed-upper-bound, fault-free* runs — exactly the shape
:class:`~repro.core.vector_kernel.VectorStepKernel` advances in lockstep.
The kernel's per-step cost is numpy call overhead, nearly independent of
the batch width, so a batch only beats one span-engine run per task once
it is wide: at :data:`MIN_PACK_WIDTH` lanes and up (see
``docs/PERFORMANCE.md``).  This module packs such tasks into wide kernel
batches:

* :func:`vector_pack_tasks` fuses compatible :class:`SweepTask`\\ s
  (same config, same trace length and sampling period; fixed or greedy
  strategy; no fault plan) into one lockstep batch per group and reduces
  each element to the *same* :class:`SweepOutcome` the scalar path
  produces — bit-for-bit.  Incompatible tasks come back as ``None`` and
  stay on the scalar engine (fault plans mutate the substrate mid-run;
  MPC/prediction/heuristic bounds vary per step in ways the fixed-bound
  kernel does not model).
* :func:`packed_point_searches` fuses a whole upper-bound-table build —
  every grid point x every candidate — into one batch per trace-length
  group, instead of one kernel run per grid point.  No run path calls
  it: every table build runs one pruned shared-prefix search per point.
  It stays only because sprintbench's tracer wraps it by name, until the
  vector tier is deleted (ROADMAP item 2).

Bit-exactness is inherited, not re-proven: the kernel's contract makes
element ``j`` bit-identical to a scalar ``FixedUpperBoundStrategy``
run of the same bound (``GreedyStrategy`` is the ``bound = inf`` special
case — the kernel folds ``min(bound, max_degree)`` at construction, and
the greedy strategy returns exactly ``max_degree`` every step), and the
outcome reduction below replicates the scalar reduction's operations on
those identical series.  ``tests/simulation/test_packing.py`` pins the
equality over randomized grids anyway.

An element that *fails* mid-batch latches (the kernel freezes it where
the scalar engine raises); its task is re-run on the scalar engine via
:func:`repro.simulation.batch.execute_task` so the resulting
:class:`RunFailure` carries the scalar path's exact error type, message
and timestamp.  Failures are rare and cached, so the re-run is noise.

The module-level vector-path toggle
(:func:`repro.simulation.batch_facility.set_vector_oracle_enabled`,
surfaced as ``repro sweep --scalar-oracle``) gates packing too, so one
switch forces every fast path off for differential debugging.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.strategies import first_wins_argmax
from repro.simulation.batch_facility import (
    _batch_facility_for,
    vector_oracle_enabled,
)
from repro.simulation.config import DataCenterConfig
from repro.simulation.metrics import average_performance_improvement
from repro.workloads.traces import Trace

if TYPE_CHECKING:
    from repro.core.vector_kernel import VectorStepKernel
    from repro.simulation.batch import SweepTask, TaskResult

#: Narrowest vector batch the sweep code forms: the measured width at
#: which L packed fixed-bound tasks first keep pace with L span-engine
#: runs (the lane-width crossover in ``docs/PERFORMANCE.md``).  Narrower
#: groups stay on the scalar engine.
MIN_PACK_WIDTH = 64

#: The only telemetry columns the outcome reduction reads; recording all
#: eighteen would triple the packed step cost for nothing.
_PACK_TELEMETRY = ("degree", "room_temperature_c")


def task_packable(task: "SweepTask") -> bool:
    """Whether one task fits the fixed-bound kernel's envelope.

    Packable: fault-free, trace and controller sampling periods in
    agreement, and a strategy the kernel models exactly — ``fixed`` with
    a positive bound, or ``greedy``.  Everything else (fault plans, MPC,
    prediction, heuristic, non-positive bounds, mismatched ``dt``) stays
    on the scalar engine, *including* its error semantics.
    """
    if task.fault_plan is not None:
        return False
    if len(task.trace) == 0:
        return False
    if abs(task.trace.dt_s - task.config.dt_s) > 1e-9:
        return False
    kind = task.spec.kind
    if kind == "greedy":
        return True
    if kind == "fixed":
        bound = task.spec.upper_bound
        return bound is not None and bound > 0.0
    return False


def _group_key(task: "SweepTask") -> Tuple[str, str, int]:
    """Tasks sharing this key can share one kernel batch.

    Same configuration (one substrate), same *exact* sampling period (one
    timestamp sequence ``i * dt_s``) and same trace length (one demand
    matrix).  The trace content itself may differ per element — the
    kernel is elementwise over the batch axis, so each column sees only
    its own demand.
    """
    config_json = json.dumps(
        task.config.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return (config_json, repr(task.trace.dt_s), len(task.trace))


def _packed_outcome(
    task: "SweepTask",
    served_col: np.ndarray,
    degree_col: np.ndarray,
    room_col: np.ndarray,
    kernel: "VectorStepKernel",
    j: int,
) -> "TaskResult":
    """Reduce one non-failed batch element to its scalar-identical outcome.

    Every operation mirrors the scalar reduction
    (:class:`~repro.simulation.metrics.SimulationResult` aggregates +
    :func:`repro.simulation.batch._outcome_from_result`) applied to the
    scalar run's series — which the kernel contract makes bit-identical
    to these columns — so the floats that come out are the same bits.
    """
    from repro.simulation.batch import SweepOutcome

    trace = task.trace
    average = average_performance_improvement(served_col, trace)
    overall = average_performance_improvement(
        served_col, trace, burst_window_only=False
    )
    demand_integral = float(kernel.demand_integral[j])
    dropped_integral = float(kernel.dropped_integral[j])
    drop_fraction = (
        0.0
        if demand_integral <= 0.0
        else dropped_integral / demand_integral
    )
    burst_mask = trace.samples > 1.0
    mean_burst_degree = (
        float(degree_col[burst_mask].mean())
        if burst_mask.any()
        else float("nan")
    )
    # PhaseAccountant.energy_shares(): shares of (cb + ups + tes), zeros
    # before any additional energy has flowed; same operation order.
    cb = float(kernel.cb_overload_energy_j[j])
    ups = float(kernel.ups_energy_j[j])
    tes = float(kernel.tes_electric_energy_j[j])
    total = cb + ups + tes
    if total <= 0.0:
        shares = {"cb": 0.0, "ups": 0.0, "tes": 0.0}
    else:
        shares = {"cb": cb / total, "ups": ups / total, "tes": tes / total}
    return SweepOutcome(
        strategy_name=task.spec.kind,
        average_performance=average,
        overall_performance=overall,
        drop_fraction=drop_fraction,
        peak_degree=float(degree_col.max()),
        sprint_duration_s=float(
            np.count_nonzero(degree_col > 1.0 + 1e-6) * trace.dt_s
        ),
        mean_burst_degree=mean_burst_degree,
        peak_room_temperature_c=float(room_col.max()),
        energy_shares=tuple(sorted(shares.items())),
        aborted_at_s=None,
        n_fault_events=0,
    )


def _run_packed_group(tasks: Sequence["SweepTask"]) -> List["TaskResult"]:
    """One kernel batch over one compatible task group, in input order."""
    from repro.simulation import batch as _batch

    first = tasks[0]
    width = len(tasks)
    demand = np.empty((len(first.trace), width), dtype=np.float64)
    bounds = np.empty(width, dtype=np.float64)
    for j, task in enumerate(tasks):
        demand[:, j] = task.trace.samples
        bounds[j] = (
            math.inf
            if task.spec.kind == "greedy"
            else float(task.spec.upper_bound)  # type: ignore[arg-type]
        )
    facility = _batch_facility_for(first.config)
    served, kernel = facility.run_demand_matrix(
        demand,
        first.trace.dt_s,
        bounds,
        telemetry_fields=_PACK_TELEMETRY,
    )
    telemetry = kernel.telemetry
    assert telemetry is not None
    degrees = np.asarray(telemetry["degree"])
    rooms = np.asarray(telemetry["room_temperature_c"])
    results: List["TaskResult"] = []
    for j, task in enumerate(tasks):
        if bool(kernel.failed[j]):
            # The scalar engine raises here; re-run it so the failure
            # record carries the scalar path's exact type and message.
            results.append(_batch.execute_task(task))
        else:
            results.append(
                _packed_outcome(
                    task, served[:, j], degrees[:, j], rooms[:, j], kernel, j
                )
            )
    return results


def vector_pack_tasks(
    tasks: Sequence["SweepTask"],
) -> List[Optional["TaskResult"]]:
    """Execute the packable subset of ``tasks`` on the vector kernel.

    Returns a list aligned with the input: a :class:`TaskResult` where
    the task ran packed, ``None`` where it must run on the scalar path
    (incompatible task, group narrower than :data:`MIN_PACK_WIDTH`, or
    the vector toggle off).  The caller owns caching and the scalar
    dispatch of the ``None``\\ s.
    """
    results: List[Optional["TaskResult"]] = [None] * len(tasks)
    if not tasks or not vector_oracle_enabled():
        return results
    groups: Dict[Tuple[str, str, int], List[int]] = {}
    for i, task in enumerate(tasks):
        if task_packable(task):
            groups.setdefault(_group_key(task), []).append(i)
    for indices in groups.values():
        if len(indices) < MIN_PACK_WIDTH:
            continue
        packed = _run_packed_group([tasks[i] for i in indices])
        for i, result in zip(indices, packed):
            results[i] = result
    return results


def packed_point_searches(
    point_traces: Sequence[Trace],
    candidates: Tuple[float, ...],
    config: DataCenterConfig,
) -> Optional[List[Optional[Tuple[float, float]]]]:
    """Fuse a whole table build's Oracle searches into few kernel batches.

    Every grid point contributes ``len(candidates)`` batch elements (its
    trace replicated across the candidate bounds); traces of equal length
    share one kernel run.  Per point the strict first-wins argmax over
    the candidate performances replicates the reference search exactly —
    NaN (failed) candidates skipped, ``None`` when all fail.

    Returns ``None`` — "not handled, use the per-point path" — when the
    vector toggle is off, a trace falls outside the kernel envelope
    (``dt`` mismatch raises the descriptive error on the reference path),
    a candidate is non-positive, or a trace-length group would batch
    fewer than :data:`MIN_PACK_WIDTH` lanes (points x candidates).

    No run path calls it; table builds run one pruned search per point.
    It stays only because sprintbench's tracer wraps it by name, until
    the vector tier is deleted (ROADMAP item 2), and its tests pin the
    packed tier's table against the per-candidate reference.
    """
    if not vector_oracle_enabled():
        return None
    if not candidates:
        return None
    if not all(c > 0.0 for c in candidates):
        return None
    for trace in point_traces:
        if len(trace) == 0 or abs(trace.dt_s - config.dt_s) > 1e-9:
            return None

    n_cand = len(candidates)
    cand_arr = np.asarray(candidates, dtype=np.float64)
    groups: Dict[Tuple[str, int], List[int]] = {}
    for p, trace in enumerate(point_traces):
        groups.setdefault((repr(trace.dt_s), len(trace)), []).append(p)
    if any(len(points) * n_cand < MIN_PACK_WIDTH for points in groups.values()):
        return None

    facility = _batch_facility_for(config)
    results: List[Optional[Tuple[float, float]]] = [None] * len(point_traces)
    for point_indices in groups.values():
        first_trace = point_traces[point_indices[0]]
        width = len(point_indices) * n_cand
        demand = np.empty((len(first_trace), width), dtype=np.float64)
        bounds = np.empty(width, dtype=np.float64)
        for slot, p in enumerate(point_indices):
            lo = slot * n_cand
            demand[:, lo : lo + n_cand] = point_traces[p].samples[:, None]
            bounds[lo : lo + n_cand] = cand_arr
        served, kernel = facility.run_demand_matrix(
            demand, first_trace.dt_s, bounds
        )
        for slot, p in enumerate(point_indices):
            lo = slot * n_cand
            trace = point_traces[p]
            performances = [
                math.nan
                if bool(kernel.failed[lo + c])
                else average_performance_improvement(served[:, lo + c], trace)
                for c in range(n_cand)
            ]
            best = first_wins_argmax(performances)
            if best is not None:
                results[p] = (float(candidates[best]), performances[best])
    return results
