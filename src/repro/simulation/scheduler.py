"""Pluggable sweep-execution backends behind one scheduler interface.

:class:`SweepScheduler` is the seam :class:`~repro.simulation.batch.SweepRunner`
dispatches uncached work through.  Two backends implement it, and the
runner picks between them by worker count:

* :class:`InProcessScheduler` — strictly serial, zero IPC; the reference
  path the pool backend is checked against, and the right choice on a
  single-core host (no pickling overhead for no parallelism);
* :class:`ProcessPoolScheduler` — the persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` path extracted from
  ``SweepRunner``: traces ship to workers once per pool by content hash
  (via the initializer), workers cache one facility per configuration,
  and the pool survives across batches until a new trace must ship.

Both backends must produce results element-wise identical to
:func:`repro.simulation.batch.execute_task`; the parametrized backend
suite in ``tests/simulation/test_backends.py`` pins that contract.

This module is on the determinism hot-path list: scheduling decides only
*where* a task runs, never *what* it computes, so nothing here may read a
wall clock or entropy source.

Worker-side entry points (:func:`_execute_shipped`,
:func:`_execute_shipped_search`) resolve ``execute_task`` /
``_oracle_point_search`` through :mod:`repro.simulation.batch` at call
time, so test doubles installed over the batch module's names apply to
both backends uniformly.
"""

from __future__ import annotations

import hashlib
import json
import logging
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import DataCenter, build_datacenter
from repro.workloads.traces import Trace

if TYPE_CHECKING:
    from repro.simulation.batch import (
        StrategySpec,
        SweepTask,
        TaskResult,
    )
    from repro.simulation.faults import FaultPlan

_LOG = logging.getLogger(__name__)

#: The selectable backend names (``repro sweep --backend``).
BACKEND_NAMES = ("in-process", "process-pool")


# ---------------------------------------------------------------------------
# Worker-side machinery (shared by the pool backend and its tests)
# ---------------------------------------------------------------------------
# Per-worker state, populated by the pool initializer and the first task
# to need a given facility.  Shipping each trace once at worker start-up
# (instead of pickling it into all of its tasks) and rebuilding the
# substrate once per configuration (instead of once per run) is what makes
# warm sweeps cheap; ``run_simulation`` resets the substrate and the fault
# injector restores mutated ratings, so facility reuse is outcome-neutral.
_WORKER_TRACES: Dict[str, Trace] = {}
_WORKER_FACILITIES: Dict[str, DataCenter] = {}


def _trace_content_key(trace: Trace) -> str:
    """Content hash a worker can look a shipped trace up by."""
    header = f"{trace.name}\x00{trace.dt_s!r}\x00".encode("utf-8")
    return hashlib.sha256(header + trace.samples.tobytes()).hexdigest()


@dataclass(frozen=True)
class _ShippedTask:
    """A :class:`SweepTask` with its trace replaced by a content key."""

    trace_key: str
    spec: "StrategySpec"
    config: DataCenterConfig
    fault_plan: Optional["FaultPlan"]


@dataclass(frozen=True)
class _ShippedSearch:
    """One upper-bound-table grid point, in worker-shippable form."""

    trace_key: str
    candidates: Tuple[float, ...]
    config: DataCenterConfig


def _init_worker(traces: Tuple[Tuple[str, Trace], ...]) -> None:
    """Pool initializer: install the batch's traces in this worker."""
    _WORKER_TRACES.clear()
    _WORKER_TRACES.update(traces)
    _WORKER_FACILITIES.clear()


def _facility_for(config: DataCenterConfig) -> DataCenter:
    """This worker's cached facility for ``config`` (built on first use)."""
    key = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    datacenter = _WORKER_FACILITIES.get(key)
    if datacenter is None:
        datacenter = build_datacenter(config)
        _WORKER_FACILITIES[key] = datacenter
    return datacenter


def _execute_shipped(shipped: _ShippedTask) -> "TaskResult":
    """Worker-process entry point: run one shipped task on cached state.

    Must produce results element-wise identical to
    :func:`repro.simulation.batch.execute_task`: the facility is reset
    before every run and the strategy is rebuilt per task, so only the
    construction cost is amortised, not any state.
    """
    from repro.errors import ConfigurationError, ReproError
    from repro.simulation import batch as _batch
    from repro.simulation.engine import run_simulation

    task = _batch.SweepTask(
        _WORKER_TRACES[shipped.trace_key],
        shipped.spec,
        shipped.config,
        shipped.fault_plan,
    )
    datacenter = _facility_for(task.config)
    try:
        result = run_simulation(
            datacenter,
            task.trace,
            task.spec.build(task.config, cluster=datacenter.cluster),
            fault_plan=task.fault_plan,
        )
    except ConfigurationError:
        raise
    except ReproError as exc:
        return _batch._failure_from_error(task, exc)
    return _batch._outcome_from_result(result)


def _execute_shipped_search(
    shipped: _ShippedSearch,
) -> Optional[Tuple[float, float]]:
    """Worker-process entry point: one grid point's Oracle search."""
    from repro.simulation import batch as _batch

    return _batch._oracle_point_search(
        _WORKER_TRACES[shipped.trace_key], shipped.candidates, shipped.config
    )


# ---------------------------------------------------------------------------
# The scheduler interface
# ---------------------------------------------------------------------------
class SweepScheduler(ABC):
    """Where uncached sweep work runs; never what it computes.

    Implementations receive only the tasks the runner could not answer
    from the artifact store, and must return results element-wise
    identical to the serial reference path
    (:func:`repro.simulation.batch.execute_task` /
    :func:`repro.simulation.batch._oracle_point_search`) in input order.
    """

    #: Backend name (one of :data:`BACKEND_NAMES`).
    name: str = "abstract"

    @abstractmethod
    def run_tasks(self, tasks: Sequence["SweepTask"]) -> List["TaskResult"]:
        """Execute ``tasks``, preserving input order."""

    @abstractmethod
    def run_point_searches(
        self,
        point_traces: Sequence[Trace],
        candidates: Tuple[float, ...],
        config: DataCenterConfig,
    ) -> List[Optional[Tuple[float, float]]]:
        """One Oracle search per trace; ``None`` where every candidate
        failed."""

    def close(self) -> None:
        """Release backend resources (idempotent); default is a no-op."""


class InProcessScheduler(SweepScheduler):
    """Strictly serial in-process execution — the reference backend.

    Zero processes, zero pickling: the right choice for debugging, for
    single-core hosts, and as the identity baseline the pool backend is
    differenced against.
    """

    name = "in-process"

    def run_tasks(self, tasks: Sequence["SweepTask"]) -> List["TaskResult"]:
        from repro.simulation import batch as _batch

        return [_batch.execute_task(task) for task in tasks]

    def run_point_searches(
        self,
        point_traces: Sequence[Trace],
        candidates: Tuple[float, ...],
        config: DataCenterConfig,
    ) -> List[Optional[Tuple[float, float]]]:
        from repro.simulation import batch as _batch

        return [
            _batch._oracle_point_search(trace, candidates, config)
            for trace in point_traces
        ]


class ProcessPoolScheduler(SweepScheduler):
    """The persistent process-pool path, extracted from ``SweepRunner``.

    Traces are shipped to the workers once per pool (by content hash, via
    the initializer) rather than pickled into every task, and submissions
    are chunked so the IPC round-trips scale with the worker count, not
    the task count.  The pool survives across batches; it is only rebuilt
    when a batch introduces a trace the workers have not seen.  A batch of
    one task runs in-process — a pool round-trip cannot pay for itself.
    """

    name = "process-pool"

    def __init__(self, max_workers: int) -> None:
        from repro.errors import ConfigurationError

        if max_workers < 2:
            raise ConfigurationError(
                "ProcessPoolScheduler needs max_workers >= 2; use "
                "InProcessScheduler for serial execution"
            )
        self.max_workers = int(max_workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_traces: Dict[str, Trace] = {}

    @property
    def pool(self) -> Optional[ProcessPoolExecutor]:
        """The live executor (``None`` until first parallel batch)."""
        return self._pool

    def run_tasks(self, tasks: Sequence["SweepTask"]) -> List["TaskResult"]:
        from repro.simulation import batch as _batch

        if len(tasks) < 2:
            return [_batch.execute_task(task) for task in tasks]
        traces: Dict[str, Trace] = {}
        shipped = []
        for task in tasks:
            key = _trace_content_key(task.trace)
            traces[key] = task.trace
            shipped.append(
                _ShippedTask(key, task.spec, task.config, task.fault_plan)
            )
        pool = self._pool_for(traces)
        chunksize = max(1, len(shipped) // (self.max_workers * 4))
        try:
            return list(
                pool.map(_execute_shipped, shipped, chunksize=chunksize)
            )
        except Exception:
            # A broken pool (killed worker, unpicklable crash) cannot be
            # reused; drop it so the next batch starts a fresh one.
            _LOG.debug(
                "sweep pool failed mid-batch; discarding it", exc_info=True
            )
            self.close()
            raise

    def run_point_searches(
        self,
        point_traces: Sequence[Trace],
        candidates: Tuple[float, ...],
        config: DataCenterConfig,
    ) -> List[Optional[Tuple[float, float]]]:
        from repro.simulation import batch as _batch

        if len(point_traces) < 2:
            return [
                _batch._oracle_point_search(trace, candidates, config)
                for trace in point_traces
            ]
        traces: Dict[str, Trace] = {}
        shipped = []
        for trace in point_traces:
            key = _trace_content_key(trace)
            traces[key] = trace
            shipped.append(_ShippedSearch(key, candidates, config))
        pool = self._pool_for(traces)
        try:
            return list(pool.map(_execute_shipped_search, shipped))
        except Exception:
            _LOG.debug(
                "sweep pool failed mid-batch; discarding it", exc_info=True
            )
            self.close()
            raise

    def _pool_for(self, traces: Dict[str, Trace]) -> ProcessPoolExecutor:
        """The persistent pool, rebuilt only when new traces must ship."""
        new = {
            key: trace
            for key, trace in traces.items()
            if key not in self._pool_traces
        }
        if self._pool is None or new:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
            self._pool_traces.update(new)
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_worker,
                initargs=(tuple(self._pool_traces.items()),),
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down and forget the shipped traces (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
            self._pool_traces = {}
