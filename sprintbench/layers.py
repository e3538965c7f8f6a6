"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public calls of each layer listed in
:data:`WRAPPED` and records one span per call (name, start, end, parent
span, job id) in flat in-memory columns, plus counts read from the call's
arguments and result at the same boundary.  A function is patched in its
defining module *and* in every module that imported it by name (``batch``
imports ``shared_prefix_oracle_search`` directly, for example); a method is
patched on its class.  :meth:`Tracer.uninstall` puts every original back.

Wrappers pass arguments, results and exceptions through untouched, so a
traced run computes exactly what an untraced one does.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

SETUP, TIMED = 0, 1

Counter = Tuple[str, Callable[[tuple, dict, Any], float]]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _failed_results(result: Any) -> float:
    items = result if isinstance(result, list) else [result]
    return float(sum(1 for r in items if getattr(r, "failed", False)))


_BATCH_FAILURES: Tuple[Counter, ...] = (
    ("batch.failures", lambda a, k, r: _failed_results(r)),
)
_SCHEDULED: Tuple[Counter, ...] = (
    ("scheduler.tasks", lambda a, k, r: float(len(a[1]))),
)

#: (span group, module, attribute path, counters) for every wrapped call.
#: The group's first component names the layer, after its module.
WRAPPED: Tuple[Tuple[str, str, str, Tuple[Counter, ...]], ...] = (
    ("workloads", "repro.workloads.ms_trace", "generate_ms_trace", ()),
    ("workloads", "repro.workloads.ms_trace", "generate_ms_family_trace", ()),
    ("workloads", "repro.workloads.yahoo_trace", "generate_yahoo_trace", ()),
    ("workloads", "repro.workloads.traces", "Trace.resampled", ()),
    ("workloads", "repro.workloads.traces", "Trace.span_stats", ()),
    # ``simulate`` goes through ``run_tasks``, which counts its failures.
    ("batch", "repro.simulation.batch", "SweepRunner.simulate", ()),
    ("batch", "repro.simulation.batch", "SweepRunner.run_tasks", _BATCH_FAILURES),
    ("batch", "repro.simulation.batch", "SweepRunner.oracle_search", ()),
    ("batch", "repro.simulation.batch", "SweepRunner.build_upper_bound_table", ()),
    (
        "store.load",
        "repro.simulation.store",
        "ArtifactStore.load_payload",
        (("store.load_hits", lambda a, k, r: float(r is not None)),),
    ),
    ("store.write", "repro.simulation.store", "ArtifactStore.store_payload", ()),
    ("store.stats", "repro.simulation.store", "ArtifactStore.stats", ()),
    ("scheduler", "repro.simulation.scheduler", "InProcessScheduler.run_tasks", _SCHEDULED),
    (
        "scheduler",
        "repro.simulation.scheduler",
        "InProcessScheduler.run_point_searches",
        _SCHEDULED,
    ),
    (
        "packing",
        "repro.simulation.packing",
        "vector_pack_tasks",
        (
            ("packing.offered", lambda a, k, r: float(len(_arg(a, k, 0, "tasks")))),
            ("packing.packed", lambda a, k, r: float(sum(1 for x in r if x is not None))),
        ),
    ),
    (
        "packing",
        "repro.simulation.packing",
        "packed_point_searches",
        (
            ("packing.offered", lambda a, k, r: float(len(_arg(a, k, 0, "point_traces")))),
            ("packing.packed", lambda a, k, r: float(0 if r is None else len(r))),
        ),
    ),
    ("batch_facility", "repro.simulation.batch_facility", "BatchFacility.run_fixed_bounds", ()),
    ("batch_facility", "repro.simulation.batch_facility", "BatchFacility.run_demand_matrix", ()),
    ("batch_facility", "repro.simulation.batch_facility", "BatchFacility.oracle_search", ()),
    (
        "batch_facility",
        "repro.simulation.batch_facility",
        "vector_oracle_search",
        (("batch_facility.declined", lambda a, k, r: float(r is None)),),
    ),
    (
        "vector_kernel",
        "repro.core.vector_kernel",
        "VectorStepKernel.step",
        (("vector_kernel.lanes", lambda a, k, r: float(a[0].n)),),
    ),
    (
        "engine.run",
        "repro.simulation.engine",
        "run_simulation",
        (
            (
                "engine.faulted_runs",
                lambda a, k, r: float(
                    (a[3] if len(a) > 3 else k.get("fault_plan")) is not None
                ),
            ),
        ),
    ),
    (
        "engine.shared_prefix",
        "repro.simulation.engine",
        "shared_prefix_oracle_search",
        (("engine.shared_prefix.served", lambda a, k, r: float(r is not None)),),
    ),
    (
        "kernel.run_trace",
        "repro.core.controller",
        "SprintingController.run_trace",
        (("kernel.run_trace.steps", lambda a, k, r: float(len(_arg(a, k, 1, "trace")))),),
    ),
    ("kernel.step", "repro.core.controller", "SprintingController.step", ()),
    ("kernel.degraded_step", "repro.core.controller", "SprintingController.degraded_step", ()),
    (
        "steplog",
        "repro.core.steplog",
        "StepLog.extend_cycle",
        (
            (
                "steplog.replayed_steps",
                lambda a, k, r: float(len(_arg(a, k, 1, "steps")) * _arg(a, k, 2, "repeats")),
            ),
        ),
    ),
    ("steplog", "repro.core.steplog", "StepLog.snapshot", ()),
    ("snapshot.capture", "repro.simulation.snapshot", "FacilityState.capture", ()),
    ("snapshot.restore", "repro.simulation.snapshot", "FacilityState.restore", ()),
    ("rollout", "repro.simulation.rollout", "RolloutPlanner.plan", ()),
    (
        "faults.apply_due",
        "repro.simulation.faults",
        "FaultInjector.apply_due",
        (("faults.events", lambda a, k, r: float(len(r))),),
    ),
    ("faults", "repro.simulation.faults", "FaultInjector.restore_substrate", ()),
)

#: Spans the harness opens around a traced round, each job in it and each
#: calibration slice (which no measured time includes).
HARNESS_ROUND = "harness.round"
HARNESS_JOB = "harness.job"
CALIBRATION = "calibration"


def _module_namespaces() -> List[Dict[str, Any]]:
    namespaces = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if isinstance(namespace, dict):
            namespaces.append(namespace)
    return namespaces


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.phase = array("b")
        self.stack: List[int] = []
        self.job_id = -1
        self.current_phase = SETUP
        self._counts = {SETUP: defaultdict(float), TIMED: defaultdict(float)}
        self.counts = self._counts[SETUP]
        self._patches: List[Tuple[Any, str, Any, Any]] = []

    # -- span recording ------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def set_phase(self, phase: int) -> None:
        self.current_phase = phase
        self.counts = self._counts[phase]

    def counts_of(self, phase: int) -> Dict[str, float]:
        return self._counts[phase]

    def open(self, nid: int, t: float) -> int:
        i = len(self.start)
        self.start.append(t)
        self.end.append(math.nan)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.phase.append(self.current_phase)
        self.stack.append(i)
        return i

    def close(self, i: int, t: float) -> None:
        self.end[i] = t
        self.stack.pop()

    # -- patching ------------------------------------------------------
    def _wrap(
        self, fn: Callable[..., Any], group: str, counters: Tuple[Counter, ...]
    ) -> Callable[..., Any]:
        nid = self.name_id(group)
        errors = "errors." + group.split(".", 1)[0]
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            i = tracer.open(nid, perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(i, perf())
                tracer.counts[errors] += 1.0
                raise
            tracer.close(i, perf())
            for key, value in counters:
                tracer.counts[key] += value(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every call in :data:`WRAPPED` (idempotent)."""
        if self._patches:
            return
        functions: Dict[int, Tuple[Any, Any]] = {}
        for group, module_name, path, counters in WRAPPED:
            module = importlib.import_module(module_name)
            if "." not in path:
                raw = getattr(module, path)
                functions[id(raw)] = (raw, self._wrap(raw, group, counters))
                continue
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched: Any = classmethod(self._wrap(raw.__func__, group, counters))
            else:
                patched = self._wrap(raw, group, counters)
            self._patches.append((owner, attr, raw, patched))
            setattr(owner, attr, patched)
        for namespace in _module_namespaces():
            for attr, value in list(namespace.items()):
                entry = functions.get(id(value))
                if entry is not None and value is entry[0]:
                    self._patches.append((namespace, attr, entry[0], entry[1]))
                    namespace[attr] = entry[1]

    def uninstall(self) -> None:
        """Put every original back, including copies imported while patched."""
        originals = {id(patched): (patched, raw) for _, _, raw, patched in self._patches}
        for owner, attr, raw, _ in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._patches.clear()
        for namespace in _module_namespaces():
            for attr, value in list(namespace.items()):
                entry = originals.get(id(value))
                if entry is not None and value is entry[0]:
                    namespace[attr] = entry[1]

    # -- analysis ------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "phase": np.frombuffer(self.phase, dtype=np.int8),
        }

    def self_times(self) -> Tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span: self = duration minus children."""
        cols = self.arrays()
        if self.stack or np.isnan(cols["end"]).any():
            raise RuntimeError("trace has spans that never closed")
        dur = cols["end"] - cols["start"]
        child = cols["parent"] >= 0
        covered = np.bincount(
            cols["parent"][child], weights=dur[child], minlength=dur.size
        )
        return dur, dur - covered

    def write(self, path: Path) -> None:
        """Write every span (and the name table) to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(
    tracer: Tracer,
    scale: float,
    setup_repeats: int,
    tail: Callable[[np.ndarray], float],
) -> Dict[str, float]:
    """Every per-layer metric over the traced timed phase.

    ``workloads.self_s`` is the exception: trace generation happens in
    set-up, so it is the mean workloads self time of one set-up.  ``scale``
    converts raw host seconds into the harness's reference seconds and
    ``tail`` picks the tail percentile of a sample.
    """
    cols = tracer.arrays()
    dur, own = tracer.self_times()
    timed = cols["phase"] == TIMED
    setup = cols["phase"] == SETUP

    def ids(prefix: str) -> List[int]:
        return [
            i
            for i, n in enumerate(tracer.names)
            if n == prefix or n.startswith(prefix + ".")
        ]

    def spans(prefix: str, mask: np.ndarray = timed) -> np.ndarray:
        return mask & np.isin(cols["name"], ids(prefix))

    def self_s(prefix: str, mask: np.ndarray = timed) -> float:
        return float(own[spans(prefix, mask)].sum()) * scale

    def calls(prefix: str) -> float:
        return float(np.count_nonzero(spans(prefix)))

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    c = tracer.counts_of(TIMED)
    plan_ms = dur[spans("rollout")] * scale * 1000.0
    runs = spans("engine.run")
    run_parents = cols["parent"][runs]
    reruns = np.isin(cols["name"][run_parents[run_parents >= 0]], ids("packing"))
    loads = calls("store.load")
    vk_steps = calls("vector_kernel")
    vk_self = self_s("vector_kernel")
    sp_calls = calls("engine.shared_prefix")
    run_trace_steps = c["kernel.run_trace.steps"]
    return {
        "workloads.self_s": self_s("workloads", setup) / setup_repeats,
        "batch.calls": calls("batch"),
        "batch.self_s": self_s("batch"),
        "batch.hit_ratio": ratio(c["batch.hits"], c["batch.hits"] + c["batch.misses"]),
        "batch.failures": c["batch.failures"] + c["errors.batch"],
        "store.loads": loads,
        "store.load_hit_ratio": ratio(c["store.load_hits"], loads),
        "store.load_self_s": self_s("store.load"),
        "store.writes": calls("store.write"),
        "store.write_self_s": self_s("store.write"),
        "store.bytes": c["store.bytes"],
        "scheduler.tasks": c["scheduler.tasks"],
        "scheduler.self_s": self_s("scheduler"),
        "packing.offered": c["packing.offered"],
        "packing.packed_ratio": ratio(c["packing.packed"], c["packing.offered"]),
        "packing.declined": c["packing.offered"] - c["packing.packed"],
        "packing.scalar_reruns": float(np.count_nonzero(reruns)),
        "packing.self_s": self_s("packing"),
        "batch_facility.calls": calls("batch_facility"),
        "batch_facility.declined": c["batch_facility.declined"],
        "batch_facility.self_s": self_s("batch_facility"),
        "vector_kernel.steps": vk_steps,
        "vector_kernel.lanes_mean": ratio(c["vector_kernel.lanes"], vk_steps),
        "vector_kernel.self_s": vk_self,
        "vector_kernel.lane_steps_per_s": ratio(c["vector_kernel.lanes"], vk_self),
        "engine.runs": calls("engine.run"),
        "engine.faulted_runs": c["engine.faulted_runs"],
        "engine.self_s": self_s("engine"),
        "engine.shared_prefix.calls": sp_calls,
        "engine.shared_prefix.served_ratio": ratio(c["engine.shared_prefix.served"], sp_calls),
        "engine.shared_prefix.self_s": self_s("engine.shared_prefix"),
        "kernel.run_trace.calls": calls("kernel.run_trace"),
        "kernel.run_trace.steps": run_trace_steps,
        "kernel.run_trace.self_s": self_s("kernel.run_trace"),
        "kernel.step.calls": calls("kernel.step"),
        "kernel.step.self_s": self_s("kernel.step"),
        "kernel.degraded_step.calls": calls("kernel.degraded_step"),
        "kernel.degraded_step.self_s": self_s("kernel.degraded_step"),
        "steplog.replayed_steps": c["steplog.replayed_steps"],
        "steplog.replayed_frac": ratio(c["steplog.replayed_steps"], run_trace_steps),
        "steplog.self_s": self_s("steplog"),
        "snapshot.captures": calls("snapshot.capture"),
        "snapshot.restores": calls("snapshot.restore"),
        "snapshot.self_s": self_s("snapshot"),
        "rollout.plans": float(plan_ms.size),
        "rollout.self_s": self_s("rollout"),
        "rollout.plan_p50_ms": float(np.median(plan_ms)) if plan_ms.size else 0.0,
        "rollout.plan_tail_ms": tail(plan_ms) if plan_ms.size else 0.0,
        "faults.events": c["faults.events"],
        "faults.degraded_frac": ratio(calls("kernel.degraded_step"), calls("faults.apply_due")),
        "faults.self_s": self_s("faults"),
    }


def self_seconds_by_layer(tracer: Tracer, scale: float) -> Dict[str, float]:
    """Self time of every layer (and the harness) over the traced timed phase."""
    cols = tracer.arrays()
    _, own = tracer.self_times()
    timed = cols["phase"] == TIMED
    totals: Dict[str, float] = defaultdict(float)
    for i, name in enumerate(tracer.names):
        totals[name.split(".", 1)[0]] += float(own[timed & (cols["name"] == i)].sum()) * scale
    return dict(totals)
