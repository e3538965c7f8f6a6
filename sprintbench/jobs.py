"""Seeded inputs and job schedules of the benchmark's three workloads.

A workload is one *cycle* of rounds, replayed in order for as long as a run
measures.  A round is a short fixed list of jobs and a job is one public
:class:`~repro.simulation.batch.SweepRunner` call: ``simulate``,
``run_tasks``, ``oracle_search`` or ``build_upper_bound_table``.  Every
input (traces, strategy specs, fault plans, sub-grids, repeat choices) is
generated here from the workload seed; the program only ever receives the
generated objects.

Each job also knows how to recompute its own result on the library's
reference switches (``use_kernel=False`` runs, a per-candidate Oracle
argmax, ``SweepRunner(vector_pack=False)`` with the vector Oracle tier off),
which is how the harness checks outputs bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.strategies import FixedUpperBoundStrategy, UpperBoundTable
from repro.errors import ConfigurationError, ReproError
from repro.simulation import batch_facility, engine
from repro.simulation.batch import StrategySpec, SweepRunner, SweepTask
from repro.simulation.config import DEFAULT_CONFIG, DataCenterConfig
from repro.simulation.engine import DEFAULT_ORACLE_GRID
from repro.simulation.faults import FAULT_KINDS, FaultEvent, FaultPlan
from repro.units import minutes
from repro.workloads import ms_trace, yahoo_trace
from repro.workloads.traces import Trace

#: The paper's burst grid (Figs. 8-10, Sec. V-A): durations x degrees.
DURATIONS_MIN = (1.0, 5.0, 10.0, 15.0)
DEGREES = (2.6, 2.8, 3.0, 3.2, 3.4, 3.6)

#: The two-PDU facility of ``benchmarks/bench_mpc_matrix.py``.
SMALL_CONFIG = DataCenterConfig(n_pdus=2, servers_per_pdu=50)

#: The config sweeps of ``repro sweep --headroom`` / ``--pue``.
HEADROOMS = (0.0, 0.05, 0.10, 0.15, 0.20)
PUES = (1.2, 1.4, 1.53, 1.7, 1.9)

#: Table sub-grids of the ``sweep`` workload: every duration and every
#: degree of the paper's grid appears in four of them.
_SUBGRIDS = tuple(
    (durations, degrees)
    for durations in ((1.0, 5.0), (10.0, 15.0), (1.0, 10.0), (5.0, 15.0))
    for degrees in ((2.6, 3.0, 3.4), (2.8, 3.2, 3.6))
)

#: Over-capacity seconds an MS family trace spends outside its central
#: cluster; adding it to the burst duration makes the cluster that long.
_MS_FAMILY_FIXED_BURST_S = 480.0

#: Yahoo bursts start at minute 5 (Section VI-C).
_BURST_START_S = 300.0

#: Independent random streams drawn from one workload seed.
_TIMED_STREAM = 0
_WARMUP_STREAM = 1


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------
Context = Dict[str, Any]


@dataclass(frozen=True)
class Job:
    """One public runner call with its simulated-seconds request."""

    kind: str
    label: str
    sim_s: float
    call: Callable[[SweepRunner, Context], Any]
    reference: Callable[[Context], Any]
    #: Store hits this job is designed to produce (repeated requests only).
    hits: int = 0
    #: Store misses it is designed to produce when the runner has a store.
    misses: int = 0


def _reference_outcome(
    trace: Trace,
    spec: StrategySpec,
    config: DataCenterConfig,
    plan: Optional[FaultPlan],
) -> Dict[str, Any]:
    """One run on the reference step, reduced like a sweep outcome."""
    try:
        result = engine.simulate_strategy(
            trace, spec.build(config), config, fault_plan=plan, use_kernel=False
        )
    except ConfigurationError:
        raise
    except ReproError as exc:
        return {
            "strategy_name": spec.kind,
            "error_type": type(exc).__name__,
            "message": str(exc),
            "time_s": getattr(exc, "time_s", None),
        }
    burst = result.demand > 1.0
    return {
        "strategy_name": result.strategy_name,
        "average_performance": result.average_performance,
        "overall_performance": result.overall_performance,
        "drop_fraction": result.drop_fraction,
        "peak_degree": result.peak_degree,
        "sprint_duration_s": result.sprint_duration_s,
        "mean_burst_degree": (
            float(result.degrees[burst].mean()) if burst.any() else math.nan
        ),
        "peak_room_temperature_c": result.peak_room_temperature_c,
        "energy_shares": [
            list(pair) for pair in sorted(result.energy_shares.items())
        ],
        "aborted_at_s": result.aborted_at_s,
        "n_fault_events": len(result.fault_events),
    }


def _reference_oracle(
    trace: Trace,
    candidates: Sequence[float],
    config: DataCenterConfig,
    plan: Optional[FaultPlan],
) -> Tuple[float, float]:
    """Per-candidate reference runs and the strict first-wins argmax."""
    best: Optional[Tuple[float, float]] = None
    for bound in candidates:
        try:
            perf = engine.simulate_strategy(
                trace,
                FixedUpperBoundStrategy(bound),
                config,
                fault_plan=plan,
                use_kernel=False,
            ).average_performance
        except ConfigurationError:
            raise
        except ReproError:
            continue
        if best is None or perf > best[1]:
            best = (float(bound), perf)
    if best is None:
        raise ReproError("reference Oracle search: every candidate failed")
    return best


def simulate_job(
    label: str,
    trace: Trace,
    spec_of: Callable[[Context], StrategySpec],
    config: DataCenterConfig,
    plan: Optional[FaultPlan] = None,
) -> Job:
    def call(runner: SweepRunner, ctx: Context) -> Any:
        return runner.simulate(trace, spec_of(ctx), config, plan).to_dict()

    def reference(ctx: Context) -> Any:
        return _reference_outcome(trace, spec_of(ctx), config, plan)

    return Job("simulate", label, trace.duration_s, call, reference, misses=1)


def oracle_job(
    trace: Trace, config: DataCenterConfig, plan: Optional[FaultPlan] = None
) -> Job:
    """An Oracle search whose bound later jobs of the round read from ``ctx``."""
    candidates = DEFAULT_ORACLE_GRID

    def call(runner: SweepRunner, ctx: Context) -> Any:
        oracle = runner.oracle_search(trace, candidates, config, plan)
        ctx["bound"] = oracle.upper_bound
        return [oracle.upper_bound, oracle.achieved_performance]

    def reference(ctx: Context) -> Any:
        return list(_reference_oracle(trace, candidates, config, plan))

    return Job(
        "oracle_search",
        "oracle",
        trace.duration_s * len(candidates),
        call,
        reference,
        misses=1,
    )


def config_sweep_job(label: str, trace: Trace, configs: Sequence[DataCenterConfig]) -> Job:
    """``run_tasks`` over configs, as ``repro sweep --headroom/--pue`` does."""
    tasks = [SweepTask(trace, StrategySpec.greedy(), c) for c in configs]

    def call(runner: SweepRunner, ctx: Context) -> Any:
        return [r.to_dict() for r in runner.run_tasks(tasks)]

    def reference(ctx: Context) -> Any:
        return [
            _reference_outcome(t.trace, t.spec, t.config, None) for t in tasks
        ]

    return Job(
        "run_tasks",
        label,
        trace.duration_s * len(tasks),
        call,
        reference,
        misses=len(tasks),
    )


def table_job(
    durations_min: Sequence[float],
    degrees: Sequence[float],
    traces: Dict[Tuple[float, float], Trace],
) -> Job:
    """A cold upper-bound table over pre-generated grid traces."""
    candidates = DEFAULT_ORACLE_GRID

    def factory(degree: float, duration_min: float) -> Trace:
        return traces[(degree, duration_min)]

    def build(runner: SweepRunner) -> Any:
        table = runner.build_upper_bound_table(
            config=DEFAULT_CONFIG,
            burst_durations_min=durations_min,
            burst_degrees=degrees,
            candidates=candidates,
            trace_factory=factory,
        )
        return [list(entry) for entry in table.entries()]

    def reference(ctx: Context) -> Any:
        previous = batch_facility.set_vector_oracle_enabled(False)
        try:
            with SweepRunner(
                max_workers=1, backend="in-process", vector_pack=False
            ) as runner:
                return build(runner)
        finally:
            batch_facility.set_vector_oracle_enabled(previous)

    points = len(durations_min) * len(degrees)
    sim_s = sum(t.duration_s for t in traces.values()) * len(candidates)
    return Job(
        "build_upper_bound_table",
        "table",
        sim_s,
        lambda runner, ctx: build(runner),
        reference,
        misses=points,
    )


def repeat_job(original: Job) -> Job:
    """The same request again; the store answers it without computing."""
    return Job(
        original.kind,
        "repeat",
        original.sim_s,
        original.call,
        original.reference,
        hits=original.misses,
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
@dataclass
class Workload:
    """One cycle of rounds plus what the harness checks and reports."""

    name: str
    rounds: List[List[Job]]
    #: The percentile ``job_tail_ms`` reports.
    tail_percentile: float
    #: Distinct traces the timed jobs run, for the fast-forward coverage.
    traces: List[Trace]
    #: Hash of every generated input; differs between seeds.
    fingerprint: str
    #: Traffic properties printed beside the metrics.
    traffic: Dict[str, Any] = field(default_factory=dict)
    #: Store directory root; ``None`` for the store-less workloads.
    store_root: Optional[Path] = None
    _cycle_store: int = 0

    @property
    def jobs(self) -> List[Job]:
        return [job for jobs in self.rounds for job in jobs]

    def new_runner(self) -> SweepRunner:
        """The runner for one cycle: in-process, one caller, one thread.

        The ``sweep`` workload gets a fresh, empty artifact store per
        cycle, so every cycle's cold requests compute and its repeated
        requests hit; the other workloads run without a store.
        """
        cache_dir = None
        if self.store_root is not None:
            self._cycle_store += 1
            cache_dir = self.store_root / f"cycle-{self._cycle_store}"
        runner = SweepRunner(max_workers=1, cache_dir=cache_dir, backend="in-process")
        if runner.backend != "in-process":
            raise RuntimeError(f"benchmark runner backend is {runner.backend!r}")
        if runner.store is not None and any(runner.store.root.glob("*")):
            raise RuntimeError("sweep store is not empty at cycle start")
        return runner

    def close_runner(self, runner: SweepRunner) -> None:
        runner.close()
        if runner.cache_dir is not None and runner.cache_dir.exists():
            shutil.rmtree(runner.cache_dir)


def _fingerprint(parts: Sequence[Any]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, Trace):
            digest.update(part.samples.tobytes())
            digest.update(repr(part.dt_s).encode())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


def _ms_grid_trace(degree: float, duration_min: float, seed: int) -> Trace:
    """An MS-style trace whose central cluster lasts ``duration_min``, peaking at ``degree``."""
    trace = ms_trace.generate_ms_family_trace(
        _MS_FAMILY_FIXED_BURST_S + minutes(duration_min), seed=seed
    )
    return trace.normalized_to_peak(degree)


def _held(trace: Trace) -> Trace:
    """Sample-and-hold at 60 s, the way per-minute monitoring data looks."""
    return trace.resampled(60.0).resampled(trace.dt_s)


def _paper_round(trace: Trace, table: UpperBoundTable) -> List[Job]:
    cfg = DEFAULT_CONFIG
    predicted = StrategySpec.prediction(table, trace.over_capacity_time_s())
    return [
        oracle_job(trace, cfg),
        simulate_job("oracle-bound", trace, lambda c: StrategySpec.fixed(c["bound"]), cfg),
        simulate_job("greedy", trace, lambda c: StrategySpec.greedy(), cfg),
        simulate_job("prediction", trace, lambda c: predicted, cfg),
        simulate_job("heuristic", trace, lambda c: StrategySpec.heuristic(c["bound"]), cfg),
    ]


def _paper_traces(rng: np.random.Generator, n: int) -> Tuple[List[Trace], int]:
    """``n`` grid traces in seeded order, a quarter each MS/Yahoo x jittered/held.

    Grid point (i, j) always gets style ``(i + j) % 4``, so every seed runs
    the same mix of trace kinds over durations and degrees; the seed picks
    the order and each trace's own random stream.
    """
    points = [(i, j) for i in range(len(DURATIONS_MIN)) for j in range(len(DEGREES))]
    traces = []
    held = 0
    for k in rng.permutation(len(points))[:n]:
        i, j = points[int(k)]
        style = (i + j) % 4
        duration_min, degree = DURATIONS_MIN[i], DEGREES[j]
        seed = _seed_int(rng)
        if style < 2:
            trace = yahoo_trace.generate_yahoo_trace(degree, duration_min, seed=seed)
        else:
            trace = _ms_grid_trace(degree, duration_min, seed)
        held += style % 2
        traces.append(_held(trace) if style % 2 else trace)
    return traces, held


def build_paper(seed: int, table: UpperBoundTable, warmup: bool) -> Workload:
    """The paper's evaluation: the default facility, no faults."""
    rng = _rng(seed, _WARMUP_STREAM if warmup else _TIMED_STREAM)
    traces, held = _paper_traces(rng, 1 if warmup else 24)
    return Workload(
        name="paper",
        rounds=[_paper_round(trace, table) for trace in traces],
        tail_percentile=95.0,
        traces=traces,
        fingerprint=_fingerprint(traces),
        traffic={"traces": len(traces), "held_traces": held},
    )


def _fault_plan(
    rng: np.random.Generator,
    kind: str,
    region: str,
    finite: bool,
    duration_min: float,
) -> FaultPlan:
    """One event striking before, during or after the burst."""
    burst_end_s = _BURST_START_S + minutes(duration_min)
    if region == "before":
        time_s = rng.uniform(30.0, _BURST_START_S - 10.0)
    elif region == "during":
        time_s = rng.uniform(_BURST_START_S + 5.0, burst_end_s - 5.0)
    else:
        time_s = rng.uniform(burst_end_s + 30.0, 1770.0)
    kwargs: Dict[str, Any] = {}
    if finite:
        kwargs["duration_s"] = float(round(rng.uniform(60.0, 600.0)))
    if kind in ("breaker_trip", "breaker_derate"):
        kwargs["target"] = str(rng.choice(["pdu", "dc"]))
    return FaultPlan((FaultEvent(kind, float(round(time_s)), **kwargs),))


def _fault_row(trace: Trace, plan: Optional[FaultPlan], table: UpperBoundTable) -> List[Job]:
    cfg = SMALL_CONFIG
    predicted = StrategySpec.prediction(table, trace.over_capacity_time_s())
    return [
        oracle_job(trace, cfg, plan),
        simulate_job("greedy", trace, lambda c: StrategySpec.greedy(), cfg, plan),
        simulate_job("prediction", trace, lambda c: predicted, cfg, plan),
        simulate_job(
            "heuristic", trace, lambda c: StrategySpec.heuristic(c["bound"]), cfg, plan
        ),
        simulate_job("ac-only", trace, lambda c: StrategySpec.fixed(1.0), cfg, plan),
        simulate_job("mpc", trace, lambda c: StrategySpec.mpc(), cfg, plan),
    ]


def build_fault_matrix(seed: int, table: UpperBoundTable, warmup: bool) -> Workload:
    """Faulted and MPC runs on the two-PDU facility: one trace per fault kind."""
    rng = _rng(seed, _WARMUP_STREAM if warmup else _TIMED_STREAM)
    n = 1 if warmup else len(FAULT_KINDS)
    # Every seed runs the same mix of burst durations, degrees, fault
    # kinds, strike regions and fault lifetimes; only their pairing varies.
    durations = rng.permutation(DURATIONS_MIN + (5.0, 10.0))[:n]
    degrees = rng.permutation(DEGREES)[:n]
    kinds = rng.permutation(FAULT_KINDS)[:n]
    regions = rng.permutation(["before", "during", "after"] * 2)[:n]
    finite = rng.permutation([True, False] * 3)[:n]
    traces, plans, rounds = [], [], []
    for duration_min, degree, kind, region, fin in zip(durations, degrees, kinds, regions, finite):
        duration_min, degree = float(duration_min), float(degree)
        trace = yahoo_trace.generate_yahoo_trace(degree, duration_min, seed=_seed_int(rng))
        plan = _fault_plan(rng, str(kind), str(region), bool(fin), duration_min)
        traces.append(trace)
        plans.append(plan)
        # Each row's own Oracle bound seeds that row's Heuristic.
        faulted = _fault_row(trace, plan, table)
        # Warm-up runs only the faulted row: it reaches every job kind.
        rounds.append(faulted if warmup else _fault_row(trace, None, table) + faulted)
    events = [plan.events[0] for plan in plans]
    return Workload(
        name="fault-matrix",
        rounds=rounds,
        tail_percentile=90.0,
        traces=traces,
        fingerprint=_fingerprint(traces + [p.canonical() for p in plans]),
        traffic={
            "fault_kinds": sorted(e.kind for e in events),
            "strike_regions": sorted(str(r) for r in regions),
            "strike_times_s": sorted(e.time_s for e in events),
            "finite_faults": sum(1 for e in events if math.isfinite(e.duration_s)),
        },
    )


def build_sweep(seed: int, store_root: Path, warmup: bool) -> Workload:
    """Cold tables, config sweeps and repeated requests on a fresh store."""
    rng = _rng(seed, _WARMUP_STREAM if warmup else _TIMED_STREAM)
    rounds: List[List[Job]] = []
    parts: List[Any] = []
    traces: List[Trace] = []
    originals: List[Job] = []
    for r, k in enumerate(rng.permutation(len(_SUBGRIDS))[: 1 if warmup else None]):
        durations, degrees = _SUBGRIDS[int(k)]
        grid = {
            (g, d): yahoo_trace.generate_yahoo_trace(g, d, seed=_seed_int(rng))
            for d in durations
            for g in degrees
        }
        ms = ms_trace.generate_ms_trace(seed=_seed_int(rng))
        if r % 2 == 0:
            configs = [DataCenterConfig(dc_headroom_fraction=h) for h in HEADROOMS]
            sweep = config_sweep_job("headroom", ms, configs)
        else:
            sweep = config_sweep_job("pue", ms, [DataCenterConfig(pue=p) for p in PUES])
        originals += [table_job(durations, degrees, grid), sweep]
        # Rounds alternate between repeating an earlier config sweep and an
        # earlier table, so every cycle repeats the same mix; which one is
        # seeded.
        same_kind = originals[1::2] if r % 2 == 0 else originals[0::2]
        target = int(rng.integers(0, len(same_kind)))
        rounds.append(originals[-2:] + [repeat_job(same_kind[target])])
        traces += list(grid.values()) + [ms]
        parts += [durations, degrees, target]
    jobs = [job for jobs in rounds for job in jobs]
    return Workload(
        name="sweep",
        rounds=rounds,
        tail_percentile=75.0,
        traces=traces,
        fingerprint=_fingerprint(traces + parts),
        traffic={
            "repeat_share": sum(1 for j in jobs if j.hits) / len(jobs),
            "designed_hits_per_cycle": sum(j.hits for j in jobs),
            "table_lanes": 6 * len(DEFAULT_ORACLE_GRID),
        },
        store_root=store_root / ("warmup" if warmup else "timed"),
    )


def build(name: str, seed: int, runner: SweepRunner, work_dir: Path) -> Tuple[Workload, Workload]:
    """Generate one workload's timed and warm-up inputs from ``seed``.

    Warm-up inputs come from a separate random stream, so they never
    coincide with the timed ones; the ``sweep`` warm-up also gets its own
    store directory.  ``runner`` builds the upper-bound table the
    Prediction specs carry.
    """
    if name == "paper":
        table = runner.build_upper_bound_table(config=DEFAULT_CONFIG)
        return build_paper(seed, table, False), build_paper(seed, table, True)
    if name == "fault-matrix":
        table = runner.build_upper_bound_table(config=SMALL_CONFIG)
        return build_fault_matrix(seed, table, False), build_fault_matrix(seed, table, True)
    if name == "sweep":
        return build_sweep(seed, work_dir, False), build_sweep(seed, work_dir, True)
    raise ValueError(f"unknown workload {name!r}")

