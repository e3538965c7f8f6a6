"""Closed-loop timing, output checks and metrics for one workload run.

Load model: one caller, one thread, no pool.  The caller runs whole cycles
of jobs (see :mod:`jobs`) back to back through an in-process
``SweepRunner(max_workers=1)`` until the timed phase has lasted the
requested seconds, then checks every output.

Host speed on a shared VM changes by up to 2x within seconds, as other
tenants come and go.  Between jobs, at least every :data:`CAL_EVERY_S` of
measured time, the harness times a fixed calibration slice of Python and
small-array numpy work (excluded from every measured time).  Every reported
host time is divided by the run's speed factor: the mean calibration time
over :data:`CAL_REF_S`.  Times are therefore in *reference seconds*, host
seconds on a machine where the slice takes exactly :data:`CAL_REF_S`.  The
raw host figures and the factor are printed beside them.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import jobs
import layers
from repro.simulation import batch_facility
from repro.simulation.batch import SweepRunner
from repro.simulation.reporting import collect_report_lines

#: Calibration slice time on the reference machine (seconds).
CAL_REF_S = 0.002

#: Longest stretch of measured time between two calibration slices.
CAL_EVERY_S = 0.1

#: Set-up is repeated this many times; ``setup_s`` takes the median.
SETUP_REPEATS = 3

#: Candidate tail percentiles, highest first.
LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 50.0)

#: End-to-end metrics (untraced run) with their units.
END_TO_END = {
    "sim_s_per_s": "sim_s/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Units of the per-layer metrics (traced run); unlisted ones are counts.
_LAYER_UNITS = {
    "_per_s": "1/s",
    "_ms": "ms",
    "_s": "s",
    "_ratio": "ratio",
    "_frac": "ratio",
    "_mean": "lanes",
    ".bytes": "bytes",
    ".ff_coverage": "ratio",
    ".overhead": "ratio",
}

_CAL_ARRAY = np.linspace(0.5, 1.5, 64)


def _calibration_slice() -> float:
    acc = 0.0
    arr = _CAL_ARRAY
    for i in range(900):
        x = 1.0 + i * 1e-3
        for _ in range(12):
            x = x * 0.999 + (0.5 if x > 1.0 else 0.25)
        acc += x
        arr = np.minimum(arr * 1.0001, 2.0) + 1e-9
    return acc + float(arr.sum())


def _beyond(n: int, percentile: float) -> float:
    """How many of ``n`` samples lie beyond ``percentile``."""
    return n * (100.0 - percentile) / 100.0


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    for p in LADDER:
        if _beyond(n, p) >= 10.0:
            return p
    return None


def layer_unit(name: str) -> str:
    for suffix, unit in _LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def canonical(result: Any) -> str:
    """Exact, order-stable text of one job result (floats round-trip)."""
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


@dataclass
class Record:
    """One executed job."""

    position: int
    seconds: float
    result: Any
    error: Optional[str]
    #: Index of the last calibration slice before the job; after the
    #: phase, :attr:`cal` is the mean of that slice and the next one.
    cal_index: int
    cal: float = math.nan

    def reference_seconds(self) -> float:
        """Host seconds scaled by the calibration measured around the job."""
        return self.seconds * CAL_REF_S / self.cal


@dataclass
class Phase:
    """Whole rounds run back to back, with their host time."""

    seconds: float = 0.0
    sim_s: float = 0.0
    rounds: int = 0
    cal: List[float] = field(default_factory=list)

    def factor(self) -> float:
        """Host speed factor: mean calibration time over the reference."""
        return statistics.fmean(self.cal) / CAL_REF_S


class Bench:
    """One workload run: set-up, timed phase(s), checks and metrics."""

    def __init__(self, name: str, seed: int, work_dir: Path, tracer: Optional[layers.Tracer]):
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.records: List[Record] = []
        self.ctx_before: Dict[int, jobs.Context] = {}
        self._last_cal = 0.0
        self.problems: List[str] = []
        self.hits = 0
        self.misses = 0
        self.designed_hits = 0
        self.designed_misses = 0
        self.setup_times: List[float] = []
        self.setup_scaled: List[float] = []
        self.imports_scale = 1.0
        self.ff_coverage = math.nan
        self.workload: jobs.Workload

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        """Inputs, Prediction tables and warm-up, repeated; the last build is used.

        Calibration slices run between set-up steps, and each step is
        scaled by the slices on either side of it.
        """
        cal = Phase()
        self._calibrate(cal, None)

        def step(fn: Callable[[], Any]) -> Any:
            t0 = time.perf_counter()
            out = fn()
            raw = time.perf_counter() - t0
            before = cal.cal[-1]
            self._calibrate(cal, None)
            totals[0] += raw
            totals[1] += raw * 2.0 * CAL_REF_S / (before + cal.cal[-1])
            return out

        def build() -> Tuple[jobs.Workload, jobs.Workload, SweepRunner]:
            with SweepRunner(max_workers=1, backend="in-process") as runner:
                timed, warmup = jobs.build(self.name, self.seed, runner, self.work_dir)
            return timed, warmup, warmup.new_runner()

        def finish() -> List[Any]:
            warmup.close_runner(warm_runner)
            return [trace.span_stats() for trace in workload.traces]

        for _ in range(SETUP_REPEATS):
            totals = [0.0, 0.0]
            workload, warmup, warm_runner = step(build)
            for round_jobs in warmup.rounds:
                ctx: jobs.Context = {}
                for job in round_jobs:
                    step(lambda: job.call(warm_runner, ctx))
            stats = step(finish)
            self.setup_times.append(totals[0])
            self.setup_scaled.append(totals[1])
        # Imports ran before any slice could: scale them by the set-up mean.
        self.imports_scale = 1.0 / cal.factor()
        self.workload = workload
        samples = sum(s.n_samples for s in stats)
        self.ff_coverage = sum(s.n_samples - s.n_spans for s in stats) / samples
        offsets = [0]
        for round_jobs in workload.rounds:
            offsets.append(offsets[-1] + len(round_jobs))
        self.offsets = offsets

    # -- timed loop ----------------------------------------------------
    def loop(
        self, seconds: float, traced: bool = False, cycles: Optional[int] = None
    ) -> Tuple[Phase, int]:
        """Whole cycles until ``seconds`` have been measured (or ``cycles`` ran).

        Whole cycles keep every job kind's share exact.  The loop also
        runs until the workload's tail percentile has at least ten jobs
        beyond it.  Returns the phase and the number of cycles run.
        """
        wl = self.workload
        phase = Phase()
        done = 0
        first = len(self.records)
        self._calibrate(phase, None)
        while True:
            runner = wl.new_runner()
            for r in range(len(wl.rounds)):
                self._round(runner, r, traced, phase)
            self._close(runner)
            done += 1
            if cycles is not None:
                if done >= cycles:
                    break
            elif phase.seconds >= seconds and _beyond(
                done * len(wl.jobs), wl.tail_percentile
            ) >= 10.0:
                break
        self._calibrate(phase, None)
        for rec in self.records[first:]:
            rec.cal = (phase.cal[rec.cal_index] + phase.cal[rec.cal_index + 1]) / 2.0
        return phase, done

    def _close(self, runner: SweepRunner) -> None:
        self.hits += runner.hits
        if self.workload.store_root is not None:
            self.misses += runner.misses
        self.workload.close_runner(runner)

    def _calibrate(self, phase: Phase, tracer: Optional[layers.Tracer]) -> float:
        """One calibration slice; returns its host seconds."""
        t0 = time.perf_counter()
        if tracer is not None:
            span = tracer.open(tracer.name_id(layers.CALIBRATION), t0)
        _calibration_slice()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(span, t1)
        phase.cal.append(t1 - t0)
        self._last_cal = t1
        return t1 - t0

    def _round(self, runner: SweepRunner, r: int, traced: bool, phase: Phase) -> None:
        """One round of jobs, timed into ``phase``."""
        wl = self.workload
        tracer = self.tracer if traced else None
        ctx: jobs.Context = {}
        hits0, misses0 = runner.hits, runner.misses
        if tracer is not None:
            bytes0 = runner.store.stats()[1] if runner.store is not None else 0
            tracer.set_phase(layers.TIMED)
            tracer.install()
            job_id = tracer.name_id(layers.HARNESS_JOB)
        perf = time.perf_counter
        calibrating = 0.0
        t0 = perf()
        if tracer is not None:
            root = tracer.open(tracer.name_id(layers.HARNESS_ROUND), t0)
        for j, job in enumerate(wl.rounds[r]):
            if perf() - self._last_cal >= CAL_EVERY_S:
                calibrating += self._calibrate(phase, tracer)
            position = self.offsets[r] + j
            self.ctx_before.setdefault(position, dict(ctx))
            error = None
            result: Any = None
            if tracer is not None:
                tracer.job_id = len(self.records)
            tj = perf()
            if tracer is not None:
                span = tracer.open(job_id, tj)
            try:
                result = job.call(runner, ctx)
            except Exception as exc:  # a failed job is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            te = perf()
            if tracer is not None:
                tracer.close(span, te)
                tracer.job_id = -1
            self.records.append(Record(position, te - tj, result, error, len(phase.cal) - 1))
            self.designed_hits += job.hits
            self.designed_misses += job.misses
        if runner.store is not None:
            # One store entry per miss: every computed result written once.
            entries, size = runner.store.stats()
            if entries != runner.misses:
                self.problems.append(
                    f"store holds {entries} entries after {runner.misses} misses"
                )
        t1 = perf()
        if tracer is not None:
            tracer.close(root, t1)
            tracer.uninstall()
            counts = tracer.counts
            counts["batch.hits"] += runner.hits - hits0
            counts["batch.misses"] += runner.misses - misses0
            if runner.store is not None:
                counts["store.bytes"] += size - bytes0
            tracer.set_phase(layers.SETUP)
        phase.seconds += t1 - t0 - calibrating
        phase.sim_s += sum(job.sim_s for job in wl.rounds[r])
        phase.rounds += 1

    # -- checks --------------------------------------------------------
    def check(self) -> Tuple[str, Dict[int, str], set]:
        """Digest of the cycle's results and the positions whose output failed.

        A position fails when any of its executions raised, when two
        executions disagree, or when its reference recomputation differs.
        """
        first: Dict[int, str] = {}
        bad: set = set()
        for rec in self.records:
            if rec.error is not None:
                bad.add(rec.position)
                continue
            text = canonical(rec.result)
            if first.setdefault(rec.position, text) != text:
                bad.add(rec.position)
                self.problems.append(f"job {rec.position} gave two different results")
        wl_jobs = self.workload.jobs
        missing = [p for p in range(len(wl_jobs)) if p not in first and p not in bad]
        if missing:
            self.problems.append(f"jobs without a result: {missing}")
        digest = hashlib.sha256(
            canonical([first.get(p) for p in range(len(wl_jobs))]).encode()
        ).hexdigest()

        rng = np.random.default_rng([self.seed, 2])
        by_kind: Dict[Tuple[str, str], List[int]] = {}
        for p, job in enumerate(wl_jobs):
            if not job.hits:
                by_kind.setdefault((job.kind, job.label), []).append(p)
        previous = batch_facility.set_vector_oracle_enabled(False)
        try:
            for (kind, label), positions in sorted(by_kind.items()):
                p = int(rng.choice(positions))
                if p not in first:
                    continue
                try:
                    ref = canonical(wl_jobs[p].reference(dict(self.ctx_before[p])))
                except Exception as exc:  # reported as a failed check
                    ref = f"raised {type(exc).__name__}: {exc}"
                ok = ref == first[p]
                print(f"reference check {kind}/{label} job {p}: {'ok' if ok else 'MISMATCH'}")
                if not ok:
                    bad.add(p)
                    self.problems.append(f"job {p} ({kind}/{label}) differs from its reference")
        finally:
            batch_facility.set_vector_oracle_enabled(previous)

        if self.hits != self.designed_hits:
            self.problems.append(
                f"runner hits {self.hits} != designed repeats {self.designed_hits}"
            )
        if self.workload.store_root is not None and self.misses != self.designed_misses:
            self.problems.append(
                f"runner misses {self.misses} != designed cold requests {self.designed_misses}"
            )
        if self.name == "paper":
            lines = collect_report_lines()
            held = sum(1 for line in lines if line.holds)
            print(f"report checks: {held}/{len(lines)} hold")
            if held != len(lines) or len(lines) != 10:
                self.problems.append(f"report: {held}/{len(lines)} checks hold, want 10/10")
        return digest, first, bad

    def print_digests(self, first: Dict[int, str]) -> None:
        for p, job in enumerate(self.workload.jobs):
            text = first.get(p)
            short = "-" if text is None else hashlib.sha256(text.encode()).hexdigest()[:16]
            print(f"job {p:03d} {job.kind}/{job.label} {short}")


def end_to_end(
    bench: Bench, phase: Phase, imports_s: float, failed: int
) -> Dict[str, float]:
    """The untraced run's metrics, in reference seconds."""
    f = phase.factor()
    raw = np.array([rec.seconds for rec in bench.records])
    times = np.array([rec.reference_seconds() for rec in bench.records])
    p = bench.workload.tail_percentile
    setup_raw = imports_s + statistics.median(bench.setup_times)
    metrics = {
        "sim_s_per_s": phase.sim_s / (phase.seconds / f),
        "job_p50_ms": float(np.median(times)) * 1000.0,
        "job_tail_ms": float(np.percentile(times, p)) * 1000.0,
        "setup_s": imports_s * bench.imports_scale + statistics.median(bench.setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"host speed factor {f:.4f} (mean calibration {f * CAL_REF_S * 1e3:.3f} ms"
          f" over {len(phase.cal)} samples; reference {CAL_REF_S * 1e3:g} ms)")
    print(f"raw host: sim_s_per_s {phase.sim_s / phase.seconds:.1f}, "
          f"job_p50_ms {np.median(raw) * 1e3:.3f}, "
          f"job_tail_ms {np.percentile(raw, p) * 1e3:.3f}, "
          f"setup_s {setup_raw:.3f} (imports {imports_s:.3f} + median of "
          f"{', '.join(f'{s:.3f}' for s in bench.setup_times)})")
    print(f"job_tail_ms is p{p:g} of {raw.size} jobs")

    print(f"failed_frac {failed / raw.size:.6f} ({failed}/{raw.size}) [ratio]")
    return metrics


def per_layer(
    bench: Bench, untraced: Phase, traced: Phase
) -> Dict[str, float]:
    """The traced run's metrics: every layer, ``workloads`` and the overhead."""
    tracer = bench.tracer
    assert tracer is not None
    f = traced.factor()
    metrics = layers.layer_metrics(tracer, 1.0 / f, SETUP_REPEATS, _tail_of)
    metrics["workloads.ff_coverage"] = bench.ff_coverage
    rate_untraced = untraced.sim_s / (untraced.seconds / untraced.factor())
    rate_traced = traced.sim_s / (traced.seconds / f)
    metrics["trace.overhead"] = 1.0 - rate_traced / rate_untraced

    by_layer = layers.self_seconds_by_layer(tracer, 1.0)
    calibrating = by_layer.pop(layers.CALIBRATION, 0.0)
    total = sum(by_layer.values())
    _, own = tracer.self_times()
    if float(own.min(initial=0.0)) < -1e-9:
        bench.problems.append("a span's children outlast it")
    if abs(total - traced.seconds) > 1e-6 * traced.seconds:
        bench.problems.append(
            f"layer self times sum to {total:.6f} s, traced phase is {traced.seconds:.6f} s"
        )
    print(f"traced phase {traced.seconds:.3f} s host = sum of self times {total:.3f} s"
          f" (plus {calibrating:.3f} s calibrating):")
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:16s} {seconds:9.4f} s  {100.0 * seconds / total:5.1f} %")
    print(f"traced {traced.rounds} rounds after the same {untraced.rounds} untraced: "
          f"{rate_traced:.1f} vs {rate_untraced:.1f} sim_s/s")
    return metrics


def _tail_of(values: np.ndarray) -> float:
    p = tail_percentile(values.size)
    return float(np.percentile(values, p)) if p is not None else float(values.max())


def report(metrics: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    out = {}
    for name, value in metrics.items():
        out[name] = {"value": float(value), "unit": units[name]}
        print(f"{name:40s} {value:16.6f} {units[name]}")
    return out


def run(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    imports_s: float,
    work_dir: Path,
    out_dir: Path,
) -> Tuple[Dict[str, Any], bool]:
    """One full run; returns the result object and whether it is correct.

    ``work_dir`` holds the run's artifact stores; ``out_dir`` receives the
    span file of a traced run.
    """
    from_env_calls: List[int] = []
    original_from_env = SweepRunner.__dict__["from_env"]

    def forbidden(cls: type) -> SweepRunner:
        from_env_calls.append(1)
        raise RuntimeError("the benchmark must not build runners from the environment")

    SweepRunner.from_env = classmethod(forbidden)  # type: ignore[method-assign,assignment]
    tracer = layers.Tracer() if traced else None
    bench = Bench(name, seed, work_dir, tracer)
    try:
        if tracer is not None:
            tracer.install()
        try:
            bench.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        if traced:
            untraced, cycles = bench.loop(seconds / 2.0)
            traced_phase, _ = bench.loop(0.0, traced=True, cycles=cycles)
        else:
            untraced, _ = bench.loop(seconds)
        digest, first, bad = bench.check()
    finally:
        SweepRunner.from_env = original_from_env  # type: ignore[method-assign]
    if from_env_calls:
        bench.problems.append("SweepRunner.from_env was called")

    timed = bench.records
    failed = sum(1 for rec in timed if rec.position in bad or rec.error is not None)
    bench.print_digests(first)
    wl = bench.workload
    print(f"workload {name} seed {seed}: {len(wl.rounds)} rounds x "
          f"{len(wl.jobs)} jobs per cycle; traffic {json.dumps(wl.traffic)}")
    print(f"ff_coverage {bench.ff_coverage:.4f}; store hits {bench.hits} "
          f"(designed {bench.designed_hits})")
    print(f"digest {digest}")
    if traced:
        metrics = per_layer(bench, untraced, traced_phase)
        units = {k: layer_unit(k) for k in metrics}
        tracer_path = out_dir / f"spans-{name}.npz"
        assert tracer is not None
        tracer.write(tracer_path)
        print(f"spans: {len(tracer.start)} written to {tracer_path}")
    else:
        metrics = end_to_end(bench, untraced, imports_s, failed)
        units = END_TO_END
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not bench.problems and failed == 0
    result = {
        "correct": correct,
        "attempted": len(timed),
        "failed": failed,
        "metrics": report(metrics, units),
    }
    return result, correct
