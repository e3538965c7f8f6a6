"""Discrete-time simulation engine driving a controller through a trace.

The engine is intentionally thin: all physics lives in the substrate
objects and all policy in the controller; the engine owns only time
stepping, result collection, and the factory plumbing that the Oracle
search and the upper-bound-table builder need (both re-run the simulation
many times against fresh facilities).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.strategies import (
    FixedUpperBoundStrategy,
    OracleStrategy,
    SprintingStrategy,
    UpperBoundTable,
)
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.simulation.config import DataCenterConfig, DEFAULT_CONFIG
from repro.simulation.datacenter import DataCenter, build_datacenter
from repro.simulation.descent import descend
from repro.simulation.faults import (
    FaultInjector,
    FaultPlan,
    FaultRecord,
    RECOVERABLE_FAULT_ERRORS,
    effective_demand_series,
)
from repro.simulation.metrics import SimulationResult, average_performance_improvement
from repro.simulation.rollout import bind_rollout_planner
from repro.simulation.snapshot import FacilityState
from repro.workloads.traces import Trace

if TYPE_CHECKING:
    from repro.core.controller import (
        ControllerSettings,
        ControlStep,
        SprintingController,
    )
    from repro.servers.cluster import ServerCluster
    from repro.simulation.batch import SweepRunner

#: Default candidate grid for the Oracle's exhaustive search: 13 evenly
#: spaced upper bounds from the normal degree to the chip maximum.
#: ``linspace`` states the endpoint contract directly (``arange`` with a
#: float step only includes 4.0 through rounding luck); the values are
#: identical and pinned by ``tests/simulation/test_engine_grid.py``.
DEFAULT_ORACLE_GRID = tuple(np.linspace(1.0, 4.0, 13).tolist())


def run_simulation(
    datacenter: DataCenter,
    trace: Trace,
    strategy: SprintingStrategy,
    fault_plan: Optional[FaultPlan] = None,
    use_kernel: bool = True,
) -> SimulationResult:
    """Run one full trace through a fresh controller on ``datacenter``.

    The facility substrate is reset first, so back-to-back runs on the
    same :class:`DataCenter` are independent.

    The trace's sampling period must match the controller's integration
    step (the configured ``dt_s``): every sample drives exactly one
    control period, and a mismatch would silently distort breaker thermal
    integration and energy accounting.  Resample the trace
    (:meth:`~repro.workloads.traces.Trace.resampled`) or change the
    config's ``dt_s`` to reconcile them.

    With a ``fault_plan``, the plan's events are injected into the
    substrate as time advances, and recoverable substrate failures
    (breaker trips, battery/tank depletion, thermal emergencies — see
    :data:`~repro.simulation.faults.RECOVERABLE_FAULT_ERRORS`) no longer
    escape: the controller degrades to admission-control-only on the
    surviving capacity and the run completes, with the fault telemetry
    reported via ``fault_events`` / ``aborted_at_s`` on the result.
    Without a plan the historical behaviour is preserved bit-for-bit
    (including the exceptions).

    Kernel runs (the default) step through the span engine either way: a
    fault-free run is one segment, a faulted run one segment per stretch
    between fault boundaries.  ``use_kernel=False`` steps the reference
    controller sample by sample, the executable spec both must match.
    """
    datacenter.reset()
    controller = datacenter.controller(strategy, use_kernel=use_kernel)
    if abs(trace.dt_s - controller.settings.dt_s) > 1e-9:
        raise ConfigurationError(
            f"trace sampling period ({trace.dt_s:g} s) does not match the "
            f"controller step ({controller.settings.dt_s:g} s); resample "
            "the trace or set the config's dt_s accordingly"
        )
    controller.strategy.reset()
    # MPC strategies plan by forking this very facility: attach the rollout
    # planner to the live (datacenter, controller) pair.  No-op otherwise.
    bind_rollout_planner(strategy, datacenter, controller, trace, use_kernel)

    fault_events: list = []
    aborted_at_s: Optional[float] = None
    if fault_plan is None:
        # One segment: the kernel's flat sample loop, bit-identical to
        # per-sample stepping (the span differential suite pins this).
        controller.run_trace(trace)
    else:
        aborted_at_s, fault_events = _run_with_faults(
            datacenter, controller, trace, fault_plan, use_kernel
        )
    return SimulationResult(
        trace=trace,
        strategy_name=strategy.name,
        steps=controller.history.snapshot(),
        energy_shares=controller.phases.energy_shares(),
        time_in_phase_s=dict(controller.phases.time_in_phase_s),
        dropped_integral=controller.admission.dropped_integral,
        served_integral=controller.admission.served_integral,
        demand_integral=controller.admission.demand_integral,
        fault_events=fault_events,
        aborted_at_s=aborted_at_s,
    )


def _run_with_faults(
    datacenter: DataCenter,
    controller: "SprintingController",
    trace: Trace,
    fault_plan: FaultPlan,
    use_kernel: bool,
) -> "Tuple[Optional[float], List[FaultRecord]]":
    """Drive the trace with fault injection and graceful degradation.

    Every trace sample produces exactly one ``ControlStep`` (healthy or
    degraded), so downstream series accessors keep their alignment.  A
    capacity-destroying fault degrades the controller on the *same*
    sample — there is no step on which the error silently disappears.
    Kernel runs go through span-engine segments
    (:func:`_run_faulted_segments`); reference runs step sample by sample
    through :func:`_faulted_sample`, the spec the segments must match.
    """
    injector = FaultInjector(fault_plan, datacenter)
    degraded_at: Optional[int] = None
    try:
        if use_kernel:
            degraded_at, _ = _run_faulted_segments(
                controller, injector, trace, 0, len(trace)
            )
        else:
            for i, demand in enumerate(trace):
                _, degraded_now = _faulted_sample(
                    controller, injector, demand, i * trace.dt_s, i
                )
                if degraded_now and degraded_at is None:
                    degraded_at = i
    finally:
        # Ratings/capacities mutated by the plan are restored so the
        # facility object can be reused (reset() only restores state).
        injector.restore_substrate()
    aborted_at_s = None if degraded_at is None else degraded_at * trace.dt_s
    return aborted_at_s, injector.records


def _faulted_sample(
    controller: "SprintingController",
    injector: FaultInjector,
    demand: float,
    time_s: float,
    step_index: int,
) -> "Tuple[ControlStep, bool]":
    """One fault-aware control period: the per-sample reference semantics.

    Reference (``use_kernel=False``) runs loop over it, and the segment
    runner steps degraded samples through it.  Returns ``(step,
    degraded_now)``, the latter flagging a degradation transition on this
    sample.
    """
    injector.apply_due(time_s)
    effective = injector.effective_demand(demand, time_s)
    degraded_now = False
    if not controller.degraded:
        degradation = injector.take_degradation()
        if degradation is not None:
            degraded_now = True
            _degrade(controller, injector, time_s, *degradation)
    if controller.degraded:
        return controller.degraded_step(effective, time_s), degraded_now
    try:
        step = controller.step(effective, time_s=time_s, step_index=step_index)
    except RECOVERABLE_FAULT_ERRORS as exc:
        _degrade(
            controller,
            injector,
            time_s,
            injector.surviving_capacity_for(exc),
            f"{type(exc).__name__}: {exc}",
        )
        return controller.degraded_step(effective, time_s), True
    return step, degraded_now


def _degrade(
    controller: "SprintingController",
    injector: FaultInjector,
    time_s: float,
    surviving_fraction: float,
    reason: str,
) -> None:
    """Fall back to admission control on the surviving fleet, and log it."""
    base = controller.cluster.capacity_at_degree(1.0)
    controller.enter_degraded(surviving_fraction * base, time_s, reason)
    injector.records.append(FaultRecord(time_s, "degraded", reason))


def _segment_end(boundary_s: float, dt: float, start: int, stop: int) -> int:
    """First sample index in ``(start, stop]`` whose time reaches ``boundary_s``.

    ``stop`` when the boundary lies beyond the range.  Sample ``m`` runs
    at ``m * dt``, and :meth:`FaultInjector.apply_due` fires on ``time_s
    >= boundary``, so the comparison is made on exactly that product.
    """
    if math.isinf(boundary_s):
        return stop
    m = min(stop, max(start + 1, math.ceil(boundary_s / dt)))
    while m > start + 1 and (m - 1) * dt >= boundary_s:
        m -= 1
    while m < stop and m * dt < boundary_s:
        m += 1
    return m


def _run_faulted_segments(
    controller: "SprintingController",
    injector: FaultInjector,
    trace: Trace,
    start: int,
    stop: int,
) -> Tuple[Optional[int], int]:
    """Run samples ``[start, stop)`` under fault injection, as segments.

    Bit-identical to :func:`_faulted_sample` on every sample.  Due events
    are applied at a sample, then the healthy stretch up to the next fault
    boundary (:meth:`FaultInjector.next_boundary_s`) runs as one
    span-engine segment over the effective demand, trace-gap holds
    included.  A recoverable error escaping the segment degrades the
    controller on exactly the failing sample; degraded samples keep
    :meth:`~repro.core.controller.SprintingController.degraded_step`.

    Returns ``(degraded_at, bound_until)``: the sample the controller
    degraded on (``None`` if it stayed healthy), and one past the last
    sample whose step the strategy bound took part in.
    """
    samples = trace.samples
    dt = trace.dt_s
    history = controller.history
    degraded_at: Optional[int] = None
    bound_until = start
    i = start
    while i < stop:
        if controller.degraded:
            _faulted_sample(controller, injector, float(samples[i]), i * dt, i)
            i += 1
            continue
        injector.apply_due(i * dt)
        end = _segment_end(injector.next_boundary_s(), dt, i, stop)
        effective = [
            injector.effective_demand(float(samples[m]), m * dt)
            for m in range(i, end)
        ]
        forced = injector.take_degradation()
        if forced is not None:
            # A forced trip degrades before the sample is attempted.
            degraded_at = i
            _degrade(controller, injector, i * dt, *forced)
        else:
            rows = len(history)
            try:
                controller.run_trace(
                    Trace(np.asarray(effective), dt_s=dt, name=trace.name),
                    start_index=i,
                )
            except RECOVERABLE_FAULT_ERRORS as exc:
                degraded_at = i + len(history) - rows
                bound_until = degraded_at + 1
                _degrade(
                    controller,
                    injector,
                    degraded_at * dt,
                    injector.surviving_capacity_for(exc),
                    f"{type(exc).__name__}: {exc}",
                )
            else:
                bound_until = end
        if degraded_at is not None:
            for m in range(degraded_at, end):
                controller.degraded_step(effective[m - i], m * dt)
        i = end
    return degraded_at, bound_until


def simulate_strategy(
    trace: Trace,
    strategy: SprintingStrategy,
    config: DataCenterConfig = DEFAULT_CONFIG,
    fault_plan: Optional[FaultPlan] = None,
    use_kernel: bool = True,
) -> SimulationResult:
    """Convenience wrapper: build a fresh facility and run the trace."""
    return run_simulation(
        build_datacenter(config),
        trace,
        strategy,
        fault_plan=fault_plan,
        use_kernel=use_kernel,
    )


def evaluate_upper_bound(
    trace: Trace,
    upper_bound: float,
    config: DataCenterConfig = DEFAULT_CONFIG,
) -> float:
    """Average performance of a constant-upper-bound run on a fresh facility."""
    result = simulate_strategy(
        trace, FixedUpperBoundStrategy(upper_bound), config
    )
    return result.average_performance


def _default_runner() -> "SweepRunner":
    """The serial, cache-less runner behind the plain engine functions.

    Imported lazily: :mod:`repro.simulation.batch` imports this module, so
    a module-level import would be circular.
    """
    from repro.simulation.batch import SweepRunner

    return SweepRunner(max_workers=1, cache_dir=None)


def oracle_for_trace(
    trace: Trace,
    config: DataCenterConfig = DEFAULT_CONFIG,
    candidates: Sequence[float] = DEFAULT_ORACLE_GRID,
    runner: Optional["SweepRunner"] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> OracleStrategy:
    """Exhaustive Oracle search over constant upper bounds for a trace.

    "The Oracle strategy finds the optimal upper bound by exhaustive
    search, with the assumption that the burst degree and burst duration
    can be perfectly predicted" (Section V-A) — perfect prediction here
    means evaluating every candidate on the actual trace.

    Parameters
    ----------
    runner:
        Optional :class:`~repro.simulation.batch.SweepRunner` whose store
        caches the whole search as one entry; the default is a serial,
        cache-less runner.  The search itself always runs in-process,
        bit-identical to the historical loop.
    fault_plan:
        Optional fault plan the Oracle must plan around: every candidate
        is evaluated under the same injected faults.
    """
    runner = runner or _default_runner()
    return runner.oracle_search(
        trace, candidates=candidates, config=config, fault_plan=fault_plan
    )


def build_upper_bound_table(
    config: DataCenterConfig = DEFAULT_CONFIG,
    burst_durations_min: Sequence[float] = (1.0, 5.0, 10.0, 15.0),
    burst_degrees: Sequence[float] = (2.6, 2.8, 3.0, 3.2, 3.4, 3.6),
    candidates: Sequence[float] = DEFAULT_ORACLE_GRID,
    trace_factory: Optional[Callable[[float, float], Trace]] = None,
    runner: Optional["SweepRunner"] = None,
) -> UpperBoundTable:
    """Pre-compute the Oracle upper-bound table (Section V-A).

    For every (burst duration, burst degree) grid point a synthetic burst
    trace is generated (Yahoo-style by default, matching the paper's
    sweep), the Oracle search is run, and the optimal bound is recorded.
    The Prediction strategy consumes the result at run time.  Every point
    runs one pruned shared-prefix search
    (:func:`shared_prefix_oracle_search`); a grid that search declines (a
    candidate that is not a valid bound) runs one span-engine run per
    candidate, which raises the bound's error.

    Parameters
    ----------
    trace_factory:
        Optional override mapping ``(degree, duration_min)`` to a trace;
        defaults to :func:`repro.workloads.yahoo_trace.generate_yahoo_trace`.
    runner:
        Optional :class:`~repro.simulation.batch.SweepRunner` to fan the
        point searches out over worker processes and cache each one.  The
        default is a serial, cache-less runner whose output is
        bit-identical to the historical loop.
    """
    runner = runner or _default_runner()
    return runner.build_upper_bound_table(
        config=config,
        burst_durations_min=burst_durations_min,
        burst_degrees=burst_degrees,
        candidates=candidates,
        trace_factory=trace_factory,
    )


# ----------------------------------------------------------------------
# Shared-prefix Oracle search
# ----------------------------------------------------------------------
#
# Every candidate upper bound evolves the facility *identically* until the
# first control period whose needed degree exceeds the bound: the kernel
# realizes ``min(needed, bound, fits...)`` and the fits depend only on
# state, which is shared while the min() outcomes agree.  So one
# instrumented baseline run (at the largest candidate bound) plus a
# facility snapshot at each candidate's divergence frontier lets every
# other candidate resume from its frontier and re-simulate only its
# suffix — O(trace + Σ suffixes) instead of O(candidates × trace).
#
# Most suffixes need not run at all.  A bound caps the capacity a run can
# reach, so :func:`optimistic_performance` bounds its performance from
# above, with or without a fault plan (taken over the effective demand
# under one).  The suffixes go through the one pruned descent,
# :func:`repro.simulation.descent.descend`: highest effective bound
# first, stopping at the first candidate whose bound (times the
# descent's ``_PRUNE_MARGIN``) cannot beat the best performance so far.
#
# Fault-free suffixes stop at the last burst sample; the provisional
# winner's post-burst tail is re-run before it is accepted, unless
# :func:`_tails_hold` certifies that it cannot fail.


def _coast_safe(datacenter: DataCenter) -> bool:
    """True when *any* sub-capacity demand leaves a fresh facility frozen.

    With demand ≤ 1.0 the realized degree is ≤ 1.0 whatever the bound, so
    the only way pre-burst state can move is a substrate element running
    at (or beyond) its rating even at peak-normal load.  These checks are
    static in the config: peak-normal IT heat within the chiller's
    removal capacity (room holds its setpoint), per-PDU IT power within
    the PDU breaker rating (no thermal accumulation, no UPS assist), and
    total facility draw within the DC breaker rating.  When they hold,
    batteries stay full, breakers stay cold, the room stays at setpoint —
    the fresh facility *is* the state at burst onset, and the baseline run
    can skip the quiescent prefix entirely.  A bound below 1.0 changes
    only the demand served before onset, which no performance counts.
    """
    cluster = datacenter.cluster
    topology = datacenter.topology
    cooling = datacenter.cooling
    it_peak = cluster.power_at_degree_w(1.0)
    if it_peak > cooling.chiller.rated_removal_w:
        return False
    if it_peak / topology.n_pdus > topology.pdu.breaker.rated_power_w:
        return False
    cooling_w = cooling.estimate(it_peak, datacenter.config.dt_s).electric_power_w
    if it_peak + cooling_w > topology.dc_breaker.rated_power_w:
        return False
    return True


def _tails_hold(datacenter: DataCenter, settings: "ControllerSettings") -> bool:
    """Static certificate: no fault-free post-burst tail can fail here.

    It covers a fixed-bound run on a coast-safe facility that completed its
    last burst sample with the room's headroom above the thermal margin.
    After that sample demand is at most 1.0, so IT power is at most
    ``it_peak``, within the chiller's removal: the room cannot warm, the
    thermal fit never runs and, below the sprint threshold, no TES is
    drawn, so cooling draws at most ``(pue - 1) * removal``.  Idle recharge
    adds at most ``f * (pdu_rated - IT / n_pdus)`` per PDU (``f`` is
    ``max_recharge_fraction`` <= 1, or 0 without recharge), so the feeds
    below bound each PDU's and the DC's draw.  Inside the hold bands (the
    ``1e-9`` absorbs rounding) no trip budget grows, so no breaker trips,
    and no other tail step can raise.  The room condition is required: a
    thermal fit may draw TES, and the DC bound with that draw reads 1.24x
    the default facility's rating, against 1.03x without it.
    """
    topology = datacenter.topology
    pdu = topology.pdu.breaker
    dc = topology.dc_breaker
    chiller = datacenter.cooling.chiller
    it_peak = datacenter.cluster.power_at_degree_w(1.0)
    f = settings.max_recharge_fraction if settings.recharge_when_idle else 0.0
    pdu_feed = (1.0 - f) * it_peak / topology.n_pdus + f * pdu.rated_power_w
    dc_feed = (
        (1.0 - f) * it_peak
        + f * topology.n_pdus * pdu.rated_power_w
        + chiller.cooling_overhead * chiller.rated_removal_w
    )
    slack = 1.0 - 1e-9
    return (
        pdu_feed <= pdu.rated_power_w * (1.0 + pdu.curve.hold_threshold) * slack
        and dc_feed <= dc.rated_power_w * (1.0 + dc.curve.hold_threshold) * slack
    )


def optimistic_performance(
    cluster: "ServerCluster",
    trace: Trace,
    bound: float,
    demand: Optional[np.ndarray] = None,
) -> float:
    """Upper bound on the performance of any run capped at ``bound``.

    A run's realised degree never exceeds its effective bound, so on
    every sample it serves at most ``min(demand, capacity(bound))``.  The
    value is :func:`average_performance_improvement` of that series, the
    same reduction the measured performance takes, so a measured
    performance can be compared with it directly.

    ``demand`` is the series the controller saw when it differs from the
    trace's samples: under a fault plan, the effective demand
    (:func:`~repro.simulation.faults.effective_demand_series`).  The
    value is still normalised against ``trace``, like the measured one.
    """
    effective = min(float(bound), cluster.throughput.max_degree)
    capacity = cluster.capacity_at_degree(effective)
    seen = trace.samples if demand is None else demand
    return average_performance_improvement(np.minimum(seen, capacity), trace)


def shared_prefix_oracle_search(
    trace: Trace,
    candidates: Sequence[float],
    config: DataCenterConfig = DEFAULT_CONFIG,
    fault_plan: Optional[FaultPlan] = None,
) -> Optional[Tuple[float, float]]:
    """Oracle search via one instrumented baseline run plus per-candidate suffixes.

    Returns ``(best_bound, best_performance)`` bit-identical to running
    :func:`simulate_strategy` once per candidate and taking the strict
    argmax (first of equals — the lowest winning bound), or ``None`` when
    the caller must fall back to the reference per-candidate sweep: for
    no candidates, for a trace whose sampling period differs from the
    config's, for a candidate that is not a valid bound (positive and
    finite; the reference raises the descriptive
    :class:`~repro.errors.ConfigurationError`), and under a fault plan for
    a candidate below 1.0, where a degraded step can serve more than the
    bound's capacity and the pruning bound would not hold.

    Candidate runs that fail (recoverable substrate errors escaping a
    no-fault run) are excluded exactly as the reference path excludes
    them, including failures *after* the burst window: a provisional
    winner's post-burst tail (battery recharge against live breaker
    budgets) is re-simulated, unless :func:`_tails_hold` certifies it,
    and demoted to failed if the tail raises.  Raises
    :class:`~repro.errors.SimulationError` when every candidate fails.
    With or without a fault plan, candidates whose
    :func:`optimistic_performance` cannot beat the best run found so far
    are never simulated.
    """
    if abs(trace.dt_s - config.dt_s) > 1e-9:
        return None  # reference path raises the descriptive ConfigurationError
    bounds = [float(c) for c in candidates]
    floor = 0.0 if fault_plan is None else 1.0
    if not bounds or not all(0.0 < b < math.inf and b >= floor for b in bounds):
        return None
    datacenter = build_datacenter(config)
    if fault_plan is not None:
        return _shared_prefix_with_faults(datacenter, trace, candidates, fault_plan)
    best, performance = _shared_prefix_no_faults(datacenter, trace, candidates)
    if best is None:
        raise SimulationError(
            "oracle search failed: every candidate upper bound's run "
            f"failed on trace {trace.name!r}"
        )
    return float(candidates[best]), performance


def _effective_bounds(
    datacenter: DataCenter, candidates: Sequence[float]
) -> Tuple[List[float], float, float]:
    """Per-candidate effective bounds, the baseline bound, and its effect."""
    max_degree = datacenter.cluster.throughput.max_degree
    eff = [min(float(c), max_degree) for c in candidates]
    eff_base = max(eff)
    base_bound = float(candidates[eff.index(eff_base)])
    return eff, base_bound, eff_base


def _frontiers(
    cluster: "ServerCluster",
    demand: np.ndarray,
    eff: Sequence[float],
    eff_base: float,
    first: int,
) -> Tuple[List[Optional[int]], List[int]]:
    """Each candidate's divergence frontier, and the distinct frontiers.

    ``demand`` is what the controller sees from sample ``first`` on.  A
    candidate diverges at the first step whose needed degree exceeds its
    effective bound ``eff`` below ``eff_base``; ``None`` means it shares
    the baseline's entire run.
    """
    needed = cluster.throughput.degrees_for_capacities(demand)
    frontier_of: List[Optional[int]] = []
    for e in eff:
        above = np.flatnonzero(needed > e)
        shared = e >= eff_base or not above.size
        frontier_of.append(None if shared else first + int(above[0]))
    return frontier_of, sorted({k for k in frontier_of if k is not None})


def _spliced_performance(
    trace: Trace,
    base_served: np.ndarray,
    frontier: int,
    controller: "SprintingController",
) -> float:
    """Performance of the baseline's run with a suffix resumed at ``frontier``."""
    suffix = controller.history.column("served")
    served = base_served.copy()
    served[frontier : frontier + suffix.size] = suffix
    return average_performance_improvement(served, trace)


def _fresh_run(
    datacenter: DataCenter, bound: float
) -> "SprintingController":
    """A reset facility with a fresh fixed-bound controller (kernel path)."""
    datacenter.reset()
    controller = datacenter.controller(FixedUpperBoundStrategy(bound))
    controller.strategy.reset()
    return controller


def _resumed_run(
    datacenter: DataCenter,
    bound: float,
    state: FacilityState,
    injector: Optional[FaultInjector] = None,
) -> "SprintingController":
    """A fresh fixed-bound controller restored to a captured facility state."""
    controller = datacenter.controller(FixedUpperBoundStrategy(bound))
    controller.strategy.reset()
    state.restore(datacenter, controller, injector=injector)
    return controller


def _run_segment(
    controller: "SprintingController", trace: Trace, start: int, stop: int
) -> Optional[int]:
    """Run samples ``[start, stop)`` of a fault-free run as one segment.

    Returns the index of the sample whose step raised a non-configuration
    :class:`~repro.errors.ReproError` — where the reference sweep's run of
    this candidate fails — or ``None`` when every step committed.
    """
    if start >= stop:
        return None
    rows = len(controller.history)
    try:
        controller.run_trace(
            Trace(trace.samples[start:stop], dt_s=trace.dt_s, name=trace.name),
            start_index=start,
        )
    except ConfigurationError:
        raise
    except ReproError:
        return start + len(controller.history) - rows
    return None


def _shared_prefix_no_faults(
    datacenter: DataCenter,
    trace: Trace,
    candidates: Sequence[float],
) -> Tuple[Optional[int], float]:
    """Fault-free search: the baseline runs up to the last burst sample,
    and each candidate's suffix ends there too.

    On a coast-safe facility (:func:`_coast_safe`) every candidate, a
    sub-normal one included, reaches burst onset in the fresh facility's
    state, so the baseline starts there; a sub-normal candidate diverges
    at onset, where the needed degree first exceeds 1.0.  Elsewhere the
    baseline starts at sample 0 and a burst-free trace runs to its end.

    Returns the winner's index and performance; the index is ``None``
    (and the performance NaN) when every candidate fails.  The truncation
    at the last burst sample hides post-burst failures (battery recharge
    against live breaker budgets), so the descent verifies the
    provisional winner: unless :func:`_tails_hold` certifies its tail on
    a coast-safe facility, it re-runs the tail with real physics, and a
    tail that raises demotes it to failed — exactly the reference path's
    NaN for that candidate.
    """
    samples = trace.samples
    n = int(samples.size)
    burst = np.flatnonzero(samples > 1.0)
    coast = _coast_safe(datacenter)
    if coast and not burst.size:
        # No burst: every candidate serves the whole trace at performance
        # 1.0 (coast-safety established no run can fail), and the strict
        # argmax keeps the first candidate.
        return 0, 1.0
    first = int(burst[0]) if coast else 0
    last = int(burst[-1]) if burst.size else n - 1

    cluster = datacenter.cluster
    eff, base_bound, eff_base = _effective_bounds(datacenter, candidates)
    frontier_of, frontiers = _frontiers(
        cluster, samples[first : last + 1], eff, eff_base, first
    )

    # Instrumented baseline: the largest candidate on a fresh facility,
    # run as segments cut at the divergence frontiers with a snapshot
    # taken at each cut.
    controller = _fresh_run(datacenter, base_bound)
    snapshots: Dict[int, FacilityState] = {}
    base_failed_at: Optional[int] = None
    cut = first
    for frontier in frontiers + [last + 1]:
        base_failed_at = _run_segment(controller, trace, cut, frontier)
        if base_failed_at is not None:
            break
        if frontier <= last:
            snapshots[frontier] = FacilityState.capture(datacenter, controller)
        cut = frontier
    base_served = np.zeros(n)
    base_rows = controller.history.column("served")
    base_served[first : first + base_rows.size] = base_rows

    # Candidates sharing the baseline's entire run take its result (its
    # failure included); a frontier past the baseline's failing step means
    # an identical prefix through that step, so that candidate fails too.
    # Everyone else resumes a suffix in the descent.
    end_states: Dict[int, FacilityState] = {}
    prefilled: Dict[int, float] = {}
    if base_failed_at is None:
        base_end = FacilityState.capture(datacenter, controller)
        base_perf = average_performance_improvement(base_served, trace)
        for idx, frontier in enumerate(frontier_of):
            if frontier is None:
                prefilled[idx] = base_perf
                end_states[idx] = base_end
    else:
        for idx, frontier in enumerate(frontier_of):
            if frontier is None or frontier > base_failed_at:
                prefilled[idx] = math.nan

    def run(idx: int) -> float:
        frontier = frontier_of[idx]
        assert frontier is not None  # shared runs are prefilled
        resumed = _resumed_run(
            datacenter, float(candidates[idx]), snapshots[frontier]
        )
        if _run_segment(resumed, trace, frontier, last + 1) is not None:
            return math.nan
        end_states[idx] = FacilityState.capture(datacenter, resumed)
        return _spliced_performance(trace, base_served, frontier, resumed)

    def optimistic(idx: int) -> float:
        return optimistic_performance(cluster, trace, eff[idx])

    settings = controller.settings
    certified = coast and _tails_hold(datacenter, settings)
    threshold = datacenter.cooling.room.threshold_c

    def tail_holds(idx: int) -> bool:
        end = end_states[idx]
        headroom_k = threshold - end.room_temperature_c
        if last + 1 == n or (certified and headroom_k > settings.thermal_margin_k):
            return True
        resumed = _resumed_run(datacenter, float(candidates[idx]), end)
        return _run_segment(resumed, trace, last + 1, n) is None

    found = descend(eff, run, optimistic, prefilled, tail_holds)
    if found.best is None:
        return None, math.nan
    return found.best, found.scores[found.best]


def _shared_prefix_with_faults(
    datacenter: DataCenter,
    trace: Trace,
    candidates: Sequence[float],
    fault_plan: FaultPlan,
) -> Tuple[float, float]:
    """Fault-plan search: one baseline pass from sample 0, pruned suffixes.

    It differs from the fault-free search in three ways.  There is no
    coast: faults can mutate the quiescent prefix.  Needed degrees come
    from the effective demand
    (:func:`~repro.simulation.faults.effective_demand_series`, trace gaps
    holding the last good sample), which depends only on the trace and
    the plan, so the frontiers are known up front and the baseline runs
    once, cut at them, capturing snapshot and injector at each cut.  And
    there is no failure bookkeeping: recoverable errors degrade a run
    instead of killing it, so every candidate finishes.  A degraded step
    ignores the bound, so a candidate whose frontier is at or past the
    baseline's ``bound_until`` shares the baseline's result.

    The descent prunes with :func:`optimistic_performance` over the
    effective demand.  That bound holds on every sample: a healthy step
    serves at most ``min(effective, capacity(b))`` because its degree
    never exceeds the effective bound ``b``; a degraded step serves at
    most the surviving share of ``capacity(1.0)``, and ``capacity(1.0)``
    is at most ``capacity(b)`` because :func:`shared_prefix_oracle_search`
    passes only candidates at or above 1.0 with a fault plan.
    """
    samples = trace.samples
    n = int(samples.size)
    mask = samples > 1.0
    if not bool(mask.any()):
        return float(candidates[0]), 1.0
    last = n - 1 - int(np.argmax(mask[::-1]))
    cluster = datacenter.cluster
    eff, base_bound, eff_base = _effective_bounds(datacenter, candidates)
    demand = effective_demand_series(fault_plan, trace)
    frontier_of, frontiers = _frontiers(
        cluster, demand[: last + 1], eff, eff_base, 0
    )

    # The baseline over [0..last], cut at the frontiers.  bound_until is
    # one past the last sample whose step the bound took part in; a cut
    # reached after the baseline degraded lies at or past it, so no
    # candidate resumes there and it takes no snapshot.
    controller = _fresh_run(datacenter, base_bound)
    injector = FaultInjector(fault_plan, datacenter)
    snapshots: Dict[int, FacilityState] = {}
    bound_until = 0
    cut = 0
    for stop in frontiers + [last + 1]:
        healthy = not controller.degraded
        _, reached = _run_faulted_segments(controller, injector, trace, cut, stop)
        if healthy:
            bound_until = reached
        if stop <= last and not controller.degraded:
            snapshots[stop] = FacilityState.capture(
                datacenter, controller, injector=injector
            )
        cut = stop
    base_served = np.zeros(n)
    base_served[: last + 1] = controller.history.column("served")
    base_perf = average_performance_improvement(base_served, trace)
    prefilled = {
        idx: base_perf
        for idx, frontier in enumerate(frontier_of)
        if frontier is None or frontier >= bound_until
    }

    def run(idx: int) -> float:
        frontier = frontier_of[idx]
        assert frontier is not None  # shared runs are prefilled
        resumed_injector = FaultInjector(fault_plan, datacenter)
        resumed = _resumed_run(
            datacenter, float(candidates[idx]), snapshots[frontier],
            resumed_injector,
        )
        _run_faulted_segments(resumed, resumed_injector, trace, frontier, last + 1)
        return _spliced_performance(trace, base_served, frontier, resumed)

    def optimistic(idx: int) -> float:
        return optimistic_performance(cluster, trace, eff[idx], demand)

    found = descend(eff, run, optimistic, prefilled)
    assert found.best is not None  # degraded runs complete, so none is NaN
    return float(candidates[found.best]), found.scores[found.best]
