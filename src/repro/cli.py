"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro info                     # the Section VI-A configuration
    python -m repro quickstart               # one sprint on the MS trace
    python -m repro uncontrolled             # the Fig. 8a disaster baseline
    python -m repro strategies               # Greedy vs Oracle on both traces
    python -m repro testbed                  # the Fig. 11 reserve sweep
    python -m repro economics                # the Fig. 5 cost/revenue table
    python -m repro simulate                 # one run, with fault injection:
    python -m repro simulate --fault breaker@120s --fault chiller@300s
    python -m repro sweep --headroom         # sensitivity sweeps
    python -m repro sweep --pue
    python -m repro sweep --headroom --fault-plan plan.json
    python -m repro sweep --table            # Oracle upper-bound table
    python -m repro sweep --table --workers 4 --cache-dir /tmp/sweeps
    python -m repro sweep --table --backend work-queue --queue-dir /tmp/q
    python -m repro sweep-worker /tmp/q      # drain a shared work queue
    python -m repro cache gc --max-age-s 86400 --dry-run
    python -m repro profile                  # hot functions of the loop
    python -m repro profile --reference      # ... of the pre-kernel path

The ``sweep`` subcommand runs on the batch engine
(:mod:`repro.simulation.batch`): ``--backend`` selects where uncached
work executes (``in-process``, ``process-pool`` — sized by ``--workers``
— or a multi-process ``work-queue`` drained by ``repro sweep-worker``),
and results are memoised in a shared content-addressed artifact store
(``--no-cache`` disables it, ``--cache-dir`` relocates it,
``repro cache gc`` prunes it).

Heavy figure regenerations (Figs. 9 and 10) live in the benchmark harness:
``pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.strategies import MPCStrategy, SprintingStrategy
    from repro.simulation.batch import StrategySpec, SweepOutcome, SweepRunner
    from repro.simulation.faults import FaultPlan
    from repro.workloads.traces import Trace

from repro.core.strategies import GreedyStrategy
from repro.economics.analysis import fig5_analysis
from repro.units import to_minutes
from repro.simulation.config import DEFAULT_CONFIG, DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import oracle_for_trace, simulate_strategy
from repro.testbed.experiment import (
    no_ups_trip_time_s,
    run_reserve_sweep,
    testbed_utilization_trace,
)
from repro.workloads.ms_trace import default_ms_trace
from repro.workloads.yahoo_trace import generate_yahoo_trace

_ORACLE_GRID = (2.0, 2.5, 3.0, 3.5, 4.0)

_MPC_FLAG_HELP = {
    "horizon": "MPC lookahead horizon, seconds (default 600)",
    "replan": "MPC in-burst re-plan cadence, seconds "
              "(default: plan once per burst)",
    "candidates": "MPC candidate degree bounds "
                  "(comma-separated; default 1.0..4.0 step 0.25)",
    "forecast": "MPC demand forecast: perfect (look at the trace) or "
                "predicted (hold demand for the predicted burst duration)",
    "predicted-duration": "predicted burst duration, seconds "
                          "(required for --mpc-forecast predicted)",
}


def _add_mpc_arguments(parser: argparse.ArgumentParser) -> None:
    """The MPC knobs shared by ``simulate``, ``sweep`` and ``economics``."""
    parser.add_argument("--mpc-horizon", type=float, default=600.0,
                        help=_MPC_FLAG_HELP["horizon"])
    parser.add_argument("--mpc-replan", type=float, default=None,
                        help=_MPC_FLAG_HELP["replan"])
    parser.add_argument("--mpc-candidates", default=None,
                        help=_MPC_FLAG_HELP["candidates"])
    parser.add_argument("--mpc-forecast", default="perfect",
                        choices=("perfect", "predicted"),
                        help=_MPC_FLAG_HELP["forecast"])
    parser.add_argument("--mpc-predicted-duration", type=float, default=None,
                        help=_MPC_FLAG_HELP["predicted-duration"])


def _mpc_candidates_from_args(args: argparse.Namespace) -> Tuple[float, ...]:
    from repro.core.strategies import DEFAULT_MPC_CANDIDATES

    if args.mpc_candidates:
        return tuple(
            _parse_float_list(args.mpc_candidates, "--mpc-candidates")
        )
    return DEFAULT_MPC_CANDIDATES


def _mpc_strategy_from_args(args: argparse.Namespace) -> "MPCStrategy":
    from repro.core.strategies import MPCStrategy
    from repro.errors import ConfigurationError

    try:
        return MPCStrategy(
            candidate_bounds=_mpc_candidates_from_args(args),
            horizon_s=args.mpc_horizon,
            replan_interval_s=args.mpc_replan,
            forecast=args.mpc_forecast,
            predicted_burst_duration_s=args.mpc_predicted_duration,
        )
    except ConfigurationError as exc:
        raise SystemExit(f"bad MPC configuration: {exc}")


def _cmd_info(_args: argparse.Namespace) -> int:
    config = DEFAULT_CONFIG
    print("Section VI-A default configuration:")
    print(f"  servers              : {config.n_servers:,} "
          f"({config.n_pdus} PDUs x {config.servers_per_pdu})")
    print(f"  chip                 : {config.total_cores} cores, "
          f"{config.normal_cores} normally active, "
          f"{config.core_power_w:g} W/core + "
          f"{config.idle_chip_power_w:g} W idle")
    print(f"  server power         : {config.peak_normal_server_power_w:g} W "
          f"peak-normal (non-CPU {config.non_cpu_power_w:g} W)")
    print(f"  facility IT power    : "
          f"{config.peak_normal_it_power_w / 1e6:.1f} MW peak-normal")
    print(f"  PUE                  : {config.pue:g}")
    print(f"  DC headroom          : {config.dc_headroom_fraction:.0%}")
    print(f"  UPS                  : {config.ups_capacity_ah:g} Ah per "
          f"server (~6 min at peak-normal)")
    print(f"  TES                  : {config.tes_runtime_min:g} min of "
          f"peak-normal cooling load")
    print(f"  trip-time reserve    : {config.reserve_trip_time_s:g} s")
    print(f"  max sprinting degree : {config.max_sprinting_degree:g} "
          f"(capacity ceiling "
          f"{config.throughput_max_capacity:g}x)")
    return 0


def _cmd_quickstart(_args: argparse.Namespace) -> int:
    trace = default_ms_trace()
    result = simulate_strategy(trace, GreedyStrategy())
    print(f"trace: {trace.name} "
          f"({to_minutes(trace.over_capacity_time_s()):.1f} burst minutes)")
    summary = result.summary()
    print(f"average performance : {summary['average_performance']:.2f}x")
    print(f"dropped demand      : {100 * summary['drop_fraction']:.1f}%")
    print(f"peak degree         : {summary['peak_degree']:.2f}")
    print(f"energy split        : UPS {summary['ups_energy_share']:.0%} / "
          f"TES {summary['tes_energy_share']:.0%} / "
          f"CB {summary['cb_energy_share']:.0%}")
    return 0


def _cmd_uncontrolled(_args: argparse.Namespace) -> int:
    trace = default_ms_trace()
    dc = build_datacenter()
    baseline = dc.uncontrolled()
    for i, demand in enumerate(trace):
        baseline.step(demand, float(i))
    if baseline.trip_time_s is None:
        print("no trip (unexpected for the MS trace)")
        return 1
    print(f"uncontrolled chip sprinting tripped a breaker at "
          f"{baseline.trip_time_s:.0f} s "
          f"({to_minutes(baseline.trip_time_s):.1f} min; paper: 5 min 20 s)")
    print("the facility went dark for the rest of the trace")
    return 0


def _cmd_strategies(_args: argparse.Namespace) -> int:
    print(f"{'workload':<18} {'Greedy':>8} {'Oracle':>8} {'bound':>6}")
    for name, trace in (
        ("MS", default_ms_trace()),
        ("Yahoo 3.2x/5min", generate_yahoo_trace(3.2, 5.0)),
        ("Yahoo 3.2x/15min", generate_yahoo_trace(3.2, 15.0)),
    ):
        greedy = simulate_strategy(trace, GreedyStrategy())
        oracle = oracle_for_trace(trace, candidates=_ORACLE_GRID)
        print(f"{name:<18} {greedy.average_performance:>7.2f}x "
              f"{oracle.achieved_performance:>7.2f}x "
              f"{oracle.upper_bound:>6.1f}")
    return 0


def _cmd_testbed(_args: argparse.Namespace) -> int:
    utilization = testbed_utilization_trace()
    print(f"no-UPS trip: {no_ups_trip_time_s(utilization):.0f} s")
    for point in run_reserve_sweep(utilization=utilization):
        print(f"reserve {point.reserved_trip_time_s:>4.0f} s : "
              f"ours {point.ours_sustained_s:>4.0f} s | "
              f"CB First {point.cb_first_sustained_s:>4.0f} s")
    return 0


def _cmd_economics(args: argparse.Namespace) -> int:
    for users_ratio, label in ((4.0, "U_t = 4U_0"), (6.0, "U_t = 6U_0")):
        print(f"{label} ($M/month):")
        by_degree = {}
        for p in fig5_analysis(users_ratio=users_ratio):
            row = by_degree.setdefault(
                p.max_sprinting_degree, {"C": p.cost_usd}
            )
            row[p.utilization_fraction] = p.revenue_usd
        print(f"  {'N':>4} {'C':>6} {'R50':>6} {'R75':>6} {'R100':>6}")
        for n, row in sorted(by_degree.items()):
            print(f"  {n:>4.1f} {row['C'] / 1e6:>6.2f} "
                  f"{row[0.5] / 1e6:>6.2f} {row[0.75] / 1e6:>6.2f} "
                  f"{row[1.0] / 1e6:>6.2f}")
    if getattr(args, "strategy", None):
        return _economics_for_strategy(args)
    return 0


def _economics_for_strategy(args: argparse.Namespace) -> int:
    """Revenue a *realized* run can monetize, not the Fig. 5 ideal.

    Fig. 5 assumes the facility always sprints at the provisioned degree
    N; a live controller realizes whatever degree its strategy and its
    energy reserves allow.  Simulating the chosen strategy on the chosen
    trace and feeding the realized peak degree into the per-trace revenue
    model shows how much of the ideal revenue the controller captures.
    """
    from repro.economics.analysis import monthly_revenue_for_trace

    trace = _trace_by_name(args.trace)
    if args.strategy == "greedy":
        strategy: "SprintingStrategy" = GreedyStrategy()
    elif args.strategy == "mpc":
        strategy = _mpc_strategy_from_args(args)
    else:
        raise SystemExit(f"unknown strategy {args.strategy!r}")
    result = simulate_strategy(trace, strategy)
    realized_degree = max(1.0, result.peak_degree)
    realized = monthly_revenue_for_trace(
        trace, max_sprinting_degree=realized_degree
    )
    ideal = monthly_revenue_for_trace(
        trace, max_sprinting_degree=DEFAULT_CONFIG.max_sprinting_degree
    )
    captured = realized / ideal if ideal > 0.0 else 1.0
    print(f"realized revenue ({result.strategy_name} on {trace.name}):")
    print(f"  realized peak degree : {realized_degree:.2f} "
          f"(avg performance {result.average_performance:.2f}x)")
    print(f"  monthly revenue      : ${realized / 1e6:.2f} M "
          f"({captured:.0%} of the N={DEFAULT_CONFIG.max_sprinting_degree:g} "
          f"ideal ${ideal / 1e6:.2f} M)")
    return 0


def _trace_by_name(name: str) -> "Trace":
    if name == "ms":
        return default_ms_trace()
    if name == "yahoo5":
        return generate_yahoo_trace(3.2, 5.0)
    if name == "yahoo15":
        return generate_yahoo_trace(3.2, 15.0)
    raise SystemExit(f"unknown trace {name!r} (expected ms, yahoo5 or yahoo15)")


def _fault_plan_from_args(args: argparse.Namespace) -> Optional["FaultPlan"]:
    """Combine ``--fault-plan FILE`` and repeatable ``--fault SPEC`` flags."""
    from repro.errors import ConfigurationError
    from repro.simulation.faults import FaultEvent, FaultPlan

    events = []
    try:
        if getattr(args, "fault_plan", None):
            events.extend(FaultPlan.load(args.fault_plan).events)
        for spec in getattr(args, "fault", None) or ():
            events.append(FaultEvent.parse(spec))
    except (OSError, ConfigurationError) as exc:
        raise SystemExit(f"bad fault plan: {exc}")
    return FaultPlan(tuple(events)) if events else None


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.strategies import FixedUpperBoundStrategy, MPCStrategy

    trace = _trace_by_name(args.trace)
    strategy: "SprintingStrategy"
    if args.strategy == "greedy":
        strategy = GreedyStrategy()
    elif args.strategy == "fixed":
        strategy = FixedUpperBoundStrategy(args.bound)
    elif args.strategy == "mpc":
        strategy = _mpc_strategy_from_args(args)
    else:
        raise SystemExit(f"unknown strategy {args.strategy!r}")
    plan = _fault_plan_from_args(args)
    result = simulate_strategy(trace, strategy, fault_plan=plan)
    summary = result.summary()
    print(f"trace: {trace.name}, strategy: {result.strategy_name}")
    print(f"average performance : {summary['average_performance']:.2f}x")
    print(f"dropped demand      : {100 * summary['drop_fraction']:.1f}%")
    print(f"peak degree         : {summary['peak_degree']:.2f}")
    print(f"peak room temp      : {summary['peak_room_temperature_c']:.1f} C")
    if isinstance(strategy, MPCStrategy):
        if strategy.plan_log:
            print(f"mpc plans ({len(strategy.plan_log)}):")
            for plan_time_s, bound in strategy.plan_log:
                print(f"  t={plan_time_s:>7.1f}s  bound={bound:.2f}")
        else:
            print("mpc plans: none (no burst onset observed)")
    if plan is not None:
        if result.fault_events:
            print(f"fault events ({len(result.fault_events)}):")
            for record in result.fault_events:
                print(f"  t={record.time_s:>7.1f}s {record.kind:<22} "
                      f"{record.detail}")
        else:
            print("fault events: none applied")
        if result.aborted_at_s is not None:
            print(f"degraded to admission-control-only at "
                  f"{result.aborted_at_s:.1f} s; the run still completed "
                  f"({len(result.steps)}/{len(trace)} samples)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile the control loop and print the hottest functions.

    The profiled workload is the standard full-facility run (one trace
    through ``run_simulation``); ``--reference`` profiles the
    method-dispatched reference step instead of the precomputed kernel,
    which is how the kernel's hot spots were found in the first place.
    ``--search`` profiles a cold 13-candidate Oracle search instead, the
    shared-prefix fork engine's workload (baseline run, snapshot capture/
    restore, per-candidate suffixes).
    """
    import cProfile
    import pstats

    from repro.simulation.engine import oracle_for_trace, run_simulation

    trace = _trace_by_name(args.trace)
    if args.spans:
        stats_ = trace.span_stats()
        lengths = sorted(s.length for s in trace.spans())
        print(f"span profile of trace {trace.name!r}:")
        print(f"samples             : {stats_.n_samples}")
        print(f"spans               : {stats_.n_spans}")
        print(f"mean span length    : {stats_.mean_length:.2f}")
        print(f"p95 span length     : {stats_.p95_length:.2f}")
        print(f"max span length     : {stats_.max_length}")
        print(f"median span length  : {lengths[len(lengths) // 2]}")
        print(f"predicted ff coverage: "
              f"{stats_.predicted_ff_coverage:.1%} of steps fall inside a "
              f"constant-demand span remainder (upper bound on what the "
              f"steady-cycle fast-forward can replay)")
        return 0
    dc = build_datacenter()
    use_kernel = not args.reference
    # Warm-up outside the profile: facility construction, kernel
    # precomputation and numpy allocator effects would otherwise drown
    # the steady-state loop the profile is meant to show.
    run_simulation(dc, trace, GreedyStrategy(), use_kernel=use_kernel)

    profiler = cProfile.Profile()
    profiler.enable()
    if args.search:
        # Each repeat is a *cold* search: the default engine runner is
        # cache-less, so the shared-prefix machinery runs end to end.
        for _ in range(args.repeat):
            oracle_for_trace(trace)
    else:
        for _ in range(args.repeat):
            run_simulation(dc, trace, GreedyStrategy(), use_kernel=use_kernel)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    if args.search:
        workload = (f"{args.repeat} x cold 13-candidate Oracle search on "
                    f"{trace.name!r} (shared-prefix fork engine)")
    else:
        path = "reference step" if args.reference else "kernel step"
        workload = (f"{args.repeat} x {len(trace)} steps on "
                    f"{trace.name!r} ({path})")
    print(f"profiled {workload}, top {args.top} by {args.sort}:")
    stats.print_stats(args.top)
    if args.output:
        stats.dump_stats(args.output)
        print(f"wrote raw profile to {args.output} "
              f"(inspect with python -m pstats)")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.simulation.export import write_steps_csv, write_summary_json

    trace = default_ms_trace()
    result = simulate_strategy(trace, GreedyStrategy())
    csv_path = write_steps_csv(result, args.csv)
    print(f"wrote per-step telemetry to {csv_path}")
    if args.json:
        json_path = write_summary_json([result], args.json)
        print(f"wrote summary to {json_path}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.simulation.planning import smallest_ups_for_target
    from repro.workloads.library import generate_flash_crowd_trace

    trace = generate_flash_crowd_trace(spike_magnitude=args.magnitude)
    print(f"burst profile: flash crowd to {args.magnitude:g}x")
    point = smallest_ups_for_target(trace, args.target)
    if point is None:
        print(f"no candidate battery reaches {args.target:g}x")
        return 1
    print(f"smallest battery for {args.target:g}x: "
          f"{point.ups_capacity_ah:g} Ah per server "
          f"({point.average_performance:.2f}x, "
          f"{100 * point.drop_fraction:.1f}% dropped)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.simulation.reporting import (
        collect_report_lines,
        render_report,
    )

    from pathlib import Path

    lines = collect_report_lines()
    Path(args.path).write_text(render_report(lines))
    held = sum(1 for line in lines if line.holds)
    print(f"wrote {args.path}: {held}/{len(lines)} headline checks hold")
    return 0 if held == len(lines) else 1


def _parse_float_list(raw: str, flag: str) -> List[float]:
    try:
        values = [float(token) for token in raw.split(",") if token.strip()]
    except ValueError:
        values = []
    if not values:
        raise SystemExit(f"{flag} expects a comma-separated list of numbers")
    return values


def _sweep_runner(args: argparse.Namespace) -> "SweepRunner":
    from repro.errors import ConfigurationError
    from repro.simulation.batch import DEFAULT_CACHE_DIRNAME, SweepRunner

    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = args.cache_dir or DEFAULT_CACHE_DIRNAME
    try:
        return SweepRunner(
            max_workers=args.workers,
            cache_dir=cache_dir,
            backend=args.backend,
            queue_dir=args.queue_dir,
        )
    except ConfigurationError as exc:
        raise SystemExit(f"repro sweep: {exc}")


def _sweep_cell(result: "SweepOutcome") -> str:
    """One table cell: a performance figure or a structured failure."""
    if result.failed:
        where = "" if result.time_s is None else f" at t={result.time_s:.0f}s"
        return f"FAILED ({result.error_type}{where}: {result.message})"
    cell = f"{result.average_performance:.3f}x"
    if result.aborted_at_s is not None:
        cell += f" (degraded at {result.aborted_at_s:.0f}s)"
    return cell


def _sweep_spec_from_args(args: argparse.Namespace) -> "StrategySpec":
    """The sensitivity-sweep strategy: Greedy (default) or MPC."""
    from repro.errors import ConfigurationError
    from repro.simulation.batch import StrategySpec

    if args.strategy == "greedy":
        return StrategySpec.greedy()
    try:
        return StrategySpec.mpc(
            candidate_bounds=_mpc_candidates_from_args(args),
            horizon_s=args.mpc_horizon,
            replan_interval_s=args.mpc_replan,
            forecast=args.mpc_forecast,
            predicted_burst_duration_s=args.mpc_predicted_duration,
        )
    except ConfigurationError as exc:
        raise SystemExit(f"bad MPC configuration: {exc}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.simulation.batch import SweepTask
    from repro.simulation.batch_facility import set_vector_oracle_enabled

    if not (args.headroom or args.pue or args.table):
        print("nothing to sweep: pass --headroom, --pue and/or --table")
        return 2
    if args.scalar_oracle:
        set_vector_oracle_enabled(False)
    runner = _sweep_runner(args)
    fault_plan = _fault_plan_from_args(args)
    if args.headroom or args.pue:
        trace = default_ms_trace()
        spec = _sweep_spec_from_args(args)
        label = args.strategy.upper() if args.strategy == "mpc" else "Greedy"
    if args.headroom:
        headrooms = (0.0, 0.05, 0.10, 0.15, 0.20)
        outcomes = runner.run_tasks(
            [
                SweepTask(
                    trace,
                    spec,
                    DataCenterConfig(dc_headroom_fraction=h),
                    fault_plan,
                )
                for h in headrooms
            ]
        )
        print(f"DC headroom sweep (MS trace, {label}):")
        for headroom, outcome in zip(headrooms, outcomes):
            print(f"  {headroom:>5.0%} : {_sweep_cell(outcome)}")
    if args.pue:
        pues = (1.2, 1.4, 1.53, 1.7, 1.9)
        outcomes = runner.run_tasks(
            [
                SweepTask(
                    trace,
                    spec,
                    DataCenterConfig(pue=p),
                    fault_plan,
                )
                for p in pues
            ]
        )
        print(f"PUE sweep (MS trace, {label}):")
        for pue, outcome in zip(pues, outcomes):
            print(f"  {pue:>5.2f} : {_sweep_cell(outcome)}")
    if args.table:
        durations = _parse_float_list(args.durations, "--durations")
        degrees = _parse_float_list(args.degrees, "--degrees")
        candidates = _parse_float_list(args.candidates, "--candidates")
        table = runner.build_upper_bound_table(
            burst_durations_min=durations,
            burst_degrees=degrees,
            candidates=candidates,
        )
        print("Oracle upper-bound table (Yahoo burst family):")
        print(f"  {'duration':>10} {'degree':>8} {'bound':>7}")
        for duration_s, degree, bound in table.entries():
            print(
                f"  {to_minutes(duration_s):>6.1f} min "
                f"{degree:>8.2f} {bound:>7.2f}"
            )
    print(
        f"(sweep engine: {runner.max_workers} worker(s), "
        f"{runner.hits} cache hit(s), {runner.misses} miss(es))"
    )
    return 0


def _cmd_sweep_worker(args: argparse.Namespace) -> int:
    from repro.simulation.workqueue import WorkQueue, drain

    queue = WorkQueue(args.queue_dir, lease_timeout_s=args.lease_timeout)
    executed = drain(
        queue,
        max_tasks=args.max_tasks,
        idle_timeout_s=args.idle_timeout,
        poll_interval_s=args.poll_interval,
    )
    queued, leased, results = queue.pending_counts()
    print(
        f"sweep-worker: executed {executed} task(s); queue now has "
        f"{queued} queued, {leased} leased, {results} result(s)"
    )
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    import time

    from repro.simulation.batch import (
        CACHE_FORMAT_VERSION,
        DEFAULT_CACHE_DIRNAME,
    )
    from repro.simulation.store import ArtifactStore

    store = ArtifactStore(
        args.dir or DEFAULT_CACHE_DIRNAME, CACHE_FORMAT_VERSION
    )
    if args.max_age_s is None and args.max_bytes is None:
        count, total = store.stats()
        print(
            f"cache {store.root}: {count} entr{'y' if count == 1 else 'ies'}, "
            f"{total} bytes (pass --max-age-s and/or --max-bytes to evict)"
        )
        return 0
    report = store.gc(
        now=time.time(),
        max_age_s=args.max_age_s,
        max_bytes=args.max_bytes,
        dry_run=args.dry_run,
    )
    verb = "would remove" if report.dry_run else "removed"
    print(
        f"cache {store.root}: examined {report.examined}, {verb} "
        f"{report.removed} entr{'y' if report.removed == 1 else 'ies'} "
        f"({report.reclaimed_bytes} bytes reclaimed); "
        f"{report.kept} kept ({report.kept_bytes} bytes)"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import build_default_rules, run_analysis

    if args.list_rules:
        for rule in build_default_rules():
            print(f"{rule.rule_id:<18} {rule.description}")
        return 0
    paths = args.paths
    if not paths:
        default = Path("src")
        if not default.is_dir():
            print(
                "repro lint: no paths given and no ./src directory found",
                file=sys.stderr,
            )
            return 2
        paths = [str(default)]
    for path in paths:
        if not Path(path).exists():
            print(f"repro lint: no such path: {path}", file=sys.stderr)
            return 2
    try:
        report = run_analysis(
            paths,
            only=args.rule or None,
            changed_since=args.changed_since,
        )
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    elif args.format == "sarif":
        print(report.to_sarif())
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data Center Sprinting (ICDCS 2015) reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "info", help="print the Section VI-A configuration"
    ).set_defaults(func=_cmd_info)
    subparsers.add_parser(
        "quickstart", help="one Greedy sprint on the MS trace"
    ).set_defaults(func=_cmd_quickstart)
    subparsers.add_parser(
        "uncontrolled", help="the Fig. 8a disaster baseline"
    ).set_defaults(func=_cmd_uncontrolled)
    subparsers.add_parser(
        "strategies", help="Greedy vs Oracle on both workloads"
    ).set_defaults(func=_cmd_strategies)
    subparsers.add_parser(
        "testbed", help="the Fig. 11 reserved-trip-time sweep"
    ).set_defaults(func=_cmd_testbed)
    economics = subparsers.add_parser(
        "economics", help="the Fig. 5 cost/revenue table"
    )
    economics.add_argument("--strategy", default=None,
                           choices=("greedy", "mpc"),
                           help="also report the revenue a realized run of "
                                "this strategy captures")
    economics.add_argument("--trace", default="yahoo15",
                           choices=("ms", "yahoo5", "yahoo15"),
                           help="trace for --strategy (default yahoo15)")
    _add_mpc_arguments(economics)
    economics.set_defaults(func=_cmd_economics)

    simulate = subparsers.add_parser(
        "simulate",
        help="one run with optional fault injection",
    )
    simulate.add_argument("--trace", default="ms",
                          choices=("ms", "yahoo5", "yahoo15"),
                          help="workload trace (default ms)")
    simulate.add_argument("--strategy", default="greedy",
                          choices=("greedy", "fixed", "mpc"),
                          help="sprinting strategy (default greedy)")
    simulate.add_argument("--bound", type=float, default=3.0,
                          help="upper bound for --strategy fixed "
                               "(default 3.0)")
    _add_mpc_arguments(simulate)
    simulate.add_argument("--fault", action="append", metavar="SPEC",
                          help="inject a fault, e.g. breaker@120s, "
                               "chiller@300s:fraction=0.5,duration=120, "
                               "breaker@60s:target=dc (repeatable)")
    simulate.add_argument("--fault-plan", metavar="FILE",
                          help="JSON fault-plan file (see docs/API.md)")
    simulate.set_defaults(func=_cmd_simulate)

    sweep = subparsers.add_parser(
        "sweep",
        help="batched sweeps: sensitivity studies and the Oracle table",
    )
    sweep.add_argument("--strategy", default="greedy",
                       choices=("greedy", "mpc"),
                       help="strategy for the sensitivity sweeps "
                            "(default greedy)")
    _add_mpc_arguments(sweep)
    sweep.add_argument("--headroom", action="store_true",
                       help="sweep the DC headroom 0-20%%")
    sweep.add_argument("--pue", action="store_true",
                       help="sweep the PUE 1.2-1.9")
    sweep.add_argument("--table", action="store_true",
                       help="build the Oracle upper-bound table")
    sweep.add_argument("--durations", default="1,5,10,15",
                       help="--table burst durations, minutes "
                            "(comma-separated; default 1,5,10,15)")
    sweep.add_argument("--degrees", default="2.6,3.0,3.4",
                       help="--table burst degrees "
                            "(comma-separated; default 2.6,3.0,3.4)")
    sweep.add_argument("--candidates", default="2.0,2.5,3.0,3.5,4.0",
                       help="--table Oracle candidate bounds "
                            "(comma-separated; default 2.0,2.5,3.0,3.5,4.0)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: all cores)")
    sweep.add_argument("--backend", default=None,
                       choices=("in-process", "process-pool", "work-queue"),
                       help="execution backend (default: process-pool when "
                            "--workers > 1, else in-process)")
    sweep.add_argument("--queue-dir", default=None, metavar="DIR",
                       help="work-queue directory for --backend work-queue "
                            "(shared with repro sweep-worker processes)")
    sweep.add_argument("--cache-dir", default=None,
                       help="result-cache directory "
                            "(default .repro-sweep-cache)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache")
    sweep.add_argument("--fault", action="append", metavar="SPEC",
                       help="inject a fault into every sensitivity-sweep "
                            "run (repeatable; same grammar as simulate)")
    sweep.add_argument("--fault-plan", metavar="FILE",
                       help="JSON fault-plan applied to every "
                            "sensitivity-sweep run")
    sweep.add_argument("--scalar-oracle", action="store_true",
                       help="disable the vector Oracle and packing tiers "
                            "(Oracle searches and table points then run "
                            "on the scalar span engine; for differential "
                            "debugging)")
    sweep.set_defaults(func=_cmd_sweep)

    worker = subparsers.add_parser(
        "sweep-worker",
        help="drain one sweep work-queue directory (run N of these "
             "against the queue a work-queue sweep driver fills)",
    )
    worker.add_argument("queue_dir", metavar="QUEUE_DIR",
                        help="the queue directory shared with the driver")
    worker.add_argument("--max-tasks", type=int, default=None,
                        help="stop after this many tasks (default: no cap)")
    worker.add_argument("--idle-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="keep polling an empty queue this long before "
                             "exiting (default: exit when empty)")
    worker.add_argument("--poll-interval", type=float, default=0.05,
                        metavar="SECONDS",
                        help="empty-queue poll interval (default 0.05)")
    worker.add_argument("--lease-timeout", type=float, default=60.0,
                        metavar="SECONDS",
                        help="lease expiry for crashed-worker reclaim "
                             "(default 60; must match the driver's)")
    worker.set_defaults(func=_cmd_sweep_worker)

    cache = subparsers.add_parser(
        "cache",
        help="inspect and garbage-collect the shared sweep result store",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_gc = cache_sub.add_parser(
        "gc",
        help="evict store entries by age and/or total size",
    )
    cache_gc.add_argument("--dir", default=None, metavar="DIR",
                          help="store directory "
                               "(default .repro-sweep-cache)")
    cache_gc.add_argument("--max-age-s", type=float, default=None,
                          metavar="SECONDS",
                          help="evict entries older than this")
    cache_gc.add_argument("--max-bytes", type=int, default=None,
                          metavar="BYTES",
                          help="evict oldest entries until the store "
                               "fits this many bytes")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be evicted without "
                               "deleting anything")
    cache_gc.set_defaults(func=_cmd_cache_gc)

    profile = subparsers.add_parser(
        "profile",
        help="cProfile the control loop and print the hottest functions",
    )
    profile.add_argument("--trace", default="ms",
                         choices=("ms", "yahoo5", "yahoo15"),
                         help="workload trace to drive (default ms)")
    profile.add_argument("--repeat", type=int, default=3,
                         help="profiled full runs (default 3)")
    profile.add_argument("--top", type=int, default=25,
                         help="rows of the stats table to print "
                              "(default 25)")
    profile.add_argument("--sort", default="cumulative",
                         choices=("cumulative", "tottime", "ncalls"),
                         help="pstats sort key (default cumulative)")
    profile.add_argument("--reference", action="store_true",
                         help="profile the method-dispatched reference "
                              "step instead of the precomputed kernel")
    profile.add_argument("--search", action="store_true",
                         help="profile a cold 13-candidate Oracle search "
                              "(the shared-prefix fork engine) instead of "
                              "a single run")
    profile.add_argument("--output", metavar="FILE",
                         help="also dump the raw profile for pstats/"
                              "snakeviz")
    profile.add_argument("--spans", action="store_true",
                         help="print the trace's RLE span statistics "
                              "(count, mean/p95 length, predicted "
                              "fast-forward coverage) instead of "
                              "profiling")
    profile.set_defaults(func=_cmd_profile)

    export = subparsers.add_parser(
        "export", help="run the MS trace and export telemetry"
    )
    export.add_argument("csv", help="output CSV path (per-step telemetry)")
    export.add_argument("--json", help="optional summary JSON path")
    export.set_defaults(func=_cmd_export)

    plan = subparsers.add_parser(
        "plan", help="size the smallest UPS for a flash-crowd target"
    )
    plan.add_argument("--target", type=float, default=1.6,
                      help="average-performance target (default 1.6x)")
    plan.add_argument("--magnitude", type=float, default=3.2,
                      help="flash-crowd spike magnitude (default 3.2x)")
    plan.set_defaults(func=_cmd_plan)

    report = subparsers.add_parser(
        "report", help="run the headline experiments, write a Markdown report"
    )
    report.add_argument("path", help="output Markdown path")
    report.set_defaults(func=_cmd_report)

    lint = subparsers.add_parser(
        "lint",
        help="run the repro.analysis static checks "
             "(kernel-drift, snapshot-coverage, cache-key-coverage, "
             "fs-atomicity, units, determinism, error-discipline)",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories to scan (default: ./src)")
    lint.add_argument("--format", default="text",
                      choices=("text", "json", "sarif"),
                      help="report format (default text)")
    lint.add_argument("--rule", action="append", metavar="ID",
                      help="run only this rule (repeatable)")
    lint.add_argument("--changed-since", metavar="REV", default=None,
                      help="report only findings in files changed since "
                           "the given git revision (the whole tree is "
                           "still analysed so cross-file rules stay "
                           "sound)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the available rules and exit")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
