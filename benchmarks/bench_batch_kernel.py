"""Vector batch-kernel throughput: many facilities per wall-clock second.

Not a paper figure — a performance benchmark of
:class:`~repro.core.vector_kernel.VectorStepKernel`, the numpy batch
restatement of the scalar step kernel.  A 1024-element batch (1024 fixed
upper bounds over the same trace) is advanced in lockstep and its
*per-facility* throughput compared against scalar single-facility runs
timed in the same process.  The >= 5x assertion is the PR's acceptance
floor; the measured ratio lands in ``BENCH_engine.json`` via
``extra_info``.

The scalar comparison times fixed-bound scalar-kernel runs over the
same trace — the batch kernel's contract is bit-identity with that run,
so per-facility steps/second is the honest common denominator.  One run
takes about 10 ms, so the denominator is the median of several warm runs
on one facility: a single cold run moved the ratio as much as the code
did.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core.strategies import FixedUpperBoundStrategy
from repro.simulation.batch_facility import BatchFacility
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import run_simulation
from repro.workloads.ms_trace import default_ms_trace

#: Batch width of the headline benchmark.
BATCH_WIDTH = 1024

#: Small facility: same per-server ratios as the paper config.  The batch
#: kernel's cost is per-*element*, not per-server, so the small config
#: keeps the scalar comparison runs cheap without changing the ratio.
SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=50)

#: Timed scalar runs behind the denominator (after one untimed warm-up).
SCALAR_RUNS = 5


def _scalar_steps_per_second(trace) -> float:
    """Per-facility throughput of the scalar kernel on the same workload:
    the median of ``SCALAR_RUNS`` warm runs on one facility."""
    datacenter = build_datacenter(SMALL)
    run_simulation(datacenter, trace, FixedUpperBoundStrategy(2.5))
    elapsed = []
    for _ in range(SCALAR_RUNS):
        start = time.perf_counter()
        run_simulation(datacenter, trace, FixedUpperBoundStrategy(2.5))
        elapsed.append(time.perf_counter() - start)
    return len(trace) / statistics.median(elapsed)


def bench_batch_kernel_1024(benchmark):
    """1024 fixed-bound facilities advanced in lockstep over the MS trace."""
    trace = default_ms_trace()
    bounds = np.linspace(1.0, 4.0, BATCH_WIDTH)
    facility = BatchFacility(SMALL)

    result = benchmark.pedantic(
        lambda: facility.run_fixed_bounds(trace, bounds),
        rounds=3,
        iterations=1,
    )
    assert not result.failed.any()
    assert np.isfinite(result.performances).all()

    mean_s = benchmark.stats.stats.mean
    facility_steps_per_second = len(trace) * BATCH_WIDTH / mean_s
    scalar_steps_per_second = _scalar_steps_per_second(trace)
    speedup = facility_steps_per_second / scalar_steps_per_second
    benchmark.extra_info["batch_width"] = BATCH_WIDTH
    benchmark.extra_info["facility_steps_per_wall_second"] = (
        facility_steps_per_second
    )
    benchmark.extra_info["scalar_steps_per_wall_second"] = (
        scalar_steps_per_second
    )
    benchmark.extra_info["speedup_vs_scalar_per_facility"] = speedup
    print(
        f"batch kernel: {facility_steps_per_second:,.0f} facility-steps/s "
        f"across {BATCH_WIDTH} facilities "
        f"({speedup:.1f}x the scalar per-facility rate)"
    )
    # The PR's acceptance floor: the batch amortises the per-step Python
    # overhead across 1024 elements, so per-facility throughput must be
    # at least 5x the scalar kernel's.
    assert speedup >= 5.0
