"""Differential fuzz validation of the vectorized batch kernel.

:class:`~repro.core.vector_kernel.VectorStepKernel` advances a whole batch
of fixed-bound facilities in lockstep; its contract is that element ``j``
is *bit-identical* to a scalar
:class:`~repro.core.controller.SprintingController` run with
``FixedUpperBoundStrategy(bounds[j])``.  Every test here drives the same
randomized inputs through both paths and asserts exact equality — served
series, admission integrals, substrate state, phase accumulators,
violation counts, telemetry columns, and the failure-latching semantics
(failing step index, failure kind, frozen zero tail).  Any relaxation to
``approx`` would defeat the point.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.strategies import FixedUpperBoundStrategy, MPCStrategy
from repro.core.vector_kernel import (
    FAIL_DC,
    FAIL_TANK,
    FAIL_THERMAL,
    PHASE_ORDER,
    TELEMETRY_FIELDS,
    VectorStepKernel,
)
from repro.errors import (
    BreakerTrippedError,
    ConfigurationError,
    ReproError,
    SimulationError,
    TankDepletedError,
    ThermalEmergencyError,
)
from repro.simulation.batch_facility import (
    BatchFacility,
    set_vector_oracle_enabled,
    vector_oracle_search,
)
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import run_simulation, simulate_strategy
from repro.workloads.traces import Trace

#: Small facility: same per-server ratios as the paper config, cheap to run.
SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=50)

BOUNDS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0)


def random_trace(seed: int, n: int = 420, dt_s: float = 1.0) -> Trace:
    """A randomised demand trace with idle stretches and hard bursts."""
    rng = np.random.default_rng(seed)
    base = 0.55 + 0.3 * rng.random(n)
    for _ in range(rng.integers(1, 4)):
        start = int(rng.integers(0, n - 40))
        length = int(rng.integers(20, 120))
        base[start:start + length] += rng.uniform(0.8, 3.0)
    return Trace(np.clip(base, 0.0, 4.5), dt_s=dt_s, name=f"vector-{seed}")


class ScalarRun:
    """One scalar reference run: per-step served plus final accumulators."""

    def __init__(self, datacenter, samples, dt, bound, mutate=None):
        datacenter.reset()
        controller = datacenter.controller(FixedUpperBoundStrategy(bound))
        controller.strategy.reset()
        self.served = np.zeros(len(samples))
        self.fail_step = -1
        self.fail_type = None
        for i, demand in enumerate(samples):
            if mutate is not None:
                mutate(datacenter, i)
            try:
                step = controller.step(
                    float(demand), time_s=i * dt, step_index=i
                )
            except ConfigurationError:
                raise
            except ReproError as exc:
                self.fail_step = i
                self.fail_type = type(exc)
                break
            self.served[i] = step.served
        # Captured before the next run resets the shared substrate.
        self.served_integral = controller.admission.served_integral
        self.dropped_integral = controller.admission.dropped_integral
        self.demand_integral = controller.admission.demand_integral
        self.battery_energy_j = datacenter.topology.pdu.ups.battery.energy_j
        self.room_temperature_c = datacenter.cooling.room.temperature_c
        self.time_in_phase_s = [
            controller.phases.time_in_phase_s[phase] for phase in PHASE_ORDER
        ]
        self.violations = len(controller.safety.events)
        self.history = list(controller.history)


def vector_run(
    datacenter, samples, dt, bounds, mutate=None, record_telemetry=False
):
    """One batch run over ``samples``; per-element demand via a matrix."""
    datacenter.reset()
    controller = datacenter.controller(FixedUpperBoundStrategy(1.0))
    controller.strategy.reset()
    kernel = VectorStepKernel(
        datacenter.cluster,
        datacenter.topology,
        datacenter.cooling,
        controller,
        np.asarray(bounds, dtype=np.float64),
        record_telemetry=record_telemetry,
    )
    served = np.zeros((len(samples), kernel.n))
    for i, demand in enumerate(samples):
        if mutate is not None:
            mutate(kernel, i)
        step_demand = demand if np.ndim(demand) else float(demand)
        served[i] = kernel.step(step_demand, i * dt)
    return served, kernel


def assert_element_matches(kernel, served_col, j, scalar: ScalarRun):
    """Batch element ``j`` must replicate the scalar run bit-for-bit."""
    assert np.array_equal(served_col, scalar.served)
    if scalar.fail_step < 0:
        assert not kernel.failed[j]
        assert kernel.served_integral[j] == scalar.served_integral
        assert kernel.dropped_integral[j] == scalar.dropped_integral
        assert kernel.demand_integral[j] == scalar.demand_integral
        assert kernel.battery_energy_j[j] == scalar.battery_energy_j
        assert kernel.room_temperature_c[j] == scalar.room_temperature_c
        for code in range(len(PHASE_ORDER)):
            assert (
                kernel.time_in_phase_s[code][j]
                == scalar.time_in_phase_s[code]
            )
    else:
        assert kernel.failed[j]
        assert kernel.failed_step[j] == scalar.fail_step
        assert np.all(served_col[scalar.fail_step:] == 0.0)
    assert int(kernel.violations[j]) == scalar.violations


class TestVectorMatchesScalar:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces(self, seed):
        trace = random_trace(seed)
        dt = trace.dt_s
        datacenter = build_datacenter(SMALL)
        served, kernel = vector_run(datacenter, trace.samples, dt, BOUNDS)
        for j, bound in enumerate(BOUNDS):
            scalar = ScalarRun(datacenter, trace.samples, dt, bound)
            assert_element_matches(kernel, served[:, j], j, scalar)

    def test_batch_size_one(self):
        trace = random_trace(7)
        dt = trace.dt_s
        datacenter = build_datacenter(SMALL)
        served, kernel = vector_run(datacenter, trace.samples, dt, [3.0])
        assert kernel.n == 1 and served.shape == (len(trace), 1)
        scalar = ScalarRun(datacenter, trace.samples, dt, 3.0)
        assert_element_matches(kernel, served[:, 0], 0, scalar)

    @pytest.mark.parametrize("seed", (20, 21))
    def test_per_element_demand(self, seed):
        """A (steps, n) demand matrix: each element sees its own trace."""
        rng = np.random.default_rng(seed)
        bounds = (2.0, 3.0, 4.0)
        traces = [random_trace(seed * 10 + j) for j in range(len(bounds))]
        demand = np.stack([t.samples for t in traces], axis=1)
        dt = traces[0].dt_s
        datacenter = build_datacenter(SMALL)
        served, kernel = vector_run(
            datacenter, [demand[i] for i in range(demand.shape[0])], dt, bounds
        )
        for j, bound in enumerate(bounds):
            scalar = ScalarRun(datacenter, traces[j].samples, dt, bound)
            assert_element_matches(kernel, served[:, j], j, scalar)
        del rng

    def test_telemetry_matches_control_steps(self):
        trace = random_trace(3, n=200)
        dt = trace.dt_s
        datacenter = build_datacenter(SMALL)
        served, kernel = vector_run(
            datacenter, trace.samples, dt, BOUNDS, record_telemetry=True
        )
        assert kernel.telemetry is not None
        assert set(kernel.telemetry) == set(TELEMETRY_FIELDS)
        for j, bound in enumerate(BOUNDS):
            scalar = ScalarRun(datacenter, trace.samples, dt, bound)
            assert scalar.fail_step < 0
            for name in TELEMETRY_FIELDS:
                column = np.array(
                    [row[j] for row in kernel.telemetry[name]]
                )
                if name == "phase":
                    expected = np.array(
                        [
                            float(PHASE_ORDER.index(step.phase))
                            for step in scalar.history
                        ]
                    )
                elif name == "in_burst":
                    expected = np.array(
                        [float(step.in_burst) for step in scalar.history]
                    )
                else:
                    expected = np.array(
                        [getattr(step, name) for step in scalar.history]
                    )
                assert np.array_equal(column, expected), name

    def test_negative_demand_rejected(self):
        datacenter = build_datacenter(SMALL)
        _, kernel = vector_run(datacenter, [], 1.0, BOUNDS)
        with pytest.raises(ConfigurationError):
            kernel.step(-0.1, 0.0)

    def test_bad_bounds_rejected(self):
        datacenter = build_datacenter(SMALL)
        controller = datacenter.controller(FixedUpperBoundStrategy(1.0))
        for bad in ([], [0.0], [[2.0, 3.0]]):
            with pytest.raises(ConfigurationError):
                VectorStepKernel(
                    datacenter.cluster,
                    datacenter.topology,
                    datacenter.cooling,
                    controller,
                    np.asarray(bad, dtype=np.float64),
                )


class TestFailureLatching:
    """Mid-run derates must fail the same step with the same kind."""

    DERATE_STEP = 150

    def _run_pair(self, scalar_mutate, vector_mutate, seed=2):
        trace = random_trace(seed)
        # Force a sustained hard burst so every bound is actually sprinting
        # when the derate lands.
        samples = np.array(trace.samples)
        samples[120:260] = 3.8
        dt = trace.dt_s
        served, kernel = vector_run(
            build_datacenter(SMALL), samples, dt, BOUNDS, mutate=vector_mutate
        )
        # A fresh facility per scalar run: derates mutate the substrate
        # ratings, which datacenter.reset() deliberately leaves alone.
        scalars = [
            ScalarRun(
                build_datacenter(SMALL), samples, dt, bound,
                mutate=scalar_mutate,
            )
            for bound in BOUNDS
        ]
        return served, kernel, scalars

    def _assert_latching_matches(self, served, kernel, scalars, kind_of):
        any_failed = False
        for j, scalar in enumerate(scalars):
            assert_element_matches(kernel, served[:, j], j, scalar)
            if scalar.fail_step >= 0:
                any_failed = True
                assert int(kernel.failed_kind[j]) == kind_of(scalar.fail_type)
        assert any_failed, "derate failed to provoke any failure"

    def test_thermal_emergency(self):
        # Chiller alone is not enough: the safety monitor's emergency
        # shrink holds the room below threshold.  Drain the TES and start
        # the room hot so the emergency cannot be contained.
        def scalar_mutate(datacenter, i):
            if i == self.DERATE_STEP:
                datacenter.cooling.chiller.rated_removal_w *= 0.05
                if datacenter.cooling.tes is not None:
                    datacenter.cooling.tes.energy_j *= 0.0
                room = datacenter.cooling.room
                room.temperature_c = room.threshold_c - 0.5

        def vector_mutate(kernel, i):
            if i == self.DERATE_STEP:
                kernel.chiller_rated_w *= 0.05
                kernel.tes_energy_j *= 0.0
                kernel.room_temperature_c[:] = kernel._threshold - 0.5

        served, kernel, scalars = self._run_pair(scalar_mutate, vector_mutate)
        self._assert_latching_matches(
            served, kernel, scalars, lambda t: FAIL_THERMAL
        )
        assert all(
            s.fail_type in (None, ThermalEmergencyError) for s in scalars
        )

    def test_dc_breaker_trip(self):
        def scalar_mutate(datacenter, i):
            if i == self.DERATE_STEP:
                datacenter.topology.dc_breaker.rated_power_w *= 0.25

        def vector_mutate(kernel, i):
            if i == self.DERATE_STEP:
                kernel.dc.rated_w *= 0.25

        served, kernel, scalars = self._run_pair(scalar_mutate, vector_mutate)
        self._assert_latching_matches(served, kernel, scalars, lambda t: FAIL_DC)
        assert all(
            s.fail_type in (None, BreakerTrippedError) for s in scalars
        )

    def test_tank_depletion_or_thermal(self):
        def scalar_mutate(datacenter, i):
            if i == self.DERATE_STEP:
                datacenter.cooling.chiller.rated_removal_w *= 0.05
                tes = datacenter.cooling.tes
                if tes is not None:
                    tes.energy_j *= 0.002

        def vector_mutate(kernel, i):
            if i == self.DERATE_STEP:
                kernel.chiller_rated_w *= 0.05
                kernel.tes_energy_j *= 0.002

        served, kernel, scalars = self._run_pair(scalar_mutate, vector_mutate)
        kinds = {
            TankDepletedError: FAIL_TANK,
            ThermalEmergencyError: FAIL_THERMAL,
        }
        self._assert_latching_matches(
            served, kernel, scalars, lambda t: kinds[t]
        )


class TestOracleEquivalence:
    CANDIDATES = (2.0, 2.5, 3.0, 3.5, 4.0)

    def _reference_search(self, trace, candidates):
        best = None
        for candidate in candidates:
            result = run_simulation(
                build_datacenter(SMALL),
                trace,
                FixedUpperBoundStrategy(candidate),
            )
            perf = result.average_performance
            if best is None or perf > best[1]:
                best = (candidate, perf)
        return best

    @pytest.mark.parametrize("seed", (1, 4))
    def test_matches_reference_search(self, seed):
        trace = random_trace(seed)
        expected = self._reference_search(trace, self.CANDIDATES)
        got = BatchFacility(SMALL).oracle_search(trace, self.CANDIDATES)
        assert got == expected

    def test_sub_one_candidates_match_reference(self):
        """The shared-prefix envelope rejects these; the batch must not."""
        trace = random_trace(5)
        candidates = (0.8, 1.5, 2.5, 3.5, 4.0)
        expected = self._reference_search(trace, candidates)
        got = BatchFacility(SMALL).oracle_search(trace, candidates)
        assert got == expected
        fast = vector_oracle_search(trace, candidates, SMALL)
        assert fast == expected

    def test_toggle_disables_fast_path(self):
        trace = random_trace(1)
        previous = set_vector_oracle_enabled(False)
        try:
            assert vector_oracle_search(trace, self.CANDIDATES, SMALL) is None
        finally:
            set_vector_oracle_enabled(previous)

    def test_dt_mismatch_outside_envelope(self):
        trace = random_trace(1, dt_s=2.0)
        assert vector_oracle_search(trace, self.CANDIDATES, SMALL) is None
        with pytest.raises(ConfigurationError):
            BatchFacility(SMALL).run_fixed_bounds(trace, self.CANDIDATES)

    def test_empty_candidates(self):
        trace = random_trace(1)
        assert vector_oracle_search(trace, (), SMALL) is None
        with pytest.raises(ConfigurationError):
            BatchFacility(SMALL).oracle_search(trace, ())

    def test_all_failed_raises_simulation_error(self):
        trace = random_trace(6)
        facility = BatchFacility(SMALL)
        # Cripple the DC breaker on every element right away: every
        # candidate's run fails, the reference argmax contract.
        datacenter = facility.datacenter
        original = datacenter.topology.dc_breaker.rated_power_w
        datacenter.topology.dc_breaker.rated_power_w = original * 1e-6
        try:
            with pytest.raises(SimulationError):
                facility.oracle_search(trace, self.CANDIDATES)
        finally:
            datacenter.topology.dc_breaker.rated_power_w = original


class TestMPCRolloutVector:
    def test_scores_are_finite_floats(self):
        scores = []
        import repro.simulation.rollout as rollout_mod

        original_plan = rollout_mod.RolloutPlanner.plan

        def plan(planner, obs):
            bound = original_plan(planner, obs)
            scores.extend(score for _, score in planner.last_scores)
            return bound

        rollout_mod.RolloutPlanner.plan = plan
        try:
            simulate_strategy(
                random_trace(14),
                MPCStrategy(
                    candidate_bounds=(2.0, 3.0),
                    horizon_s=60.0,
                    replan_interval_s=30.0,
                ),
                SMALL,
            )
        finally:
            rollout_mod.RolloutPlanner.plan = original_plan
        assert scores
        for score in scores:
            assert isinstance(score, float)
            assert math.isfinite(score)
