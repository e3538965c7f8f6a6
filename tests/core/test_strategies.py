"""Tests for the four sprinting-degree strategies and the bound table."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.core.strategies import (
    FixedUpperBoundStrategy,
    GreedyStrategy,
    HeuristicStrategy,
    OracleStrategy,
    PredictionStrategy,
    StrategyObservation,
    UpperBoundTable,
    first_wins_argmax,
    oracle_search,
)


def obs(
    time_s=0.0,
    demand=2.0,
    in_burst=True,
    time_in_burst_s=0.0,
    budget=1.0,
    max_degree=4.0,
):
    return StrategyObservation(
        time_s=time_s,
        demand=demand,
        in_burst=in_burst,
        time_in_burst_s=time_in_burst_s,
        budget_fraction_remaining=budget,
        max_degree=max_degree,
    )


#: Facility-wide additional power per the default cluster: 30 W x 180k
#: servers per unit degree above 1.
def additional_power(degree):
    return max(0.0, 30.0 * 180_000 * (degree - 1.0))


class TestGreedy:
    def test_never_constrains(self):
        strategy = GreedyStrategy()
        assert strategy.degree_upper_bound(obs()) == 4.0
        assert strategy.degree_upper_bound(obs(in_burst=False)) == 4.0


class TestFixedAndOracle:
    def test_fixed_bound(self):
        strategy = FixedUpperBoundStrategy(2.5)
        assert strategy.degree_upper_bound(obs()) == 2.5

    def test_fixed_clamped_to_chip(self):
        strategy = FixedUpperBoundStrategy(9.0)
        assert strategy.degree_upper_bound(obs()) == 4.0

    def test_fixed_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            FixedUpperBoundStrategy(0.0)

    def test_oracle_search_picks_argmax(self):
        # Performance peaks at 2.5 in this synthetic landscape.
        oracle = oracle_search(
            evaluate=lambda ub: -(ub - 2.5) ** 2,
            candidates=[1.0, 1.5, 2.0, 2.5, 3.0, 4.0],
        )
        assert oracle.upper_bound == 2.5
        assert oracle.achieved_performance == pytest.approx(0.0)

    def test_oracle_search_empty_candidates(self):
        with pytest.raises(ConfigurationError):
            oracle_search(lambda ub: ub, [])

    def test_oracle_search_tie_keeps_lowest_bound(self):
        """The argmax is strict: equal performances keep the *first*
        candidate, which on an ascending grid is the lowest winning
        bound (the least aggressive policy attaining the optimum)."""
        oracle = oracle_search(
            evaluate=lambda ub: 1.0,  # flat landscape: everything ties
            candidates=[2.0, 2.5, 3.0, 4.0],
        )
        assert oracle.upper_bound == 2.0

    def test_oracle_search_tie_is_order_dependent(self):
        """First-wins means the caller's ordering decides ties — pinned
        so all Oracle reductions (serial, pooled, shared-prefix) stay
        mutually consistent."""
        plateau = {2.0: 1.8, 3.0: 1.8, 4.0: 1.2}
        ascending = oracle_search(plateau.__getitem__, [2.0, 3.0, 4.0])
        descending = oracle_search(plateau.__getitem__, [4.0, 3.0, 2.0])
        assert ascending.upper_bound == 2.0
        assert descending.upper_bound == 3.0

    def test_oracle_search_skips_failed_candidates(self):
        perf = {2.0: math.nan, 3.0: 1.5, 4.0: 1.2}
        oracle = oracle_search(perf.__getitem__, [2.0, 3.0, 4.0])
        assert oracle.upper_bound == 3.0

    def test_oracle_search_raises_when_every_candidate_fails(self):
        with pytest.raises(SimulationError):
            oracle_search(lambda ub: math.nan, [2.0, 3.0])


class TestFirstWinsArgmax:
    def test_first_maximum_wins_ties(self):
        assert first_wins_argmax([1.0, 3.0, 2.0, 3.0]) == 1

    def test_nan_never_wins(self):
        assert first_wins_argmax([math.nan, 1.0, math.nan, 2.0]) == 3
        assert first_wins_argmax([2.0, math.nan, 2.0]) == 0

    def test_negative_infinity_still_counts(self):
        assert first_wins_argmax([math.nan, -math.inf, math.nan]) == 1

    def test_no_candidate_left(self):
        assert first_wins_argmax([math.nan, math.nan]) is None
        assert first_wins_argmax([]) is None


class TestUpperBoundTable:
    def make_table(self):
        table = UpperBoundTable()
        table.set(300.0, 3.0, 4.0)
        table.set(900.0, 3.0, 2.5)
        table.set(300.0, 3.6, 3.5)
        table.set(900.0, 3.6, 2.0)
        return table

    def test_exact_lookup(self):
        assert self.make_table().lookup(900.0, 3.0) == 2.5

    def test_nearest_lookup(self):
        table = self.make_table()
        assert table.lookup(1000.0, 3.1) == 2.5
        assert table.lookup(100.0, 3.7) == 3.5

    def test_len(self):
        assert len(self.make_table()) == 4

    def test_empty_lookup_rejected(self):
        with pytest.raises(ConfigurationError):
            UpperBoundTable().lookup(100.0, 3.0)

    def test_midpoint_ties_snap_to_lower_grid_point(self):
        """A query exactly midway between grid points takes the lower
        point on both axes (min keeps the first of equal keys and the
        axes are sorted ascending)."""
        table = self.make_table()
        assert table.lookup(600.0, 3.0) == 4.0  # duration midpoint -> 300
        assert table.lookup(300.0, 3.3) == 4.0  # degree midpoint -> 3.0
        assert table.lookup(600.0, 3.3) == 4.0  # both midway -> (300, 3.0)

    def test_midpoint_tie_break_independent_of_insertion_order(self):
        """`set` keeps the axis lists sorted, so the lower-point rule
        holds however the grid was populated."""
        table = UpperBoundTable()
        table.set(900.0, 3.6, 2.0)
        table.set(300.0, 3.6, 3.5)
        table.set(900.0, 3.0, 2.5)
        table.set(300.0, 3.0, 4.0)
        assert table.lookup(600.0, 3.3) == 4.0


#: Grid points and queries on a 0.25 lattice, so exact midpoints (equal
#: distances to two grid points) are drawn often; plus arbitrary floats.
_GRID_POINTS = st.lists(
    st.integers(1, 60).map(lambda k: k * 0.5), min_size=1, max_size=8,
    unique=True,
)
_QUERIES = st.one_of(
    st.integers(0, 130).map(lambda k: k * 0.25),
    st.floats(0.0, 40.0, allow_nan=False),
)


class TestLookupFastPath:
    """``lookup`` snaps with a plain loop and validates only what is not
    already a float in range; both must behave exactly as the
    ``min(key=...)`` and ``require_*`` calls they replace."""

    @settings(max_examples=300, deadline=None)
    @given(
        durations=_GRID_POINTS,
        degrees=_GRID_POINTS,
        duration=_QUERIES,
        degree=_QUERIES,
    )
    def test_lookup_snaps_like_min_by_distance(
        self, durations, degrees, duration, degree
    ):
        table = UpperBoundTable()
        for i, d in enumerate(durations):
            for j, g in enumerate(degrees):
                table.set(d, g, 1.0 + i + 0.01 * j)
        nearest_d = min(table.durations_s, key=lambda v: abs(v - duration))
        nearest_g = min(table.degrees, key=lambda v: abs(v - degree))
        bounds = {(d, g): b for d, g, b in table.entries()}
        assert table.lookup(duration, degree) == bounds[(nearest_d, nearest_g)]

    @pytest.mark.parametrize(
        "bad",
        [True, "x", math.nan, math.inf, -math.inf, -1.0, np.int64(1)],
        ids=repr,
    )
    def test_bad_inputs_raise_as_the_validators_do(self, bad):
        strategy = TestPrediction().make()
        with pytest.raises(ConfigurationError, match="^degree must"):
            strategy.notify_realized(bad, 1.0, in_burst=True)
        with pytest.raises(ConfigurationError, match="^dt_s must"):
            strategy.notify_realized(2.0, bad, in_burst=True)
        with pytest.raises(ConfigurationError, match="^duration_s must"):
            strategy.table.lookup(bad, 3.0)
        with pytest.raises(ConfigurationError, match="^degree must"):
            strategy.table.lookup(300.0, bad)

    def test_zero_dt_is_rejected(self):
        with pytest.raises(ConfigurationError, match="^dt_s must be > 0"):
            TestPrediction().make().notify_realized(2.0, 0.0, in_burst=True)

    def test_numpy_floats_and_ints_are_accepted(self):
        floats = TestPrediction().make()
        numpy = TestPrediction().make()
        floats.notify_realized(2.0, 100.0, in_burst=True)
        numpy.notify_realized(np.float64(2.0), np.float64(100.0), True)
        assert numpy.snapshot_state() == floats.snapshot_state()
        table = floats.table
        assert table.lookup(np.float64(1000.0), np.float64(3.0)) == 3.0
        assert table.lookup(1000, 3) == 3.0


class TestPrediction:
    def make(self, bdu=900.0):
        return PredictionStrategy(
            table=self._table(), predicted_burst_duration_s=bdu
        )

    def _table(self):
        table = UpperBoundTable()
        table.set(300.0, 3.0, 4.0)
        table.set(900.0, 3.0, 3.0)
        table.set(1800.0, 3.0, 2.5)
        return table

    def test_outside_burst_unconstrained(self):
        strategy = self.make()
        assert strategy.degree_upper_bound(obs(in_burst=False)) == 4.0

    def test_initial_equivalent_duration_equals_prediction(self):
        """Before any burst time elapses SDe_avg = SDe_max, so Eq. 1 gives
        BDu_e = BDu_p."""
        strategy = self.make(bdu=900.0)
        assert strategy.equivalent_duration_s() == pytest.approx(900.0)
        assert strategy.degree_upper_bound(obs()) == 3.0

    def test_low_realised_degree_stretches_equivalent_duration(self):
        strategy = self.make(bdu=900.0)
        strategy.notify_realized(2.0, 100.0, in_burst=True)
        # SDe_avg = 2, so BDu_e = 900 x 4/2 = 1800 -> bound 2.5.
        assert strategy.equivalent_duration_s() == pytest.approx(1800.0)
        assert strategy.degree_upper_bound(obs(time_in_burst_s=100.0)) == 2.5

    def test_zero_prediction_degenerates_to_greedy(self):
        strategy = self.make(bdu=0.0)
        assert strategy.degree_upper_bound(obs()) == 4.0

    def test_notify_outside_burst_ignored(self):
        strategy = self.make()
        strategy.notify_realized(1.0, 50.0, in_burst=False)
        assert strategy.average_degree() == 4.0

    def test_average_degree_floor(self):
        strategy = self.make()
        strategy.notify_realized(0.5, 10.0, in_burst=True)
        assert strategy.average_degree() >= 1.0

    def test_reset(self):
        strategy = self.make()
        strategy.notify_realized(2.0, 100.0, in_burst=True)
        strategy.reset()
        assert strategy.average_degree() == 4.0

    def test_peak_demand_selects_degree_column(self):
        """The table's burst-degree axis is keyed by the highest demand
        observed so far."""
        table = UpperBoundTable()
        table.set(900.0, 2.6, 3.0)   # mild bursts: higher bound optimal
        table.set(900.0, 3.6, 2.0)   # fierce bursts: constrain harder
        strategy = PredictionStrategy(table, predicted_burst_duration_s=900.0)
        # SDe_avg anchored at 900 s so BDu_e stays at 900 s.
        strategy.notify_realized(4.0, 900.0, in_burst=True)
        mild = strategy.degree_upper_bound(
            obs(demand=2.6, time_in_burst_s=900.0)
        )
        assert mild == 3.0
        fierce = strategy.degree_upper_bound(
            obs(demand=3.6, time_in_burst_s=900.0)
        )
        assert fierce == 2.0
        # The peak is sticky: once a fierce burst was seen, the mild
        # column is no longer selected.
        sticky = strategy.degree_upper_bound(
            obs(demand=2.6, time_in_burst_s=900.0)
        )
        assert sticky == 2.0


class TestHeuristic:
    def make(self, sde_p=2.4, k=10.0):
        return HeuristicStrategy(
            estimated_best_degree=sde_p,
            additional_power_fn=additional_power,
            flexibility_percent=k,
        )

    def test_initial_bound_inflated_by_k(self):
        strategy = self.make(sde_p=2.0, k=10.0)
        assert strategy.initial_bound == pytest.approx(2.2)

    def test_initial_bound_clamped(self):
        strategy = self.make(sde_p=3.9, k=10.0)
        assert strategy.initial_bound == pytest.approx(4.0)

    def test_outside_burst_unconstrained(self):
        strategy = self.make()
        assert strategy.degree_upper_bound(obs(in_burst=False)) == 4.0

    def test_zero_estimate_means_no_sprinting(self):
        strategy = self.make(sde_p=0.0)
        assert strategy.degree_upper_bound(obs()) == 1.0

    def test_bound_at_burst_start_is_initial(self):
        strategy = self.make(sde_p=2.4)
        strategy.set_budget_scale(1e9)
        bound = strategy.degree_upper_bound(obs(time_in_burst_s=0.0, budget=1.0))
        assert bound == pytest.approx(strategy.initial_bound)

    def test_unspent_energy_raises_bound(self):
        """RE staying at 1 while RT falls pulls the bound upward."""
        strategy = self.make(sde_p=2.4)
        strategy.set_budget_scale(1e9)
        duration = strategy._predicted_duration_s
        early = strategy.degree_upper_bound(obs(time_in_burst_s=0.0, budget=1.0))
        later = strategy.degree_upper_bound(
            obs(time_in_burst_s=duration / 2.0, budget=1.0)
        )
        assert later > early

    def test_overspent_energy_lowers_bound(self):
        strategy = self.make(sde_p=2.4)
        strategy.set_budget_scale(1e9)
        baseline = strategy.degree_upper_bound(obs(time_in_burst_s=0.0, budget=1.0))
        squeezed = strategy.degree_upper_bound(
            obs(time_in_burst_s=0.0, budget=0.4)
        )
        assert squeezed < baseline

    def test_bound_never_below_one_in_burst(self):
        strategy = self.make(sde_p=2.4)
        strategy.set_budget_scale(1e9)
        bound = strategy.degree_upper_bound(obs(budget=0.0))
        assert bound == pytest.approx(1.0)

    def test_predicted_duration_physical(self):
        """SDu_p = EB_tot / (P_unit x (SDe_p - 1))."""
        strategy = self.make(sde_p=2.0)
        strategy.set_budget_scale(5.4e6 * 500.0)  # 500 s at one extra degree
        assert strategy._predicted_duration_s == pytest.approx(500.0)

    def test_estimate_at_or_below_one_plans_forever(self):
        strategy = self.make(sde_p=1.0)
        strategy.set_budget_scale(1e9)
        assert math.isinf(strategy._predicted_duration_s)

    def test_reset(self):
        strategy = self.make()
        strategy.set_budget_scale(1e9)
        strategy.reset()
        assert strategy._predicted_duration_s is None


class TestMinus100PercentEstimates:
    """Fig. 9's left end: a -100 % estimation error predicts zero burst
    duration / zero best degree.  Both predicted-input strategies must
    degrade gracefully — finite bounds, no division by zero — because the
    error sweep drives them all the way to that edge."""

    def _table(self):
        table = UpperBoundTable()
        table.set(300.0, 3.0, 4.0)
        table.set(900.0, 3.0, 3.0)
        return table

    def test_prediction_with_zero_duration_never_divides_by_zero(self):
        strategy = PredictionStrategy(
            self._table(), predicted_burst_duration_s=0.0
        )
        for t in range(0, 600, 60):
            bound = strategy.degree_upper_bound(
                obs(time_in_burst_s=float(t))
            )
            assert math.isfinite(bound)
            assert bound == 4.0
            strategy.notify_realized(bound, 60.0, in_burst=True)

    def test_prediction_equivalent_duration_stays_finite(self):
        strategy = PredictionStrategy(
            self._table(), predicted_burst_duration_s=0.0
        )
        strategy.notify_realized(2.0, 100.0, in_burst=True)
        assert strategy.equivalent_duration_s() == 0.0

    def test_heuristic_with_zero_estimate_never_divides_by_zero(self):
        strategy = HeuristicStrategy(
            estimated_best_degree=0.0,
            additional_power_fn=additional_power,
        )
        strategy.set_budget_scale(1e9)
        for t in range(0, 600, 60):
            for budget in (1.0, 0.5, 0.0):
                bound = strategy.degree_upper_bound(
                    obs(time_in_burst_s=float(t), budget=budget)
                )
                assert math.isfinite(bound)
                assert bound == 1.0

    def test_heuristic_estimate_at_one_predicts_no_drain(self):
        """SDe_p = 1 means no additional power: the plan duration is
        infinite and the RE/RT correction degenerates to the initial
        bound instead of dividing by zero."""
        strategy = HeuristicStrategy(
            estimated_best_degree=1.0,
            additional_power_fn=additional_power,
        )
        strategy.set_budget_scale(1e9)
        bound = strategy.degree_upper_bound(obs(time_in_burst_s=300.0))
        assert math.isfinite(bound)
        assert bound == pytest.approx(strategy.initial_bound)

    def test_heuristic_with_zero_budget_scale(self):
        strategy = HeuristicStrategy(
            estimated_best_degree=2.4,
            additional_power_fn=additional_power,
        )
        strategy.set_budget_scale(0.0)
        bound = strategy.degree_upper_bound(obs(budget=0.0))
        assert math.isfinite(bound)
        assert 1.0 <= bound <= 4.0
