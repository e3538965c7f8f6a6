"""Unit tests of the one pruned descent (:mod:`repro.simulation.descent`).

Synthetic scores stand in for simulations, so each rule of the descent is
pinned on its own: the visiting order, where it stops, what it never
runs, the first-wins pick and resumption after a failed ``verify``.
"""

from __future__ import annotations

import math

from repro.simulation.descent import descend


def scripted(scores, optimistic=None):
    """``run``/``optimistic`` callables over fixed scores, logging visits."""
    visits = []

    def run(idx):
        visits.append(idx)
        return scores[idx]

    bound = optimistic or (lambda idx: scores[idx])
    return run, bound, visits


def test_visits_highest_bound_first_and_stops_at_first_prune():
    bounds = [1.0, 3.0, 2.0, 4.0]
    scores = [1.0, 3.0, 2.0, 2.5]
    # Optimistic scores fall with the bound: 4.0 -> 4, 3.0 -> 3, ...
    run, _, visits = scripted(scores)
    found = descend(bounds, run, lambda idx: bounds[idx])
    # 4.0 scores 2.5; 3.0 (optimistic 3) runs and scores 3.0; 2.0
    # (optimistic 2 < 3) stops the descent, pruning 1.0 with it.
    assert visits == [3, 1]
    assert found.best == 1
    assert found.simulated == (1, 3)
    assert math.isnan(found.scores[0]) and math.isnan(found.scores[2])


def test_equal_bounds_keep_candidate_order_and_ties_go_first():
    bounds = [2.0, 4.0, 4.0]
    scores = [1.0, 5.0, 5.0]
    run, optimistic, visits = scripted(scores, lambda idx: 5.0)
    found = descend(bounds, run, optimistic)
    assert visits[:2] == [1, 2]
    assert found.best == 1


def test_prune_needs_a_strict_loss():
    """A candidate whose optimistic score only ties the best still runs."""
    bounds = [1.0, 2.0]
    run, _, visits = scripted([2.0, 2.0])
    found = descend(bounds, run, lambda idx: 2.0)
    assert visits == [1, 0]
    assert found.best == 0


def test_prefilled_candidates_never_run():
    bounds = [1.0, 2.0, 3.0]
    run, optimistic, visits = scripted([1.0, 2.0, 9.0])
    found = descend(bounds, run, optimistic, prefilled={2: math.nan})
    assert visits == [1]  # 0 is pruned; 2, the highest bound, is prefilled
    assert found.best == 1
    assert found.simulated == (1,)


def test_failed_verify_demotes_and_resumes_where_it_stopped():
    bounds = [1.0, 2.0, 3.0]
    scores = [1.0, 2.0, 3.0]
    run, optimistic, visits = scripted(scores)
    checked = []

    def verify(idx):
        checked.append(idx)
        return idx != 2

    found = descend(bounds, run, optimistic, verify=verify)
    assert checked == [2, 1]
    assert visits == [2, 1]
    assert found.best == 1
    assert math.isnan(found.scores[2])


def test_every_failure_returns_none():
    bounds = [1.0, 2.0]
    run, _, visits = scripted([math.nan, math.nan])
    found = descend(bounds, run, lambda idx: 1.0)
    assert found.best is None
    assert visits == [1, 0]
