"""One pruned descent over candidate upper bounds.

The Oracle search (with or without a fault plan) and the MPC rollout
planner pick a bound the same way: score candidates from a shared start
state and commit the strict first-wins argmax
(:func:`~repro.core.strategies.first_wins_argmax`).  :func:`descend` is
that loop, written once.

Most candidates need not be scored at all.  A bound caps the capacity a
run can reach, so every caller has an *optimistic* score that is provably
at least the candidate's real score.  The descent visits candidates from
the highest effective bound down; optimistic scores fall with the bound,
so at the first candidate whose optimistic score cannot reach the best
real score so far, every later candidate is pruned too.  A pruned
candidate scores strictly below the best, so it could never have been
the argmax and pruning never changes the committed bound.

An optional ``verify`` step re-checks the provisional winner (the
fault-free Oracle re-runs its post-burst tail unless it is certified).
A winner that fails it
scores NaN, and the descent resumes where it stopped, against the lower
best.

This module is a kernel hot path for the determinism lint: no wall
clocks, no ambient RNG, no iteration over sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.core.strategies import first_wins_argmax

#: Relative slack on an optimistic score before a candidate is pruned.
#: Each caller's optimistic score runs the same reduction as its real
#: score, over an elementwise-larger series, so the two are ordered
#: exactly; the margin only absorbs last-ulp differences between the
#: capacity the optimistic score takes and the one the step body computes.
_PRUNE_MARGIN = 1.0 + 1e-9


@dataclass(frozen=True)
class Descent:
    """Outcome of :func:`descend`.

    Attributes
    ----------
    best:
        Index of the committed candidate (strict first-wins argmax over
        candidate order), or ``None`` when every score is NaN.
    scores:
        One score per candidate, in candidate order.  NaN marks a failed
        run, a winner demoted by ``verify``, or a pruned candidate.
    simulated:
        Indices of the candidates whose ``run`` was called, ascending.
    """

    best: Optional[int]
    scores: Tuple[float, ...]
    simulated: Tuple[int, ...]


def descend(
    bounds: Sequence[float],
    run: Callable[[int], float],
    optimistic: Callable[[int], float],
    prefilled: Optional[Mapping[int, float]] = None,
    verify: Optional[Callable[[int], bool]] = None,
) -> Descent:
    """Score candidates highest effective bound first; prune; pick.

    Parameters
    ----------
    bounds:
        Effective bound of each candidate, in candidate order.  Visiting
        order sorts by it descending; the sort is stable, so ties keep
        candidate order.
    run:
        ``run(i)`` simulates candidate ``i`` and returns its score; NaN
        means the run failed.
    optimistic:
        ``optimistic(i)`` is an upper bound on ``run(i)``.  It must not
        rise as the effective bound falls, which is what lets the descent
        stop at the first candidate it prunes.
    prefilled:
        Scores known without running (candidates that share the caller's
        baseline run, or fail with it); they are never passed to ``run``.
    verify:
        ``verify(i)`` re-checks the provisional winner; ``False`` demotes
        it to NaN and the descent resumes where it stopped.
    """
    scores: List[float] = [math.nan] * len(bounds)
    known: Mapping[int, float] = {} if prefilled is None else prefilled
    for idx, score in known.items():
        scores[idx] = score
    order = sorted(
        (i for i in range(len(bounds)) if i not in known),
        key=lambda i: -bounds[i],
    )
    pos = 0
    while True:
        best = first_wins_argmax(scores)
        while pos < len(order):
            idx = order[pos]
            if best is not None and (
                optimistic(idx) * _PRUNE_MARGIN < scores[best]
            ):
                break
            pos += 1
            scores[idx] = run(idx)
            best = first_wins_argmax(scores)
        if best is None or verify is None or verify(best):
            return Descent(best, tuple(scores), tuple(sorted(order[:pos])))
        scores[best] = math.nan
