"""Shared by the tests that hold the engine's acceptance decisions against
``oracle.reference_fitness``: the engine's decision on one proposal,
dispatched exactly as ``heuristics.run`` does (a one-edge increase through
``_increase_one``, a larger one through ``_decide_increase``), against the
oracle's on the clamped proposal the reference replay builds.
"""

from dualvc.heuristics import (_decide_decrease_infeasible, _decide_increase,
                               _increase_one, _reference_proposal)
from dualvc.oracle import coefficient_rows, reference_fitness


def engine_decision(eng, selection, q, direction):
    """(accept, deltas) for one proposal, as run() decides it."""
    if not selection:
        return True, []
    if eng.sign_now() > 0:
        if direction < 0:
            return all(eng.y[e] == eng.zero for e in selection), []
        if len(selection) == 1:
            deltas = _increase_one(eng, selection, q)
            return deltas is not None, deltas or []
        accept, deltas, _over = _decide_increase(eng, selection, q)
        return accept, deltas
    if direction > 0:
        return False, []
    return _decide_decrease_infeasible(eng, selection, q)


def engine_agrees(eng, values, q, selection, direction, alpha=None):
    """True iff the engine holding `values` accepts exactly when
    reference_fitness does, and an accepted step moves it to the proposal.
    `alpha` defaults to the engine's; an _IntEngine keeps none."""
    alpha = alpha or eng.alpha
    rows = coefficient_rows(alpha, values)
    proposed = _reference_proposal(alpha, rows, q, selection, direction)
    ref = reference_fitness(eng.graph, alpha, rows, proposed, eng.w_max)
    accept, deltas = engine_decision(eng, selection, q, direction)
    if accept != ref.accept:
        return False
    if not accept:
        return True
    after = list(eng.y)
    for e, new in deltas:
        after[e] = new
    return coefficient_rows(alpha, after) == proposed
