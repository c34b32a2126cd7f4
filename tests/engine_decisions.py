"""Shared by the tests that hold the engine's acceptance decisions against
``oracle.reference_fitness``: the engine's decision on one proposal,
dispatched exactly as ``heuristics.run`` does (a one-edge increase by
comparing the edge's q with the engine's ``fit`` at both endpoints, a
larger one through ``_decide_increase``, an infeasible decrease through
``_decide_decrease_infeasible``, each returning its deltas or None on
rejection), against the oracle's on the clamped proposal the reference
replay builds.

The dispatch is a copy because ``run`` makes it inline: moving it into one
function that ``run`` calls per nonempty selection cut the ``quarter``
benchmark's ``trials_per_s`` by about 20% and raised its ``trial_ms_p50``
by about 70% (see the ``heuristics`` module docstring).
"""

from dualvc.heuristics import (_decide_decrease_infeasible, _decide_increase,
                               _reference_proposal)
from dualvc.oracle import coefficient_rows, reference_fitness


def engine_decision(eng, selection, q, direction):
    """The deltas of one proposal, or None on rejection, as run() decides
    it."""
    if not selection:
        return []
    if eng.sign_now() > 0:
        if direction < 0:
            return [] if all(eng.y[e] == eng.zero for e in selection) else None
        if len(selection) == 1:
            (e,) = selection
            u, v = eng.graph.edges[e]
            if q[e] <= eng.fit[u] and q[e] <= eng.fit[v]:
                return [(e, eng._vadd(eng.y[e], eng.sigma_table[q[e]]))]
            return None
        return _decide_increase(eng, selection, q)
    if direction > 0:
        return None
    return _decide_decrease_infeasible(eng, selection, q)


def engine_agrees(eng, values, q, selection, direction, alpha=None):
    """True iff the engine holding `values` accepts exactly when
    reference_fitness does, and an accepted step moves it to the proposal.
    `alpha` defaults to the engine's; an _IntEngine keeps none."""
    alpha = alpha or eng.alpha
    rows = coefficient_rows(alpha, values)
    proposed = _reference_proposal(alpha, rows, q, selection, direction)
    ref = reference_fitness(eng.graph, alpha, rows, proposed, eng.w_max)
    deltas = engine_decision(eng, selection, q, direction)
    if (deltas is not None) != ref.accept:
        return False
    if deltas is None:
        return True
    after = list(eng.y)
    for e, new in deltas:
        after[e] = new
    return coefficient_rows(alpha, after) == proposed
