"""Shared by the tests that hold the engine's acceptance decisions against
``oracle.reference_fitness``: the engine's decision on one proposal,
dispatched exactly as ``heuristics.run`` does, against the oracle's on the
clamped proposal the reference replay builds.  ``run`` reads the sign from
the violated-vertex count, as it caches it between commits.  A feasible
decrease is accepted, unchanged, only where every selected edge's
``at_zero`` flag is set.  A one-edge increase compares the edge's q with
its ``lim``, the smaller ``fit`` of its endpoints; a two-edge increase is
rejected when either edge's q exceeds its ``lim``, and otherwise, like a
larger one, goes through ``_decide_increase``.  An infeasible one-edge
decrease is accepted unchanged at zero, accepted with the clamped step
where the edge's ``viol`` flag is set, and rejected otherwise; a larger one
goes through ``_decide_decrease_infeasible``.  Each returns its deltas, or
None on rejection.  Plain ea's rejected two-edge increase demotes the
edges whose q exceeds their ``lim`` when their endpoint masks are
disjoint; any other rejected increase of two or more edges demotes
``_ea_demotions``'s set.

The dispatch is a copy because ``run`` makes it inline: moving it into one
function that ``run`` calls per nonempty selection cut the ``quarter``
benchmark's ``trials_per_s`` by about 20% and raised its ``trial_ms_p50``
by about 70% (see the ``heuristics`` module docstring).
"""

from dualvc.heuristics import (_decide_decrease_infeasible, _decide_increase,
                               _ea_demotions, _reference_proposal)
from dualvc.oracle import coefficient_rows, reference_fitness


def engine_decision(eng, selection, q, direction):
    """The deltas of one proposal, or None on rejection, as run() decides
    it."""
    if not selection:
        return []
    sign = 1 if eng.nviol == 0 else -1
    lim = eng.lim
    if sign > 0:
        if direction < 0:
            return [] if all(eng.at_zero[e] for e in selection) else None
        if len(selection) == 1:
            (e,) = selection
            if q[e] <= lim[e]:
                return [(e, eng._vadd(eng.y[e], eng.sigma_table[q[e]]))]
            return None
        if len(selection) == 2 and any(q[e] > lim[e] for e in selection):
            return None
        return _decide_increase(eng, selection, q)
    if direction > 0:
        return None
    if len(selection) == 1:
        (e,) = selection
        if eng.at_zero[e]:
            return []
        if not eng.viol[e]:
            return None
        new = eng._vsub(eng.y[e], eng.sigma_table[q[e]])
        return [(e, new if eng.vsign(new) > 0 else eng.zero)]
    return _decide_decrease_infeasible(eng, selection, q)


def engine_demotions(eng, selection, q):
    """The edges plain ea demotes after rejecting a feasible increase of two
    or more edges, as run() picks them."""
    if len(selection) == 2:
        e, f = selection
        if not eng.mask[e] & eng.mask[f]:
            return [x for x in selection if q[x] > eng.lim[x]]
    return _ea_demotions(eng, selection, q)


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
