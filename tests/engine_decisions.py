"""Shared by the tests that hold the engine's acceptance decisions against
``oracle.reference_fitness``: the clamped proposal over RadicalValues and
the engine's decision on it, dispatched exactly as ``heuristics.run`` does.
"""

from dualvc.heuristics import _decide_decrease_infeasible, _decide_increase
from dualvc.numeric import RadicalValue, step_value
from dualvc.oracle import reference_fitness


def clamped_proposal(values, q, selection, direction):
    """Move each selected value by alpha^(q(e)/4) in `direction`, clamped
    at zero."""
    alpha = values[0].alpha
    out = list(values)
    for e in selection:
        moved = values[e] + step_value(q[e], alpha).scale(direction)
        out[e] = moved if moved.sign() >= 0 else RadicalValue.zero(alpha)
    return out


def engine_decision(eng, selection, q, direction):
    """(accept, deltas) for one proposal, as run() decides it."""
    if eng.sign_now() > 0:
        if direction > 0:
            accept, deltas, _add, _cnt = _decide_increase(eng, selection, q)
            return accept, deltas
        return all(eng.vsign(eng.y[e]) == 0 for e in selection), []
    if direction > 0:
        return not selection, []
    return _decide_decrease_infeasible(eng, selection, q)


def engine_agrees(eng, values, q, selection, direction):
    """True iff the engine (a _VecEngine holding `values`) accepts exactly
    when reference_fitness does, and an accepted step moves it to the
    proposal."""
    proposed = clamped_proposal(values, q, selection, direction)
    ref = reference_fitness(eng.graph, values, proposed, eng.w_max)
    accept, deltas = engine_decision(eng, selection, q, direction)
    if accept != ref.accept:
        return False
    if not accept:
        return True
    after = list(eng.y)
    for e, new in deltas:
        after[e] = new
    return after == [p.coeffs for p in proposed]
