"""Independent from-scratch validators: they cross-check the fast layers
and certify every success the harness reports.

Nothing here shares caching or incremental logic with the rest of the
package: loads are recomputed from scratch, covers are found by exhaustive
or branch-and-bound search, and maximal solutions are enumerated over an
integer grid.  The success certificate (``success_defect``, also behind
``validate_mfds_naive``) works on integer coefficient columns, so it costs
little next to the search it checks; the searches keep size limits that
keep every call desk-scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import lcm
from typing import Optional, Sequence, Union

from .dual import FitnessOutcome
from .graph import WeightedGraph
from .numeric import Alpha, Rational, RadicalValue, sign_of_coeffs

Value = Union[int, RadicalValue]

_MAX_EXACT_N = 24
_MAX_ENUM_M = 6
_MAX_ENUM_W = 8


@dataclass(frozen=True)
class ExactCoverResult:
    cover: frozenset[int]
    weight: int


def _greedy_dual_bound(g: WeightedGraph, taken: int) -> int:
    """Value-sum lower bound on covering the edges missed by `taken`.

    Raises each uncovered edge by the smaller residual of its endpoints;
    any cover of those edges weighs at least the resulting sum.
    """
    residual = list(g.weights)
    total = 0
    for u, v in g.edges:
        if (taken >> u) & 1 or (taken >> v) & 1:
            continue
        t = min(residual[u], residual[v])
        residual[u] -= t
        residual[v] -= t
        total += t
    return total


def exact_min_wvc(g: WeightedGraph) -> ExactCoverResult:
    """Exact minimum-weight vertex cover by branch and bound.

    Branches on the two endpoints of an uncovered edge, pruning with the
    greedy dual bound.  Limited to n <= 24.
    """
    if g.n > _MAX_EXACT_N:
        raise ValueError(f"instance too large: n={g.n} > {_MAX_EXACT_N}")
    best_mask = (1 << g.n) - 1
    best_weight = sum(g.weights)

    def first_uncovered(taken: int) -> int:
        for e, (u, v) in enumerate(g.edges):
            if not ((taken >> u) & 1 or (taken >> v) & 1):
                return e
        return -1

    def rec(taken: int, cost: int) -> None:
        nonlocal best_mask, best_weight
        e = first_uncovered(taken)
        if e < 0:
            if cost < best_weight:
                best_weight = cost
                best_mask = taken
            return
        if cost + _greedy_dual_bound(g, taken) >= best_weight:
            return
        u, v = g.edges[e]
        rec(taken | (1 << u), cost + g.weights[u])
        rec(taken | (1 << v), cost + g.weights[v])

    rec(0, 0)
    cover = frozenset(v for v in range(g.n) if (best_mask >> v) & 1)
    return ExactCoverResult(cover, sum(g.weights[v] for v in cover))


def exhaustive_min_wvc(g: WeightedGraph) -> ExactCoverResult:
    """Brute force over all vertex subsets; self-check partner for the
    branch-and-bound (n <= 12 keeps 2^n small)."""
    if g.n > 12:
        raise ValueError(f"instance too large: n={g.n} > 12")
    best = None
    for mask in range(1 << g.n):
        if all((mask >> u) & 1 or (mask >> v) & 1 for u, v in g.edges):
            w = sum(g.weights[v] for v in range(g.n) if (mask >> v) & 1)
            if best is None or w < best[0]:
                best = (w, mask)
    assert best is not None
    w, mask = best
    return ExactCoverResult(
        frozenset(v for v in range(g.n) if (mask >> v) & 1), w)


# ---------------------------------------------------------------------------
# slack signs and the success certificate
#
# Edge values are taken apart into coordinate columns (``cols[k][e]`` is the
# beta^k coefficient of y(e)), scaled once to ints over their common
# denominator.  Each vertex load is summed once per coordinate, and each
# sign is a plain integer comparison unless an irrational coordinate is
# nonzero.
# ---------------------------------------------------------------------------

_NOT_MAXIMAL = "reported success failed the independent maximality check"


def _columns(values: Sequence) -> tuple[Optional[Alpha], list]:
    """Coordinate columns of ints, Fractions, RadicalValues or a mix."""
    rad = next((v for v in values if isinstance(v, RadicalValue)), None)
    if rad is None:
        return None, [list(values)]
    pad = (0,) * (rad.alpha.basis_dim - 1)
    rows = []
    for v in values:
        if not isinstance(v, RadicalValue):
            rows.append((v,) + pad)
        elif v.alpha == rad.alpha:
            rows.append(v.coeffs)
        else:
            raise ValueError(f"mixed alphas: {rad.alpha!r} vs {v.alpha!r}")
    return rad.alpha, [list(col) for col in zip(*rows)]


def _integer_columns(cols: list) -> tuple[list, int]:
    """Columns as ints over their common denominator, and that denominator;
    only the rational column is kept when every irrational one is 0."""
    den = 1
    if not set(map(type, chain.from_iterable(cols))) <= {int}:
        den = lcm(*(c.denominator for col in cols for c in col))
        cols = [[c.numerator * (den // c.denominator) for c in col]
                for col in cols]
    if not any(any(col) for col in cols[1:]):
        cols = cols[:1]
    return cols, den


def _signs(cols: list, alpha: Optional[Alpha]) -> list:
    """Exact sign of every vector given by its integer coordinate columns."""
    if len(cols) == 1:
        return [(c > 0) - (c < 0) for c in cols[0]]
    out = []
    for vec in zip(*cols):
        if any(vec[1:]):
            out.append(sign_of_coeffs(vec, alpha))
        else:
            out.append((vec[0] > 0) - (vec[0] < 0))
    return out


def _slack_signs(g: WeightedGraph, alpha: Optional[Alpha], cols: list,
                 den: int) -> list:
    """Sign of load(v) - W(v) per vertex: +1 violated, 0 tight, -1 slack."""
    loads = []
    for col in cols:
        load = [0] * g.n
        for (u, v), c in zip(g.edges, col):
            load[u] += c
            load[v] += c
        loads.append(load)
    loads[0] = [x - w * den for x, w in zip(loads[0], g.weights)]
    return _signs(loads, alpha)


def _defect(g: WeightedGraph, alpha: Optional[Alpha],
            cols: list) -> Optional[str]:
    """Why edge values given as coordinate columns fail the success
    certificate, or None."""
    cols, den = _integer_columns(cols)
    if -1 in _signs(cols, alpha):
        return "reported solution has a negative value"
    slack = _slack_signs(g, alpha, cols, den)
    if 1 in slack:
        return _NOT_MAXIMAL
    tight = [s == 0 for s in slack]
    # every edge has a tight endpoint, i.e. the tight vertices cover it
    if not all(tight[u] or tight[v] for u, v in g.edges):
        return _NOT_MAXIMAL
    cover_weight = sum(w for w, t in zip(g.weights, tight) if t)
    two_sum_minus_cover = [[2 * sum(col)] for col in cols]
    two_sum_minus_cover[0][0] -= cover_weight * den
    if _signs(two_sum_minus_cover, alpha)[0] < 0:
        return "tight-vertex cover failed its weight certificate"
    return None


def success_defect(g: WeightedGraph, alpha: Alpha,
                   rows: Sequence[Sequence[Rational]]) -> Optional[str]:
    """Why coefficient rows (one per edge, int or Fraction coefficients
    over the basis of `alpha`) fail to certify a maximal feasible solution
    whose tight vertices cover g within twice the value sum, or None."""
    if len(rows) != g.m:
        return f"reported solution has {len(rows)} rows for {g.m} edges"
    dim = alpha.basis_dim
    if any(len(row) != dim for row in rows):
        return f"reported solution rows must have {dim} coefficients"
    return _defect(g, alpha, [list(col) for col in zip(*rows)] or [[]])


def validate_mfds_naive(g: WeightedGraph, values: Sequence[Value]) -> bool:
    """Full-recompute check that `values` (ints, Fractions, RadicalValues or
    a mix) form a maximal feasible solution."""
    if len(values) != g.m:
        raise ValueError(f"{len(values)} values for {g.m} edges")
    return _defect(g, *_columns(values)) is None


def _violated(g: WeightedGraph, values: Sequence[Value]) -> list[int]:
    alpha, cols = _columns(values)
    slack = _slack_signs(g, alpha, *_integer_columns(cols))
    return [v for v, s in enumerate(slack) if s > 0]


def reference_fitness(g: WeightedGraph, values: Sequence[Value],
                      proposed: Sequence[Value],
                      w_max: int) -> FitnessOutcome:
    """From-scratch evaluation of the acceptance functional.

    Mirrors dual.fitness without touching DualSolution: violated vertices,
    their incident edges, and both branch formulas are recomputed directly.
    Values must be RadicalValues (use DualSolution.from_ints upstream for
    integer data).
    """
    if len(values) != g.m or len(proposed) != g.m:
        raise ValueError("value vectors must match the edge count")
    violated = _violated(g, values)
    alpha = values[0].alpha if g.m else None
    assert alpha is not None, "reference_fitness needs at least one edge"
    zero = RadicalValue.zero(alpha)
    if not violated:
        total = zero
        for e in range(g.m):
            total = total + (proposed[e] - values[e])
        value = -total if _violated(g, proposed) else total
        return FitnessOutcome(value, value.sign() >= 0)
    viol_edges = set()
    for v in violated:
        viol_edges.update(g.adjacency(v))
    gain = zero
    off = zero
    for e in range(g.m):
        diff = values[e] - proposed[e]
        if e in viol_edges:
            gain = gain + diff
        else:
            off = off + (diff if diff.sign() >= 0 else -diff)
    value = gain - off.scale(g.m * w_max)
    return FitnessOutcome(value, value.sign() >= 0)


def enumerate_mfds(g: WeightedGraph) -> list[tuple[int, ...]]:
    """All integer-valued maximal feasible solutions, by grid search.

    Each edge value ranges over 0..min(weight of endpoints); limited to
    m <= 6 and weights <= 8 so the grid stays small.
    """
    if g.m > _MAX_ENUM_M:
        raise ValueError(f"instance too large: m={g.m} > {_MAX_ENUM_M}")
    if g.n and max(g.weights) > _MAX_ENUM_W:
        raise ValueError(
            f"weights too large for enumeration (> {_MAX_ENUM_W})")
    ranges = [range(min(g.weights[u], g.weights[v]) + 1)
              for u, v in g.edges]
    out = []
    for values in product(*ranges):
        if validate_mfds_naive(g, values):
            out.append(values)
    return out
