"""Independent from-scratch validators: they decide every evaluation of
the reference replay the engines are tested against, and certify every
success the harness reports.

Nothing here shares caching or incremental logic with the rest of the
package: loads are recomputed from scratch, minimum covers are found by
exhaustive search, and maximal solutions are enumerated over an integer
grid.  The cover certificate (behind ``validate_mfds_naive``,
``harness.verify_final``, the reference replay's signs and maximality tests,
``dual.extract_cover`` and ``dualvc verify``) and
the acceptance functional ``reference_fitness`` both take edge values as
coefficient rows over an explicit alpha and decide every sign on integer
coefficient columns, so they cost little next to the search they check;
the searches keep size limits that keep every call desk-scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import lcm
from typing import Optional, Sequence, Union

from .graph import WeightedGraph
from .numeric import Alpha, Rational, sign_of_coeffs

Value = Union[Rational, tuple]

_MAX_EXACT_N = 12
_MAX_ENUM_M = 6
_MAX_ENUM_W = 8


@dataclass(frozen=True)
class ExactCoverResult:
    cover: frozenset[int]
    weight: int


def exhaustive_min_wvc(g: WeightedGraph) -> ExactCoverResult:
    """Exact minimum-weight vertex cover by brute force over all vertex
    subsets; limited to n <= 12 so 2^n stays small."""
    if g.n > _MAX_EXACT_N:
        raise ValueError(f"instance too large: n={g.n} > {_MAX_EXACT_N}")
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
# slack signs, the cover certificate and the acceptance functional
#
# Edge values are taken apart into coordinate columns (``cols[k][e]`` is the
# beta^k coefficient of y(e)), scaled once to ints over their common
# denominator.  Each vertex load is summed once per coordinate, and each
# sign is a plain integer comparison unless an irrational coordinate is
# nonzero.
# ---------------------------------------------------------------------------

_NOT_MAXIMAL = "reported solution failed the independent maximality check"


def coefficient_rows(alpha: Alpha, values: Sequence[Value]) -> list:
    """Values as coefficient rows over the basis of `alpha`: ints and
    Fractions become rational rows, and rows (tuples or lists) must have
    basis_dim coefficients.  A row does not say which alpha it belongs to;
    the caller's `alpha` decides how it is read."""
    dim = alpha.basis_dim
    pad = (0,) * (dim - 1)
    rows = []
    for v in values:
        if isinstance(v, (tuple, list)):
            if len(v) != dim:
                raise ValueError(f"row {v!r} needs {dim} coefficients")
            rows.append(v)
        else:
            rows.append((v,) + pad)
    return rows


def _integer_columns(g: WeightedGraph, alpha: Optional[Alpha],
                     *vectors: Sequence[Value]) -> tuple[list, int]:
    """The vectors, one value per edge each, joined and taken apart into
    coordinate columns over `alpha`, as ints over their common denominator,
    and that denominator.  Plain rationals need no alpha and make a single
    column, rows without one are an error; only the rational column is
    kept when every irrational one is 0.  A wrong value count or row length
    raises ValueError."""
    values = []
    for vec in vectors:
        if len(vec) != g.m:
            raise ValueError(f"{len(vec)} values for {g.m} edges")
        values.extend(vec)
    if alpha is None:
        if any(isinstance(v, (tuple, list)) for v in values):
            raise ValueError("coefficient rows need an alpha")
        cols = [values]
    else:
        cols = [list(col) for col in zip(*coefficient_rows(alpha, values))
                ] or [[]]
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


def _sign(vec: list, alpha: Optional[Alpha]) -> int:
    """Exact sign of one vector of integer coordinates."""
    return _signs([[c] for c in vec], alpha)[0]


def _loads(g: WeightedGraph, cols: list) -> list:
    """Per coordinate column, every vertex's load in that coordinate."""
    loads = []
    for col in cols:
        load = [0] * g.n
        for (u, v), c in zip(g.edges, col):
            load[u] += c
            load[v] += c
        loads.append(load)
    return loads


def _slack_signs(g: WeightedGraph, alpha: Optional[Alpha], cols: list,
                 den: int) -> list:
    """Sign of load(v) - W(v) per vertex: +1 violated, 0 tight, -1 slack."""
    loads = _loads(g, cols)
    loads[0] = [x - w * den for x, w in zip(loads[0], g.weights)]
    return _signs(loads, alpha)


def _exact(alpha: Optional[Alpha], vec: list, den: int) -> tuple:
    """An integer coordinate vector over `den` as Fraction coefficients over
    the whole basis of `alpha`."""
    dim = alpha.basis_dim if alpha else 1
    return tuple(Fraction(c, den) for c in vec) + (Fraction(0),) * (
        dim - len(vec))


@dataclass(frozen=True)
class CoverCertificate:
    """What one from-scratch pass finds about edge values: every vertex's
    slack sign, maximality, and, only for maximal values (None otherwise),
    the 2-approximation weight certificate of the tight-vertex cover."""

    slack: tuple[int, ...]   # sign of load(v) - W(v): +1 violated, 0 tight
    negative: bool           # some value is below zero
    maximal: bool            # feasible, and every edge has a tight endpoint
    cover_weight: Optional[int] = None   # total weight of the tight vertices
    sum_y: Optional[tuple] = None        # coefficients of the value sum
    weight_ok: Optional[bool] = None     # cover_weight <= 2 * sum_y

    @property
    def feasible(self) -> bool:
        return 1 not in self.slack

    @property
    def cover(self) -> frozenset[int]:
        return frozenset(v for v, s in enumerate(self.slack) if s == 0)

    @property
    def defect(self) -> Optional[str]:
        """Why the values fail to certify a maximal feasible solution whose
        tight vertices cover the graph within twice the value sum, or
        None."""
        if self.negative:
            return "reported solution has a negative value"
        if not self.maximal:
            return _NOT_MAXIMAL
        if not self.weight_ok:
            return "tight-vertex cover failed its weight certificate"
        return None


def cover_certificate(g: WeightedGraph, alpha: Optional[Alpha],
                      values: Sequence[Value]) -> CoverCertificate:
    """The certificate of one value per edge: anything ``coefficient_rows``
    lifts over `alpha`, or, without one, ints and Fractions only.  A wrong
    value count or row length raises ValueError."""
    cols, den = _integer_columns(g, alpha, values)
    negative = -1 in _signs(cols, alpha)
    slack = _slack_signs(g, alpha, cols, den)
    # every edge has a tight endpoint, i.e. the tight vertices cover it
    maximal = 1 not in slack and all(slack[u] == 0 or slack[v] == 0
                                     for u, v in g.edges)
    if not maximal:
        return CoverCertificate(tuple(slack), negative, False)
    cover_weight = sum(w for w, s in zip(g.weights, slack) if s == 0)
    sums = [sum(col) for col in cols]
    two_sum_minus_cover = [2 * s for s in sums]
    two_sum_minus_cover[0] -= cover_weight * den
    return CoverCertificate(tuple(slack), negative, True, cover_weight,
                            _exact(alpha, sums, den),
                            _sign(two_sum_minus_cover, alpha) >= 0)


def validate_mfds_naive(g: WeightedGraph, values: Sequence[Value],
                        alpha: Optional[Alpha] = None) -> bool:
    """Full-recompute check that `values` form a maximal feasible solution:
    ints and Fractions, or with `alpha` also coefficient rows over it."""
    return cover_certificate(g, alpha, values).defect is None


def trap_edge(g: WeightedGraph, alpha: Alpha,
              values: Sequence[Value]) -> Optional[int]:
    """An edge both of whose endpoints have a positive beta^k load
    coordinate for some k >= 1, while no vertex is violated; None
    otherwise.

    Such an edge certifies that feasible values can no longer reach a
    maximal solution by steps that keep them feasible and only add
    positive monomials c*beta^k: those coordinates never decrease, and a
    tight vertex needs an integer load, so neither endpoint can become
    tight.  A negative coordinate does not count."""
    cols, den = _integer_columns(g, alpha, values)
    if len(cols) == 1 or 1 in _slack_signs(g, alpha, cols, den):
        return None
    lifted = [any(x > 0 for x in vec) for vec in zip(*_loads(g, cols[1:]))]
    return next((e for e, (u, v) in enumerate(g.edges)
                 if lifted[u] and lifted[v]), None)


@dataclass(frozen=True)
class FitnessOutcome:
    value: tuple   # Fraction coefficients over the basis of alpha
    accept: bool
    proposed_slack: Optional[tuple] = None  # None while values infeasible


def reference_fitness(g: WeightedGraph, alpha: Alpha,
                      values: Sequence[Value], proposed: Sequence[Value],
                      w_max: int) -> FitnessOutcome:
    """From-scratch evaluation of the acceptance functional comparing a
    proposal against the current values.

    Feasible values: the signed total change, negated when the proposal is
    infeasible, so any proposal creating a violation (or any strict
    decrease) is rejected.  Infeasible values: decreases on edges at
    violated vertices count positively; any change elsewhere is penalized
    by m * w_max per unit of absolute change.  Ties (value 0) are accepted.
    Both vectors (anything ``coefficient_rows`` lifts over `alpha`) go over
    one common denominator, and every sign is decided on integer columns.
    """
    m = g.m
    cols, den = _integer_columns(g, alpha, values, proposed)
    now = [col[:m] for col in cols]
    diff = [[b - a for a, b in zip(col, col[m:])] for col in cols]
    slack = _slack_signs(g, alpha, now, den)
    proposed_slack = None
    if 1 not in slack:
        total = [sum(col) for col in diff]
        proposed_slack = tuple(
            _slack_signs(g, alpha, [col[m:] for col in cols], den))
        if 1 in proposed_slack:
            total = [-t for t in total]
    else:
        # value = sum over edges at violated vertices of (y - y') minus
        # m * w_max * |y - y'| summed over every other edge
        penalty = m * w_max
        weight = [1 if slack[u] > 0 or slack[v] > 0 else penalty * s
                  for (u, v), s in zip(g.edges, _signs(diff, alpha))]
        total = [-sum(c * d for c, d in zip(weight, col)) for col in diff]
    return FitnessOutcome(_exact(alpha, total, den), _sign(total, alpha) >= 0,
                          proposed_slack)


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
