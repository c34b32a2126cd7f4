"""Dual solutions: edge LP values over RadicalValues, vertex loads, the
solution sign, maximality testing, cover extraction, and the dump format.

A dual-solution assigns a non-negative value y(e) to every edge.  A vertex
is *violated* when the sum of incident values exceeds its weight and *tight*
when the sum equals it.  A solution is feasible iff no vertex is violated;
it is maximal-feasible (an "MFDS") iff additionally every edge has a tight
endpoint, i.e. no single value can be raised.  The tight vertices of an
MFDS cover every edge with total weight at most twice the value sum, which
is the 2-approximation certificate this package is built around.

Every quantity is a RadicalValue and every comparison is decided exactly.
The command line uses it to load, check and dump solutions; the search
itself runs on the engines in :mod:`dualvc.heuristics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .graph import WeightedGraph
from .numeric import Alpha, RadicalValue, canonicalize_alpha

_PAD = 4  # dump lines always carry 4 coefficient columns


class DualSolution:
    """Edge values plus their vertex loads."""

    __slots__ = ("graph", "alpha", "y", "load")

    def __init__(self, graph: WeightedGraph, alpha: Union[int, Alpha],
                 values: Optional[Sequence[RadicalValue]] = None) -> None:
        self.graph = graph
        self.alpha = alpha if isinstance(alpha, Alpha) \
            else canonicalize_alpha(alpha)
        zero = RadicalValue.zero(self.alpha)
        if values is None:
            self.y = [zero] * graph.m
        else:
            if len(values) != graph.m:
                raise ValueError(
                    f"{len(values)} values for {graph.m} edges")
            for v in values:
                if v.alpha != self.alpha:
                    raise ValueError("value alpha mismatch")
                if v.sign() < 0:
                    raise ValueError(f"negative LP value {v!r}")
            self.y = list(values)
        self.load = [zero] * graph.n
        for e, (u, v) in enumerate(graph.edges):
            self.load[u] = self.load[u] + self.y[e]
            self.load[v] = self.load[v] + self.y[e]

    @classmethod
    def from_ints(cls, graph: WeightedGraph, alpha: Union[int, Alpha],
                  values: Sequence[int]) -> "DualSolution":
        a = alpha if isinstance(alpha, Alpha) else canonicalize_alpha(alpha)
        return cls(graph, a,
                   [RadicalValue.from_rational(a, v) for v in values])

    @classmethod
    def from_coeffs(cls, graph: WeightedGraph, alpha: Union[int, Alpha],
                    coeff_rows: Sequence[Sequence]) -> "DualSolution":
        a = alpha if isinstance(alpha, Alpha) else canonicalize_alpha(alpha)
        return cls(graph, a, [RadicalValue(a, row) for row in coeff_rows])

    def slack_sign(self, v: int) -> int:
        """Sign of load(v) - W(v): +1 violated, 0 tight, -1 slack."""
        w = self.graph.weights[v]
        c = self.load[v].coeffs
        return RadicalValue(self.alpha,
                            (c[0] - w,) + c[1:]).sign()

    def sum_y(self) -> RadicalValue:
        total = RadicalValue.zero(self.alpha)
        for val in self.y:
            total = total + val
        return total


@dataclass(frozen=True)
class CoverCertificate:
    covers_all_edges: bool
    cover_weight: int
    sum_y: RadicalValue
    weight_ok: bool  # cover_weight <= 2 * sum_y

    @property
    def ok(self) -> bool:
        return self.covers_all_edges and self.weight_ok


def sign(y: DualSolution) -> int:
    """-1 iff some vertex is violated, else +1."""
    for v in range(y.graph.n):
        if y.slack_sign(v) > 0:
            return -1
    return 1


def is_mfds(y: DualSolution) -> bool:
    """Feasible and no value can be raised: every edge has a tight endpoint."""
    slack = [y.slack_sign(v) for v in range(y.graph.n)]
    if any(s > 0 for s in slack):
        return False
    return all(slack[u] == 0 or slack[v] == 0 for u, v in y.graph.edges)


def extract_cover(y: DualSolution) -> tuple[frozenset[int], CoverCertificate]:
    """Tight vertices of an MFDS, with the 2-approximation certificate.

    The certificate records that the tight vertices cover every edge and
    that their total weight is at most 2 * sum(y); the value sum never
    exceeds the optimal cover weight, so the cover is within factor 2.
    """
    slack = [y.slack_sign(v) for v in range(y.graph.n)]
    if any(s > 0 for s in slack) or not all(
            slack[u] == 0 or slack[v] == 0 for u, v in y.graph.edges):
        raise ValueError("extract_cover requires a maximal feasible solution")
    cover = frozenset(v for v in range(y.graph.n) if slack[v] == 0)
    covers_all = all(u in cover or v in cover for u, v in y.graph.edges)
    weight = sum(y.graph.weights[v] for v in cover)
    sum_y = y.sum_y()
    two_sum = sum_y.scale(2)
    c = two_sum.coeffs
    weight_ok = RadicalValue(y.alpha, (c[0] - weight,) + c[1:]).sign() >= 0
    return cover, CoverCertificate(covers_all, weight, sum_y, weight_ok)


# ---------------------------------------------------------------------------
# dump format: one header line "alpha <int>", then per edge
# "<edge_id> <c0> <c1> <c2> <c3>" with exact rational coefficients.
# ---------------------------------------------------------------------------


def dump_dual(y: DualSolution) -> str:
    lines = [f"alpha {y.alpha.alpha}"]
    for e, val in enumerate(y.y):
        cs = list(val.coeffs) + [Fraction(0)] * (_PAD - len(val.coeffs))
        lines.append(f"{e} " + " ".join(str(c) for c in cs))
    return "\n".join(lines) + "\n"


def parse_dual(text: str, graph: WeightedGraph) -> DualSolution:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("alpha "):
        raise ValueError("dual dump must start with an 'alpha <int>' line")
    alpha = canonicalize_alpha(int(lines[0].split()[1]))
    rows: dict[int, RadicalValue] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 1 + _PAD:
            raise ValueError(f"malformed dump line: {ln!r}")
        e = int(parts[0])
        coeffs = [Fraction(p) for p in parts[1:]]
        if any(c != 0 for c in coeffs[alpha.basis_dim:]):
            raise ValueError(
                f"edge {e}: nonzero coefficient beyond basis dimension")
        if e in rows:
            raise ValueError(f"duplicate edge id {e} in dump")
        rows[e] = RadicalValue(alpha, coeffs[:alpha.basis_dim])
    if sorted(rows) != list(range(graph.m)):
        raise ValueError(
            f"dump covers edges {sorted(rows)}, expected 0..{graph.m - 1}")
    return DualSolution(graph, alpha, [rows[e] for e in range(graph.m)])


def save_dual(y: DualSolution, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dump_dual(y))


def load_dual(path: str, graph: WeightedGraph) -> DualSolution:
    with open(path) as fh:
        return parse_dual(fh.read(), graph)
