"""Dual solutions as the command line reads and writes them: validated
edge values over one alpha, and the dump format.

A dual-solution assigns a non-negative value y(e) to every edge.  A vertex
is *violated* when the sum of incident values exceeds its weight and *tight*
when the sum equals it.  A solution is feasible iff no vertex is violated;
it is maximal-feasible (an "MFDS") iff additionally every edge has a tight
endpoint, i.e. no single value can be raised.  The tight vertices of an
MFDS cover every edge with total weight at most twice the value sum, which
is the 2-approximation certificate this package is built around.

Values are rows of Fraction coefficients over the solution's alpha, which
the dump names in its header because a bare row cannot.  Every check of a
solution is the oracle's cover certificate
(:func:`dualvc.oracle.cover_certificate`), computed on integer coefficient
columns.  The search runs on the engines in :mod:`dualvc.heuristics`, and
the reference replay the tests hold them to runs over coefficient rows too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .graph import WeightedGraph
from .numeric import Alpha, canonicalize_alpha, sign_of_coeffs
from .oracle import (CoverCertificate, Value, coefficient_rows,
                     cover_certificate)

_PAD = 4  # dump lines always carry 4 coefficient columns


class DualSolution:
    """One non-negative value per edge, stored as a tuple of Fraction
    coefficients over the basis of one alpha."""

    __slots__ = ("graph", "alpha", "y")

    def __init__(self, graph: WeightedGraph, alpha: Union[int, Alpha],
                 values: Sequence[Value]) -> None:
        """`values`: ints, Fractions or coefficient rows over `alpha`."""
        self.graph = graph
        self.alpha = canonicalize_alpha(alpha)
        if len(values) != graph.m:
            raise ValueError(f"{len(values)} values for {graph.m} edges")
        self.y = [tuple(map(Fraction, row))
                  for row in coefficient_rows(self.alpha, values)]
        for row in self.y:
            if sign_of_coeffs(row, self.alpha) < 0:
                raise ValueError(f"negative LP value {row!r}")


def extract_cover(y: DualSolution) -> tuple[frozenset[int], CoverCertificate]:
    """Tight vertices of an MFDS, with the oracle's cover certificate.

    The certificate records that the tight vertices cover every edge and
    that their total weight is at most 2 * sum(y); the value sum never
    exceeds the optimal cover weight, so the cover is within factor 2.
    """
    cert = cover_certificate(y.graph, y.alpha, y.y)
    if not cert.maximal:
        raise ValueError("extract_cover requires a maximal feasible solution")
    return cert.cover, cert


# ---------------------------------------------------------------------------
# dump format: one header line "alpha <int>", then per edge
# "<edge_id> <c0> <c1> <c2> <c3>" with exact rational coefficients.
# ---------------------------------------------------------------------------


def dump_dual(y: DualSolution) -> str:
    lines = [f"alpha {y.alpha.alpha}"]
    for e, row in enumerate(y.y):
        cs = list(row) + [Fraction(0)] * (_PAD - len(row))
        lines.append(f"{e} " + " ".join(str(c) for c in cs))
    return "\n".join(lines) + "\n"


def parse_dual(text: str, graph: WeightedGraph) -> DualSolution:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "alpha":
        raise ValueError("dual dump must start with an 'alpha <int>' line")
    alpha = canonicalize_alpha(int(header[1]))
    rows: dict[int, list] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 1 + _PAD:
            raise ValueError(f"malformed dump line: {ln!r}")
        e = int(parts[0])
        try:
            coeffs = [Fraction(p) for p in parts[1:]]
        except ZeroDivisionError:
            raise ValueError(
                f"zero denominator in dump line: {ln!r}") from None
        if any(c != 0 for c in coeffs[alpha.basis_dim:]):
            raise ValueError(
                f"edge {e}: nonzero coefficient beyond basis dimension")
        if e in rows:
            raise ValueError(f"duplicate edge id {e} in dump")
        rows[e] = coeffs[:alpha.basis_dim]
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
