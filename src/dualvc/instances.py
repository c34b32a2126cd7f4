"""Instance builders: the greedy maximal dual, the disjoint-edge special
graphs, adversarial dynamic edits on them, and random instance/edit
generators for benchmark families.

A DynamicInstance bundles an original graph with a verified maximal
feasible starting solution, a replacement edit, the edited graph, and the
initial state the heuristics start from: values carried over on surviving
edges (keyed by endpoint pair), zero on new edges, all step sizes 1.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence, Union

from . import oracle
from .graph import Edit, WeightedGraph, apply_edit
from .numeric import Alpha, canonicalize_alpha

VARIANTS = ("E+", "E-", "E", "W+", "W-", "W")
HARD_VARIANTS = ("E+", "E-", "W+", "W-")


def derive_seed(base: Union[int, str], label: Union[int, str]) -> int:
    """Deterministic 64-bit sub-seed for the (base, label) pair."""
    digest = hashlib.sha256(f"{base}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def greedy_mfds_values(g: WeightedGraph) -> tuple[int, ...]:
    """Integer maximal feasible values: walk edges in id order, raising each
    by the smaller residual weight of its endpoints.  Every edge ends with a
    tight endpoint, so the result is maximal."""
    residual = list(g.weights)
    out = []
    for u, v in g.edges:
        t = min(residual[u], residual[v])
        residual[u] -= t
        residual[v] -= t
        out.append(t)
    return tuple(out)


def make_gs(m: int, w_max: int) -> WeightedGraph:
    """m disjoint edges; the first edge's endpoints weigh w_max, all other
    vertices weigh 1.  Edge i joins vertices 2i and 2i+1."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    weights = [w_max, w_max] + [1] * (2 * m - 2)
    edges = [(2 * i, 2 * i + 1) for i in range(m)]
    return WeightedGraph(2 * m, tuple(weights), tuple(edges))


def make_gs_prime(m: int, w_max: int) -> WeightedGraph:
    """make_gs(m, w_max) plus one pendant: vertex 2m (weight w_max) joined
    to vertex 0, so edges 0 and m share vertex 0 as their common endpoint
    and all three of their outer endpoints weigh w_max."""
    base = make_gs(m, w_max)
    weights = base.weights + (w_max,)
    edges = base.edges + ((0, 2 * m),)
    return WeightedGraph(2 * m + 1, weights, edges)


@dataclass(frozen=True)
class DynamicInstance:
    graph: WeightedGraph
    y_orig: tuple
    edit: Edit
    graph_star: WeightedGraph
    d_scale: int
    requested: str        # family asked for at plan level
    w_max: int            # max weight across both graphs
    y_init: tuple         # starting values, indexed by graph_star edge ids


def _check_variant(requested: str, edit: Edit, plus: tuple,
                   minus: tuple) -> None:
    """Raise ValueError unless the edit is of the variant's kind and, for a
    one-sided variant, classifies as it; an identity edit fits any."""
    if requested not in VARIANTS:
        raise ValueError(f"unknown variant {requested!r}")
    kind = "edges" if requested.startswith("E") else "weights"
    if edit.kind != kind:
        raise ValueError(
            f"variant {requested} needs a {kind} edit, got {edit.kind}")
    if requested in ("E+", "E-", "W+", "W-") and (plus or minus):
        derived = requested[0] + ("" if plus and minus
                                  else "+" if plus else "-")
        if derived != requested:
            raise ValueError(
                f"edit classifies as {derived}, not {requested}")


def make_dynamic(g: WeightedGraph, y_orig: Sequence, edit: Edit,
                 requested: str, alpha: Optional[Alpha] = None
                 ) -> DynamicInstance:
    """Assemble and validate a dynamic instance.

    y_orig must be a maximal feasible solution of g (independently checked
    here); values carry over to surviving edges by endpoint pair.  Values
    that are coefficient rows need the `alpha` they are rows over.
    """
    if not oracle.validate_mfds_naive(g, y_orig, alpha):
        raise ValueError("y_orig is not a maximal feasible solution of g")
    g_star, plus, minus = apply_edit(g, edit)
    _check_variant(requested, edit, plus, minus)
    w_max = max(g.max_weight(), g_star.max_weight())
    old_ids = {e: i for i, e in enumerate(g.edges)}
    y_init = [y_orig[old_ids[e]] if e in old_ids else 0
              for e in g_star.edges]
    return DynamicInstance(g, tuple(y_orig), edit, g_star,
                           len(plus) + len(minus), requested, w_max,
                           tuple(y_init))


def hard_instance(variant: str, m: int, alpha: int) -> DynamicInstance:
    """Adversarial single-edit instances on the disjoint-edge graphs with
    w_max = alpha**m, built so that one edge value must travel the whole
    0..w_max range after the edit."""
    if variant not in HARD_VARIANTS:
        raise ValueError(f"variant must be one of {HARD_VARIANTS}")
    canonicalize_alpha(alpha)  # validates alpha >= 2
    w = alpha ** m
    if variant == "E+":
        full = make_gs(m, w)
        g = WeightedGraph(full.n, full.weights, full.edges[1:])
        y_orig = (1,) * (m - 1)
        edit = Edit("edges", edges=full.edges)
        return make_dynamic(g, y_orig, edit, "E+")
    if variant == "E-":
        g = make_gs_prime(m, w)
        y_orig = (1,) * m + (w - 1,)
        edit = Edit("edges", edges=g.edges[:-1])
        return make_dynamic(g, y_orig, edit, "E-")
    if variant == "W+":
        g = make_gs(m, 1)
        y_orig = (1,) * m
        new_weights = (w, w) + g.weights[2:]
        edit = Edit("weights", weights=new_weights)
        return make_dynamic(g, y_orig, edit, "W+")
    # W-: drop the pendant endpoint of the shared-vertex edge to weight 1,
    # overloading it and forcing a long decrease phase.
    g = make_gs_prime(m, w)
    y_orig = (1,) * m + (w - 1,)
    new_weights = g.weights[:-1] + (1,)
    edit = Edit("weights", weights=new_weights)
    return make_dynamic(g, y_orig, edit, "W-")


def random_instance(n: int, m: int, w_max: int, seed: int) -> WeightedGraph:
    """Uniform simple graph with m edges and weights uniform on [1, w_max]."""
    if m > n * (n - 1) // 2:
        raise ValueError(f"m={m} exceeds the {n * (n - 1) // 2} vertex pairs")
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    edges = tuple(sorted(rng.sample(pairs, m)))
    weights = tuple(rng.randint(1, w_max) for _ in range(n))
    return WeightedGraph(n, weights, edges)


class EditDoesNotFit(ValueError):
    """The graph or its weights leave no room for the edit random_edit
    drew: too few free vertex pairs or edges, or too few raisable or
    lowerable weights."""


def random_edit(g: WeightedGraph, variant: str, d: int, seed: int,
                w_cap: int) -> Edit:
    """Sample an edit of exact scale d matching the variant's shape.

    w_cap is the ceiling for raised weights; edge variants ignore it.
    Raises EditDoesNotFit when the drawn split of d does not fit g.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if d < 1:
        raise ValueError("edit scale d must be >= 1")
    rng = random.Random(seed)
    # (added, removed) edges or (raised, lowered) weights
    if variant.endswith("+"):
        n_up, n_down = d, 0
    elif variant.endswith("-"):
        n_up, n_down = 0, d
    else:
        n_up = rng.randint(1, d - 1) if d >= 2 else rng.randint(0, 1)
        n_down = d - n_up
    if variant.startswith("E"):
        present = set(g.edges)
        free = [e for e in combinations(range(g.n), 2) if e not in present]
        if n_up > len(free) or n_down > g.m:
            raise EditDoesNotFit(f"cannot draw an edit of variant "
                                 f"{variant!r} with d={d}: graph too "
                                 f"full/empty")
        added = rng.sample(free, n_up) if n_up else []
        removed = set(rng.sample(range(g.m), n_down)) if n_down else set()
        new_edges = tuple(e for i, e in enumerate(g.edges)
                          if i not in removed) + tuple(added)
        return Edit("edges", edges=new_edges)
    raisable = [v for v in range(g.n) if g.weights[v] < w_cap]
    lowerable = [v for v in range(g.n) if g.weights[v] > 1]
    if n_up > len(raisable):
        raise EditDoesNotFit(f"cannot draw an edit of variant {variant!r} "
                             f"with d={d}: weights leave no room")
    ups = rng.sample(raisable, n_up) if n_up else []
    down_pool = [v for v in lowerable if v not in set(ups)]
    if n_down > len(down_pool):
        raise EditDoesNotFit(f"cannot draw an edit of variant {variant!r} "
                             f"with d={d}: weights leave no room")
    downs = rng.sample(down_pool, n_down) if n_down else []
    weights = list(g.weights)
    for v in ups:
        weights[v] = rng.randint(g.weights[v] + 1, w_cap)
    for v in downs:
        weights[v] = rng.randint(1, g.weights[v] - 1)
    return Edit("weights", weights=tuple(weights))


def random_dynamic(variant: str, n: int, m: int, d: int, w_max: int,
                   seed: int) -> DynamicInstance:
    """Random instance of a benchmark family: random graph, greedy starting
    solution, random edit of scale d."""
    g = random_instance(n, m, w_max, derive_seed(seed, "graph"))
    y = greedy_mfds_values(g)
    edit = random_edit(g, variant, d, derive_seed(seed, "edit"), w_cap=w_max)
    return make_dynamic(g, y, edit, variant)
