"""Vertex-weighted simple graphs and whole-set replacement edits.

A graph is immutable: n vertices (ids 0..n-1), positive integer weights,
and a list of undirected edges stored as canonical (min, max) pairs.  Edge
*ids* are positions in that list and are only meaningful per graph; the
stable identity of an edge across edits is its endpoint pair.

Edits replace the whole edge set or the whole weight vector.  The scale D
of an edit is the size of the symmetric difference (edges) or the number of
changed vertices (weights).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Literal, Optional

Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class WeightedGraph:
    n: int
    weights: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative vertex count")
        weights = tuple(self.weights)
        if len(weights) != self.n:
            raise ValueError(f"{len(weights)} weights for {self.n} vertices")
        if any(w < 1 for w in weights):
            raise ValueError("vertex weights must be >= 1")
        edges = tuple(canonical_edge(u, v) for u, v in self.edges)
        seen = set()
        for u, v in edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {(u, v)} out of range")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge {(u, v)}")
            seen.add((u, v))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "edges", edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def max_weight(self) -> int:
        return max(self.weights, default=1)


@dataclass(frozen=True)
class Edit:
    """Replacement edit: a new edge set or a new weight vector."""

    kind: Literal["edges", "weights"]
    edges: Optional[tuple[Edge, ...]] = None
    weights: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind == "edges":
            if self.edges is None or self.weights is not None:
                raise ValueError("edge edit needs edges= and no weights=")
            edges = tuple(canonical_edge(u, v) for u, v in self.edges)
            if len(set(edges)) != len(edges):
                raise ValueError("duplicate edges in replacement set")
            object.__setattr__(self, "edges", edges)
        elif self.kind == "weights":
            if self.weights is None or self.edges is not None:
                raise ValueError("weight edit needs weights= and no edges=")
            weights = tuple(self.weights)
            if any(w < 1 for w in weights):
                raise ValueError("vertex weights must be >= 1")
            object.__setattr__(self, "weights", weights)
        else:
            raise ValueError(f"unknown edit kind {self.kind!r}")


def apply_edit(g: WeightedGraph, edit: Edit
               ) -> tuple[WeightedGraph, tuple, tuple]:
    """Apply a replacement edit; returns (new graph, plus, minus): the added
    and removed edges of an edge edit, or the raised and lowered vertices
    of a weight edit.  The edit's scale D is len(plus) + len(minus).

    For edge edits the new edge list keeps surviving edges in their old
    order, followed by the added edges in the order given by the edit, so
    surviving edges keep small ids and carried-over state is easy to map.
    """
    if edit.kind == "edges":
        assert edit.edges is not None
        new_set = set(edit.edges)
        old_set = set(g.edges)
        plus = tuple(e for e in edit.edges if e not in old_set)
        minus = tuple(e for e in g.edges if e not in new_set)
        survivors = tuple(e for e in g.edges if e in new_set)
        return WeightedGraph(g.n, g.weights, survivors + plus), plus, minus
    assert edit.weights is not None
    if len(edit.weights) != g.n:
        raise ValueError(
            f"{len(edit.weights)} weights for {g.n} vertices")
    plus = tuple(v for v in range(g.n) if edit.weights[v] > g.weights[v])
    minus = tuple(v for v in range(g.n) if edit.weights[v] < g.weights[v])
    return WeightedGraph(g.n, edit.weights, g.edges), plus, minus


# ---------------------------------------------------------------------------
# file formats (single-line JSON objects; loading canonicalizes edges)
# ---------------------------------------------------------------------------


def instance_to_json(g: WeightedGraph) -> str:
    return json.dumps({"n": g.n, "weights": list(g.weights),
                       "edges": [list(e) for e in g.edges]},
                      separators=(",", ":"))


def _json_object(text: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    return obj


def _int_list(raw, what: str) -> tuple:
    if not isinstance(raw, list) or any(type(x) is not int for x in raw):
        raise ValueError(f"{what} must be a list of integers")
    return tuple(raw)


def _edge_list(raw) -> tuple:
    if not isinstance(raw, list):
        raise ValueError("edges must be a list of [u, v] pairs")
    return tuple(_int_list(p, "an edge") for p in raw)


def instance_from_json(text: str) -> WeightedGraph:
    obj = _json_object(text)
    if type(obj["n"]) is not int:
        raise ValueError("n must be an integer")
    return WeightedGraph(obj["n"], _int_list(obj["weights"], "weights"),
                         _edge_list(obj["edges"]))


def save_instance(g: WeightedGraph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(instance_to_json(g) + "\n")


def load_instance(path: str) -> WeightedGraph:
    with open(path) as fh:
        return instance_from_json(fh.read())


def edit_to_json(edit: Edit) -> str:
    if edit.kind == "edges":
        assert edit.edges is not None
        return json.dumps({"kind": "edges",
                           "edges": [list(e) for e in edit.edges]},
                          separators=(",", ":"))
    assert edit.weights is not None
    return json.dumps({"kind": "weights", "weights": list(edit.weights)},
                      separators=(",", ":"))


def edit_from_json(text: str) -> Edit:
    obj = _json_object(text)
    if obj["kind"] == "edges":
        return Edit("edges", edges=_edge_list(obj["edges"]))
    if obj["kind"] == "weights":
        return Edit("weights", weights=_int_list(obj["weights"], "weights"))
    raise ValueError(f"unknown edit kind {obj['kind']!r}")


def save_edit(edit: Edit, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(edit_to_json(edit) + "\n")


def load_edit(path: str) -> Edit:
    with open(path) as fh:
        return edit_from_json(fh.read())
