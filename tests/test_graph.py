"""Weighted graphs, replacement edits, and their file formats."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvc.cli import main as cli_main
from dualvc.graph import (Edit, WeightedGraph, apply_edit, edit_from_json,
                          edit_to_json, instance_from_json, instance_to_json,
                          load_edit, load_instance, save_edit, save_instance)


def path_graph(n, weights=None):
    return WeightedGraph(n, weights or (1,) * n,
                         tuple((i, i + 1) for i in range(n - 1)))


# -- construction and validation --------------------------------------------

def test_edges_are_canonicalized_and_indexed():
    g = WeightedGraph(4, (2, 3, 5, 7), ((3, 1), (0, 2)))
    assert g.edges == ((1, 3), (0, 2))
    assert g.m == 2
    assert g.max_weight() == 7


def test_validation_errors():
    with pytest.raises(ValueError):
        WeightedGraph(-1, (), ())
    with pytest.raises(ValueError):
        WeightedGraph(2, (1,), ())          # weight count mismatch
    with pytest.raises(ValueError):
        WeightedGraph(2, (1, 0), ())        # weight < 1
    with pytest.raises(ValueError):
        WeightedGraph(2, (1, 1), ((0, 0),))  # self-loop
    with pytest.raises(ValueError):
        WeightedGraph(2, (1, 1), ((0, 1), (1, 0)))  # duplicate after canon
    with pytest.raises(ValueError):
        WeightedGraph(2, (1, 1), ((0, 2),))  # endpoint out of range


def test_empty_graph():
    g = WeightedGraph(0, (), ())
    assert g.m == 0
    assert g.max_weight() == 1   # default for the empty weight vector


# -- edits -------------------------------------------------------------------

def test_edit_validation():
    with pytest.raises(ValueError):
        Edit("edges")                                    # missing payload
    with pytest.raises(ValueError):
        Edit("edges", edges=((0, 1),), weights=(1, 1))   # both payloads
    with pytest.raises(ValueError):
        Edit("weights", weights=(1, 0))                  # weight < 1
    with pytest.raises(ValueError):
        Edit("weights", weights=(1, 1), edges=((0, 1),))  # both payloads
    with pytest.raises(ValueError):
        Edit("edges", edges=((0, 1), (1, 0)))            # dup after canon
    with pytest.raises(ValueError):
        Edit("frobnicate", edges=((0, 1),))              # unknown kind


def test_apply_edge_edit_survivor_order():
    g = WeightedGraph(5, (1,) * 5, ((0, 1), (1, 2), (2, 3)))
    edit = Edit("edges", edges=((2, 3), (3, 4), (0, 1)))
    g_star, plus, minus = apply_edit(g, edit)
    # survivors keep their old relative order, additions appended after
    assert g_star.edges == ((0, 1), (2, 3), (3, 4))
    assert plus == ((3, 4),)
    assert minus == ((1, 2),)


def test_apply_edge_edit_identity():
    g = path_graph(4)
    g_star, plus, minus = apply_edit(g, Edit("edges", edges=g.edges))
    assert g_star.edges == g.edges
    assert plus == () == minus


def test_apply_weight_edit():
    g = path_graph(3, weights=(2, 5, 9))
    g_star, plus, minus = apply_edit(g, Edit("weights", weights=(4, 5, 1)))
    assert g_star.weights == (4, 5, 1)
    assert g_star.edges == g.edges
    assert plus == (0,)
    assert minus == (2,)


def test_apply_weight_edit_length_checked():
    g = path_graph(3)
    with pytest.raises(ValueError):
        apply_edit(g, Edit("weights", weights=(1, 1)))


def test_graph_is_immutable():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5  # type: ignore[misc]


# -- file formats -------------------------------------------------------------

def test_instance_json_round_trip(tmp_path):
    g = WeightedGraph(4, (2, 3, 5, 7), ((3, 1), (0, 2), (0, 3)))
    text = instance_to_json(g)
    assert "\n" not in text.strip()
    assert instance_from_json(text) == g
    p = tmp_path / "inst.json"
    save_instance(g, str(p))
    assert load_instance(str(p)) == g
    # the on-disk form is plain JSON
    payload = json.loads(p.read_text())
    assert payload["n"] == 4


def test_edit_json_round_trip(tmp_path):
    for edit in (Edit("edges", edges=((2, 0), (1, 3))),
                 Edit("weights", weights=(1, 4, 2))):
        text = edit_to_json(edit)
        assert edit_from_json(text) == edit
        p = tmp_path / "edit.json"
        save_edit(edit, str(p))
        assert load_edit(str(p)) == edit


def test_edit_json_canonicalizes_edges():
    edit = edit_from_json(edit_to_json(Edit("edges", edges=((5, 2),))))
    assert edit.edges == ((2, 5),)


def test_edit_json_unknown_kind_rejected(tmp_path, capsys):
    bogus = '{"kind": "bogus", "weights": [1, 2]}'
    with pytest.raises(ValueError, match="unknown edit kind 'bogus'"):
        edit_from_json(bogus)
    g = path_graph(2, (2, 2))
    paths = {k: tmp_path / k for k in ("g.json", "edit.json", "y0")}
    save_instance(g, str(paths["g.json"]))
    paths["edit.json"].write_text(bogus + "\n")
    paths["y0"].write_text("alpha 2\n0 2 0 0 0\n")
    assert cli_main(["solve", "--graph", str(paths["g.json"]),
                     "--edit", str(paths["edit.json"]),
                     "--y0", str(paths["y0"]), "--algo", "rls"]) == 2
    assert "unknown edit kind" in capsys.readouterr().err


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_graph_json_round_trip(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    weights = tuple(data.draw(
        st.lists(st.integers(1, 50), min_size=n, max_size=n)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(data.draw(st.lists(
        st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs
        else ())
    g = WeightedGraph(n, weights, edges)
    assert instance_from_json(instance_to_json(g)) == g


def test_random_edge_edit_diff_partition():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        old = tuple(rng.sample(pairs, rng.randint(0, len(pairs))))
        new = tuple(rng.sample(pairs, rng.randint(0, len(pairs))))
        g = WeightedGraph(n, (1,) * n, old)
        g_star, plus, minus = apply_edit(g, Edit("edges", edges=new))
        assert set(g_star.edges) == set(new)
        assert len(plus) + len(minus) == len(set(old) ^ set(new))
        assert set(plus) == set(new) - set(old)
        assert set(minus) == set(old) - set(new)
        # survivors keep ids ordered as in the old graph
        survivors = [e for e in g.edges if e in set(new)]
        assert list(g_star.edges[:len(survivors)]) == survivors
