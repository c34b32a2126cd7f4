"""Instance generators: greedy starts, adversarial families, random families."""

import random

import pytest

from dualvc.graph import Edit, WeightedGraph, apply_edit
from dualvc.instances import (HARD_VARIANTS, VARIANTS, DynamicInstance,
                              EditDoesNotFit, derive_seed, greedy_mfds_values,
                              hard_instance, make_dynamic, make_gs,
                              make_gs_prime, random_dynamic, random_edit,
                              random_instance)
from dualvc.oracle import validate_mfds_naive


# -- seeds ---------------------------------------------------------------------

def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, "graph") == derive_seed(1, "graph")
    assert derive_seed(1, "graph") != derive_seed(1, "edit")
    assert derive_seed(1, "graph") != derive_seed(2, "graph")
    assert 0 <= derive_seed(12345, "x") < 2 ** 64


# -- greedy starting solutions ---------------------------------------------------

def test_greedy_is_maximal_feasible():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 14)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randint(1, len(pairs))
        g = WeightedGraph(n, tuple(rng.randint(1, 20) for _ in range(n)),
                          tuple(rng.sample(pairs, m)))
        values = greedy_mfds_values(g)
        assert len(values) == g.m
        assert validate_mfds_naive(g, values)


def test_greedy_fills_in_edge_id_order():
    # edge 0 gets min(2,3) = 2 first, leaving nothing for the others at
    # vertex 0; edge (1,2) then takes the rest of vertex 1's budget
    g = WeightedGraph(3, (2, 3, 9), ((0, 1), (0, 2), (1, 2)))
    assert greedy_mfds_values(g) == (2, 0, 1)


# -- the disjoint-edge graphs ------------------------------------------------------

def test_make_gs_shape():
    g = make_gs(4, 16)
    assert g.n == 8
    assert g.edges == ((0, 1), (2, 3), (4, 5), (6, 7))
    assert g.weights == (16, 16, 1, 1, 1, 1, 1, 1)


def test_make_gs_prime_shape():
    g = make_gs_prime(3, 8)
    assert g.n == 7
    # the base edges plus one extra edge joining the new vertex to vertex 0
    assert g.edges == ((0, 1), (2, 3), (4, 5), (0, 6))
    assert g.weights == (8, 8, 1, 1, 1, 1, 8)


# -- assembled dynamic instances ---------------------------------------------------

def test_make_dynamic_carries_values_by_endpoints():
    g = WeightedGraph(5, (2,) * 5, ((0, 1), (1, 2), (3, 4)))
    y = (2, 0, 2)
    edit = Edit("edges", edges=((3, 4), (0, 1), (2, 3)))
    inst = make_dynamic(g, y, edit, "E")
    # survivors (0,1) and (3,4) keep their values at their new ids; the
    # added edge (2,3) starts at zero
    assert inst.graph_star.edges == ((0, 1), (3, 4), (2, 3))
    assert inst.y_init == (2, 2, 0)
    assert inst.d_scale == 2
    assert inst.requested == "E"
    assert inst.graph_star.m == 3


def test_make_dynamic_rejects_non_mfds_start():
    g = WeightedGraph(2, (2, 2), ((0, 1),))
    with pytest.raises(ValueError):
        make_dynamic(g, (0,), Edit("edges", edges=()), "E-")


def test_make_dynamic_rejects_wrong_tag():
    g = WeightedGraph(3, (2, 2, 2), ((0, 1), (1, 2)))
    y = greedy_mfds_values(g)
    grow = Edit("edges", edges=g.edges + ((0, 2),))
    with pytest.raises(ValueError, match="classifies as E\\+, not E-"):
        make_dynamic(g, y, grow, "E-")
    with pytest.raises(ValueError, match="needs a weights edit"):
        make_dynamic(g, y, grow, "W+")
    with pytest.raises(ValueError, match="unknown variant"):
        make_dynamic(g, y, grow, "bogus")
    swap = Edit("edges", edges=((0, 1), (0, 2)))
    for variant in ("E+", "E-"):
        with pytest.raises(ValueError, match="classifies as E, not"):
            make_dynamic(g, y, swap, variant)
    make_dynamic(g, y, swap, "E")
    # an identity edit fits every variant of its kind
    for variant in ("E+", "E-", "E"):
        make_dynamic(g, y, Edit("edges", edges=g.edges), variant)


# -- adversarial families ------------------------------------------------------------

def test_hard_instance_edge_growth():
    m, alpha = 4, 2
    inst = hard_instance("E+", m, alpha)
    w = alpha ** m
    assert inst.w_max == w
    assert inst.d_scale == 1
    # the heavy edge (0,1) is the one added back, so it lands at the last id
    assert inst.graph_star.edges[-1] == (0, 1)
    assert inst.graph_star.weights[0] == inst.graph_star.weights[1] == w
    assert inst.y_init[-1] == 0
    assert inst.y_init[:-1] == (1,) * (m - 1)
    # before the edit the start is maximal; after it the heavy edge is loose
    assert validate_mfds_naive(inst.graph, inst.y_orig)
    assert not validate_mfds_naive(inst.graph_star, inst.y_init)


def test_hard_instance_edge_removal():
    m, alpha = 3, 2
    inst = hard_instance("E-", m, alpha)
    w = alpha ** m
    assert inst.d_scale == 1
    # removing the shared edge leaves vertex 0's other edge free to grow,
    # but also leaves the start feasible (removal only lowers loads)
    assert inst.graph_star.m == m
    assert validate_mfds_naive(inst.graph, inst.y_orig)
    assert not validate_mfds_naive(inst.graph_star, inst.y_init)


def test_hard_instance_weight_increase():
    m, alpha = 4, 2
    inst = hard_instance("W+", m, alpha)
    w = alpha ** m
    assert inst.d_scale == 2
    assert inst.graph_star.weights[:2] == (w, w)
    assert validate_mfds_naive(inst.graph, inst.y_orig)
    assert not validate_mfds_naive(inst.graph_star, inst.y_init)


def test_hard_instance_weight_decrease():
    m, alpha = 3, 2
    inst = hard_instance("W-", m, alpha)
    assert inst.d_scale == 1
    assert validate_mfds_naive(inst.graph, inst.y_orig)
    # the lowered vertex is now overloaded: the start is infeasible
    assert not validate_mfds_naive(inst.graph_star, inst.y_init)
    loads_violated = any(
        _load_exceeds(inst.graph_star, inst.y_init, v)
        for v in range(inst.graph_star.n))
    assert loads_violated


def _load_exceeds(g, values, v):
    load = sum(y for e, y in zip(g.edges, values) if v in e)
    return load > g.weights[v]


def test_hard_instance_validation():
    with pytest.raises(ValueError):
        hard_instance("E", 4, 2)     # mixed families have no adversarial form
    with pytest.raises(ValueError):
        hard_instance("E+", 4, 1)    # alpha must be >= 2


@pytest.mark.parametrize("variant", HARD_VARIANTS)
@pytest.mark.parametrize("alpha", [2, 3])
def test_hard_instances_well_formed(variant, alpha):
    inst = hard_instance(variant, 3, alpha)
    assert isinstance(inst, DynamicInstance)
    assert inst.w_max == alpha ** 3
    assert len(inst.y_init) == inst.graph_star.m
    g_star, plus, minus = apply_edit(inst.graph, inst.edit)
    assert g_star == inst.graph_star
    assert len(plus) + len(minus) == inst.d_scale


# -- random families -----------------------------------------------------------------

def test_random_instance_is_deterministic():
    a = random_instance(10, 15, 64, seed=7)
    b = random_instance(10, 15, 64, seed=7)
    assert a == b
    c = random_instance(10, 15, 64, seed=8)
    assert a != c
    assert a.m == 15 and a.n == 10
    assert all(1 <= w <= 64 for w in a.weights)


def test_random_instance_rejects_impossible_m():
    with pytest.raises(ValueError):
        random_instance(4, 7, 8, seed=0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_random_edit_hits_exact_scale(variant):
    g = random_instance(12, 20, 32, seed=3)
    for d in (1, 2, 5):
        for seed in (0, 1, 2):
            edit = random_edit(g, variant, d, seed, w_cap=32)
            _, plus, minus = apply_edit(g, edit)
            assert len(plus) + len(minus) == d
            if variant.endswith("+"):
                assert not minus
            elif variant.endswith("-"):
                assert not plus


def test_random_edit_determinism_and_errors():
    g = random_instance(8, 10, 16, seed=1)
    assert random_edit(g, "E", 3, 5, w_cap=16) == \
        random_edit(g, "E", 3, 5, w_cap=16)
    with pytest.raises(ValueError):
        random_edit(g, "E", 0, 5, w_cap=16)
    with pytest.raises(ValueError):
        random_edit(g, "nope", 1, 5, w_cap=16)
    # removing more edges than exist is impossible
    small = WeightedGraph(3, (1, 1, 1), ((0, 1),))
    with pytest.raises(EditDoesNotFit):
        random_edit(small, "E-", 2, 5, w_cap=1)
    # raising weights already at the cap is impossible
    flat = WeightedGraph(3, (4, 4, 4), ((0, 1),))
    with pytest.raises(EditDoesNotFit):
        random_edit(flat, "W+", 1, 5, w_cap=4)
    # lowering weights already at 1 is impossible
    unit = WeightedGraph(3, (1, 1, 1), ((0, 1),))
    with pytest.raises(EditDoesNotFit, match="weights leave no room"):
        random_edit(unit, "W-", 1, 5, w_cap=4)


def test_random_edit_errors_quote_the_variant():
    """A two-sided edit that does not fit names its own variant, not the
    one-sided variant 'E-' or 'W-' that "E-edit" or "W-edit" would read
    as.  At seed 0 both draws split d = 1 into a step the full, unit
    triangle has no room for."""
    k3 = WeightedGraph(3, (1, 1, 1), ((0, 1), (0, 2), (1, 2)))
    with pytest.raises(EditDoesNotFit) as edge:
        random_edit(k3, "E", 1, 0, w_cap=1)
    assert str(edge.value) == ("cannot draw an edit of variant 'E' with "
                               "d=1: graph too full/empty")
    with pytest.raises(EditDoesNotFit) as weight:
        random_edit(k3, "W", 1, 0, w_cap=1)
    assert str(weight.value) == ("cannot draw an edit of variant 'W' with "
                                 "d=1: weights leave no room")


@pytest.mark.parametrize("variant", VARIANTS)
def test_random_dynamic_reproducible(variant):
    a = random_dynamic(variant, 12, 16, 2, 32, seed=99)
    b = random_dynamic(variant, 12, 16, 2, 32, seed=99)
    assert a.graph == b.graph
    assert a.edit == b.edit
    assert a.y_init == b.y_init
    assert a.d_scale == 2
    assert a.requested == variant
    assert validate_mfds_naive(a.graph, a.y_orig)
    assert len(a.y_init) == a.graph_star.m
