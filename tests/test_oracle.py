"""The slow validators themselves: covers, maximality checks, enumeration."""

import random
from fractions import Fraction

import pytest

from dualvc.dual import DualSolution, fitness
from dualvc.graph import WeightedGraph
from dualvc.instances import make_gs
from dualvc.numeric import RadicalValue, canonicalize_alpha
from dualvc.oracle import (enumerate_mfds, exact_min_wvc, exhaustive_min_wvc,
                           reference_fitness, validate_mfds_naive)

A2 = canonicalize_alpha(2)


def rv(x):
    return RadicalValue.from_rational(A2, x)


def random_graph(rng, n_max=12, w_max=10):
    n = rng.randint(1, n_max)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randint(0, len(pairs))
    return WeightedGraph(n, tuple(rng.randint(1, w_max) for _ in range(n)),
                         tuple(rng.sample(pairs, m)))


def cover_is_valid(g, cover):
    return all(u in cover or v in cover for u, v in g.edges)


# -- exact minimum covers ------------------------------------------------------

def test_exact_cover_tiny_cases():
    empty = WeightedGraph(3, (5, 5, 5), ())
    assert exact_min_wvc(empty).weight == 0
    assert exact_min_wvc(empty).cover == frozenset()
    single = WeightedGraph(2, (4, 9), ((0, 1),))
    res = exact_min_wvc(single)
    assert res.weight == 4 and res.cover == frozenset({0})


def test_exact_cover_triangle():
    g = WeightedGraph(3, (1, 2, 3), ((0, 1), (1, 2), (0, 2)))
    res = exact_min_wvc(g)
    # any cover of a triangle needs two vertices: {0,1} at weight 3
    assert res.weight == 3
    assert res.cover == frozenset({0, 1})
    assert cover_is_valid(g, res.cover)


def test_exact_cover_disjoint_edges_heavy_first():
    # m disjoint edges, first edge heavy on both ends: min cover picks the
    # cheaper endpoint of each edge -> w + (m-1)
    g = make_gs(4, 16)
    res = exact_min_wvc(g)
    assert res.weight == 16 + 3
    assert cover_is_valid(g, res.cover)


def test_exact_cover_star_weights():
    # center weight 3 vs leaves weighing 2 each: cheaper to take the leaves
    g = WeightedGraph(4, (3, 2, 2, 2), ((0, 1), (0, 2), (0, 3)))
    assert exact_min_wvc(g).weight == 3
    # tie: both {0} and {1,2,3} weigh 3 — only the weight is pinned
    g2 = WeightedGraph(4, (3, 1, 1, 1), ((0, 1), (0, 2), (0, 3)))
    res2 = exact_min_wvc(g2)
    assert res2.weight == 3 and cover_is_valid(g2, res2.cover)
    g3 = WeightedGraph(4, (5, 1, 1, 1), ((0, 1), (0, 2), (0, 3)))
    res3 = exact_min_wvc(g3)
    assert res3.weight == 3 and res3.cover == frozenset({1, 2, 3})


def test_exact_matches_exhaustive_on_random_graphs():
    rng = random.Random(42)
    for _ in range(60):
        g = random_graph(rng, n_max=10, w_max=9)
        bb = exact_min_wvc(g)
        brute = exhaustive_min_wvc(g)
        assert bb.weight == brute.weight
        assert cover_is_valid(g, bb.cover)
        assert sum(g.weights[v] for v in bb.cover) == bb.weight


def test_exact_cover_size_limit():
    g = WeightedGraph(30, (1,) * 30, ())
    with pytest.raises(ValueError):
        exact_min_wvc(g)


# -- maximality validation ------------------------------------------------------

def test_validate_mfds_int_values():
    g = WeightedGraph(3, (2, 2, 2), ((0, 1), (1, 2), (0, 2)))
    assert validate_mfds_naive(g, (1, 1, 1))
    assert validate_mfds_naive(g, (2, 0, 0))
    assert not validate_mfds_naive(g, (0, 0, 0))   # nothing tight
    assert not validate_mfds_naive(g, (2, 2, 0))   # vertex 1 violated
    with pytest.raises(ValueError):
        validate_mfds_naive(g, (1, 1))


def test_validate_mfds_rejects_negative_values():
    # [2, -1, -1] overloads no vertex of the unit triangle and leaves every
    # edge a tight endpoint, but it is no dual solution
    g = WeightedGraph(3, (1, 1, 1), ((0, 1), (1, 2), (0, 2)))
    assert not validate_mfds_naive(g, (2, -1, -1))
    assert not validate_mfds_naive(g, [rv(2), rv(-1), rv(-1)])
    assert not validate_mfds_naive(g, (Fraction(3, 2), Fraction(-1, 2),
                                       Fraction(-1, 2)))
    # path 2-0-1-3 with y(0,1) = -1: feasible, every edge has a tight end,
    # and the cover {0, 1} weighs 2 <= 2 * sum(y) = 6; only the sign fails
    path = WeightedGraph(4, (1, 1, 3, 3), ((0, 1), (0, 2), (1, 3)))
    assert not validate_mfds_naive(path, (-1, 2, 2))
    assert not validate_mfds_naive(path, [rv(-1), rv(2), rv(2)])
    assert validate_mfds_naive(path, (0, 1, 1))


def test_validate_mfds_mixed_value_types():
    # int zeros mixed with radical values must lift cleanly
    g = WeightedGraph(4, (2, 2, 1, 1), ((0, 1), (2, 3)))
    assert validate_mfds_naive(g, [rv(2), 1])
    assert validate_mfds_naive(g, [2, rv(1)])
    assert not validate_mfds_naive(g, [rv(2), 0])
    # irrational tight load: beta**2 + (2 - beta**2) == 2
    gap = RadicalValue(A2, (2, 0, -1, 0))
    assert validate_mfds_naive(
        WeightedGraph(2, (2, 2), ((0, 1),)), [RadicalValue(A2, (0, 0, 1, 0))
                                              + gap])


def test_validate_mfds_empty_graph():
    g = WeightedGraph(3, (1, 1, 1), ())
    assert validate_mfds_naive(g, ())


# -- the reference acceptance functional ----------------------------------------

def test_reference_fitness_matches_fast_path():
    rng = random.Random(5)
    g = WeightedGraph(5, (3, 4, 2, 5, 3),
                      ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)))
    for _ in range(300):
        vals = [rv(Fraction(rng.randint(0, 8), rng.choice((1, 2, 4))))
                for _ in range(g.m)]
        props = [rv(Fraction(rng.randint(0, 8), rng.choice((1, 2, 4))))
                 for _ in range(g.m)]
        y = DualSolution(g, 2, vals, w_max=5)
        yp = DualSolution(g, 2, props, w_max=5)
        fast = fitness(y, yp)
        ref = reference_fitness(g, vals, props, w_max=5)
        assert fast.accept == ref.accept
        assert (fast.value - ref.value).is_zero()


def test_reference_fitness_irrational_values():
    g = WeightedGraph(2, (2, 2), ((0, 1),))
    beta = RadicalValue(A2, (0, 1, 0, 0))
    out = reference_fitness(g, [rv(0)], [beta], w_max=2)
    assert out.accept
    assert (out.value - beta).is_zero()


def test_reference_fitness_length_check():
    g = WeightedGraph(2, (1, 1), ((0, 1),))
    with pytest.raises(ValueError):
        reference_fitness(g, [rv(0)], [rv(0), rv(0)], w_max=1)


# -- grid enumeration ------------------------------------------------------------

def test_enumerate_single_edge():
    g = WeightedGraph(2, (2, 3), ((0, 1),))
    # maximal iff the smaller endpoint is tight: y = 2 only
    assert enumerate_mfds(g) == [(2,)]


def test_enumerate_disjoint_edges_unique():
    for m in (2, 3, 4):
        for w in (2, 4, 8):
            g = make_gs(m, w)
            sols = enumerate_mfds(g)
            assert sols == [(w,) + (1,) * (m - 1)]


def test_enumerate_triangle():
    g = WeightedGraph(3, (1, 1, 1), ((0, 1), (1, 2), (0, 2)))
    sols = set(enumerate_mfds(g))
    # each solution saturates at least two vertices without exceeding any
    assert (1, 0, 0) in sols and (0, 1, 0) in sols and (0, 0, 1) in sols
    assert (0, 0, 0) not in sols
    assert all(validate_mfds_naive(g, s) for s in sols)


def test_enumerate_limits():
    with pytest.raises(ValueError):
        enumerate_mfds(make_gs(7, 2))        # m > 6
    with pytest.raises(ValueError):
        enumerate_mfds(make_gs(2, 16))       # weights > 8


def test_enumerate_agrees_with_validator_on_full_grid():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 5)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randint(1, min(5, len(pairs)))
        g = WeightedGraph(n, tuple(rng.randint(1, 4) for _ in range(n)),
                          tuple(rng.sample(pairs, m)))
        sols = enumerate_mfds(g)
        assert len(sols) >= 1   # greedy filling always exists on the grid
        assert all(validate_mfds_naive(g, s) for s in sols)
