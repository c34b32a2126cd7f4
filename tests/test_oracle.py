"""The slow validators themselves: covers, maximality checks, enumeration."""

import ast
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import dualvc
from dualvc.graph import WeightedGraph
from dualvc.heuristics import _VecEngine
from dualvc.instances import greedy_mfds_values, make_gs
from dualvc.numeric import canonicalize_alpha, q_max_for
from dualvc.oracle import (enumerate_mfds, exhaustive_min_wvc,
                           reference_fitness, trap_edge, validate_mfds_naive)

from engine_decisions import engine_agrees

A2 = canonicalize_alpha(2)


def rv(x):
    """A rational value as a coefficient row over alpha 2."""
    return (x, 0, 0, 0)


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
    assert exhaustive_min_wvc(empty).weight == 0
    assert exhaustive_min_wvc(empty).cover == frozenset()
    single = WeightedGraph(2, (4, 9), ((0, 1),))
    res = exhaustive_min_wvc(single)
    assert res.weight == 4 and res.cover == frozenset({0})


def test_exact_cover_triangle():
    g = WeightedGraph(3, (1, 2, 3), ((0, 1), (1, 2), (0, 2)))
    res = exhaustive_min_wvc(g)
    # any cover of a triangle needs two vertices: {0,1} at weight 3
    assert res.weight == 3
    assert res.cover == frozenset({0, 1})
    assert cover_is_valid(g, res.cover)


def test_exact_cover_disjoint_edges_heavy_first():
    # m disjoint edges, first edge heavy on both ends: min cover picks the
    # cheaper endpoint of each edge -> w + (m-1)
    g = make_gs(4, 16)
    res = exhaustive_min_wvc(g)
    assert res.weight == 16 + 3
    assert cover_is_valid(g, res.cover)


def test_exact_cover_star_weights():
    # center weight 3 vs leaves weighing 2 each: cheaper to take the leaves
    g = WeightedGraph(4, (3, 2, 2, 2), ((0, 1), (0, 2), (0, 3)))
    assert exhaustive_min_wvc(g).weight == 3
    # tie: both {0} and {1,2,3} weigh 3 — only the weight is pinned
    g2 = WeightedGraph(4, (3, 1, 1, 1), ((0, 1), (0, 2), (0, 3)))
    res2 = exhaustive_min_wvc(g2)
    assert res2.weight == 3 and cover_is_valid(g2, res2.cover)
    g3 = WeightedGraph(4, (5, 1, 1, 1), ((0, 1), (0, 2), (0, 3)))
    res3 = exhaustive_min_wvc(g3)
    assert res3.weight == 3 and res3.cover == frozenset({1, 2, 3})


def test_exact_cover_is_bracketed_by_the_greedy_dual():
    """On random graphs the exact cover covers every edge, its weight is
    its vertices' weights, and it lies between two search-free bounds:
    the greedy maximal dual's value sum (weak duality) and the weight of
    that dual's tight-vertex cover."""
    t0 = time.perf_counter()
    rng = random.Random(42)
    for _ in range(60):
        g = random_graph(rng, n_max=10, w_max=9)
        res = exhaustive_min_wvc(g)
        assert cover_is_valid(g, res.cover)
        assert sum(g.weights[v] for v in res.cover) == res.weight
        y = greedy_mfds_values(g)
        load = [0] * g.n
        for (u, v), t in zip(g.edges, y):
            load[u] += t
            load[v] += t
        tight = sum(w for w, x in zip(g.weights, load) if x == w)
        assert sum(y) <= res.weight <= tight
    assert time.perf_counter() - t0 <= 1.0


def test_exact_cover_size_limit():
    with pytest.raises(ValueError, match="n=13 > 12"):
        exhaustive_min_wvc(WeightedGraph(13, (1,) * 13, ()))


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
    assert not validate_mfds_naive(g, [rv(2), rv(-1), rv(-1)], A2)
    assert not validate_mfds_naive(g, (Fraction(3, 2), Fraction(-1, 2),
                                       Fraction(-1, 2)))
    # path 2-0-1-3 with y(0,1) = -1: feasible, every edge has a tight end,
    # and the cover {0, 1} weighs 2 <= 2 * sum(y) = 6; only the sign fails
    path = WeightedGraph(4, (1, 1, 3, 3), ((0, 1), (0, 2), (1, 3)))
    assert not validate_mfds_naive(path, (-1, 2, 2))
    assert not validate_mfds_naive(path, [rv(-1), rv(2), rv(2)], A2)
    assert validate_mfds_naive(path, (0, 1, 1))


def test_validate_mfds_mixed_value_types():
    # ints mixed with coefficient rows must lift cleanly
    g = WeightedGraph(4, (2, 2, 1, 1), ((0, 1), (2, 3)))
    assert validate_mfds_naive(g, [rv(2), 1], A2)
    assert validate_mfds_naive(g, [2, rv(1)], A2)
    assert not validate_mfds_naive(g, [rv(2), 0], A2)
    # irrational tight load: vertex 1 carries beta**2 + (2 - beta**2) == 2
    path = WeightedGraph(3, (2, 2, 2), ((0, 1), (1, 2)))
    beta2 = (0, 0, 1, 0)
    gap = (2, 0, -1, 0)
    assert validate_mfds_naive(path, [beta2, gap], A2)
    assert not validate_mfds_naive(path, [beta2, rv(0)], A2)
    # a row cannot say which alpha it is over, so one without it is refused
    with pytest.raises(ValueError, match="need an alpha"):
        validate_mfds_naive(path, [beta2, gap])
    with pytest.raises(ValueError, match="need an alpha"):
        validate_mfds_naive(g, [2, rv(1)])


def test_validate_mfds_empty_graph():
    g = WeightedGraph(3, (1, 1, 1), ())
    assert validate_mfds_naive(g, ())


# -- the reference acceptance functional ----------------------------------------

def test_reference_fitness_matches_fast_path():
    rng = random.Random(5)
    g = WeightedGraph(5, (3, 4, 2, 5, 3),
                      ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)))
    q_cap = q_max_for(A2, 5)
    branches = set()
    for _ in range(300):
        vals = [rv(Fraction(rng.randint(0, 8), rng.choice((1, 2, 4))))
                for _ in range(g.m)]
        q = [rng.randint(0, q_cap) for _ in range(g.m)]
        selection = rng.sample(range(g.m), rng.randint(0, g.m))
        direction = rng.choice((1, -1))
        eng = _VecEngine(g, vals, 5, A2, q_cap)
        assert engine_agrees(eng, vals, q, selection, direction)
        branches.add((eng.sign_now(), direction))
    assert branches == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_reference_fitness_irrational_values():
    g = WeightedGraph(2, (2, 2), ((0, 1),))
    beta = (0, 1, 0, 0)
    out = reference_fitness(g, A2, [rv(0)], [beta], w_max=2)
    assert out.accept
    assert out.value == beta
    # the same proposal as coefficient rows, over one common denominator
    out = reference_fitness(g, A2, [(Fraction(1, 3), 0, 0, 0)],
                            [(Fraction(1, 3), Fraction(1, 2), 0, 0)], 2)
    assert out.accept and out.value == (0, Fraction(1, 2), 0, 0)


def test_reference_fitness_length_check():
    g = WeightedGraph(2, (1, 1), ((0, 1),))
    with pytest.raises(ValueError):
        reference_fitness(g, A2, [rv(0)], [rv(0), rv(0)], w_max=1)
    with pytest.raises(ValueError):
        reference_fitness(g, A2, [(0, 0)], [(0, 0)], w_max=1)


@pytest.mark.parametrize("first, second", [(2, 9), (9, 2)])
def test_rows_of_another_dimension_rejected(first, second):
    """A row over alpha `second` read over alpha `first` (degree 4 against
    degree 2) has the wrong length, mixed in with rows that fit or not."""
    a, b = canonicalize_alpha(first), canonicalize_alpha(second)
    g = WeightedGraph(3, (2, 2, 2), ((0, 1), (1, 2)))
    fits = (1,) + (0,) * (a.basis_dim - 1)
    mixed = [fits, (1,) + (0,) * (b.basis_dim - 1)]
    with pytest.raises(ValueError, match="coefficients"):
        validate_mfds_naive(g, mixed, a)
    with pytest.raises(ValueError, match="coefficients"):
        reference_fitness(g, a, mixed, [fits] * 2, w_max=2)
    with pytest.raises(ValueError, match="coefficients"):
        reference_fitness(g, a, [fits] * 2, mixed, w_max=2)
    with pytest.raises(ValueError, match="wrong dimension"):
        _VecEngine(g, mixed, 2, a, q_max_for(a, 2))


# -- the trap certificate -----------------------------------------------------------

PATH4 = WeightedGraph(4, (4, 4, 4, 4), ((0, 1), (1, 2), (2, 3)))


@pytest.mark.parametrize("alpha, one, root", [
    (2, (1, 0, 0, 0), (0, 0, 1, 0)),    # beta^2 = sqrt(2)
    (9, (1, 0), (0, 1)),                # beta = sqrt(3)
])
def test_trap_edge_finds_a_doubly_lifted_edge(alpha, one, root):
    a = canonicalize_alpha(alpha)
    assert trap_edge(PATH4, a, [one, root, one]) == 1
    assert trap_edge(PATH4, a, [one, one, one]) is None
    # 2 - root cancels vertex 1's lift, so edge 0 keeps one lifted endpoint
    cancel = tuple(2 * x - r for x, r in zip(one, root))
    assert trap_edge(PATH4, a, [root, cancel, one]) is None


@pytest.mark.parametrize("alpha", [2, 9])
def test_trap_edge_ignores_negative_coordinates(alpha):
    a = canonicalize_alpha(alpha)
    dim = a.basis_dim
    below = (2, -1) + (0,) * (dim - 2)      # 2 - beta > 0, every load < 4
    above = (0, 1) + (0,) * (dim - 2)
    assert trap_edge(PATH4, a, [below] * 3) is None
    assert trap_edge(PATH4, a, [above] * 3) == 0
    # vertex 0 is below, vertex 1 cancels to an integer load
    assert trap_edge(PATH4, a, [below, above, above]) == 2
    assert trap_edge(PATH4, a, [below, above, (1,) + (0,) * (dim - 1)]) \
        is None


def test_trap_edge_lifts_on_any_positive_coordinate():
    # vertex 1 has a negative beta and a positive beta^2 coordinate
    assert trap_edge(PATH4, A2, [(2, -1, 0, 0), (0, 0, 1, 0),
                                 (1, 0, 0, 0)]) == 1


@pytest.mark.parametrize("alpha, one, root", [
    (2, (1, 0, 0, 0), (0, 0, 1, 0)),
    (9, (1, 0), (0, 1)),
])
def test_trap_edge_needs_feasible_values(alpha, one, root):
    a = canonicalize_alpha(alpha)
    over = tuple(5 * c for c in one)        # vertex 0 overloaded
    assert trap_edge(PATH4, a, [over, root, one]) is None
    with pytest.raises(ValueError):
        trap_edge(PATH4, a, [one, root])


def test_trap_edge_never_fires_at_degree_one():
    a = canonicalize_alpha(16)
    assert a.basis_dim == 1
    values = [(Fraction(1, 2),), (Fraction(7, 3),), (1,)]
    assert trap_edge(PATH4, a, values) is None
    assert trap_edge(PATH4, a, [Fraction(3, 2)] * 3) is None


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


# -- independence from the engine -------------------------------------------------

def _module_tree(name):
    return ast.parse((Path(dualvc.__file__).parent / f"{name}.py").read_text())


def _package_imports(tree):
    """Names of the dualvc modules a module imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                out.add(node.module.split(".")[0])
            elif node.level:
                out.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("dualvc."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("dualvc."))
    return out


def test_oracle_shares_no_code_with_the_engine():
    assert _package_imports(_module_tree("oracle")) <= {"graph", "numeric"}
    assert _package_imports(_module_tree("dual")) <= {"graph", "numeric",
                                                      "oracle"}
    heuristics = _module_tree("heuristics")
    assert "dual" not in _package_imports(heuristics)
    # every name heuristics.py defines: module-level functions, classes and
    # constants, and the methods of its classes
    defined = set()
    for node in heuristics.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            defined.update(t.id for t in ast.walk(node)
                           if isinstance(t, ast.Name)
                           and isinstance(t.ctx, ast.Store))
        if isinstance(node, ast.ClassDef):
            defined.update(f.name for f in node.body
                           if isinstance(f, ast.FunctionDef))
    replay_names = {name for name in defined
                    if name == "run_reference"
                    or name.startswith("_reference_")}
    allowed = replay_names | {"RunConfig", "RunResult", "TransitionRecord"}
    allowed |= {name for name in defined if name.startswith("draw_")}
    replay = [node for node in heuristics.body
              if isinstance(node, ast.FunctionDef)
              and node.name in replay_names]
    assert len(replay) == 3
    for func in replay:
        used = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(func)
                 if isinstance(node, ast.Attribute)}
        assert used & defined <= allowed, (func.name, used & defined - allowed)
