"""Dual LP solutions: validation, the cover certificate, the acceptance
functional, covers, dumps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvc.dual import (DualSolution, dump_dual, extract_cover, load_dual,
                         parse_dual, save_dual)
from dualvc.graph import WeightedGraph
from dualvc.numeric import canonicalize_alpha
from dualvc.oracle import cover_certificate, reference_fitness

A2 = canonicalize_alpha(2)


def triangle(weights=(2, 2, 2)):
    return WeightedGraph(3, weights, ((0, 1), (1, 2), (0, 2)))


def rv(x):
    """A rational value as a coefficient row over alpha 2."""
    return (x, 0, 0, 0)


def certificate(y):
    return cover_certificate(y.graph, y.alpha, y.y)


# -- construction and loads --------------------------------------

def test_zero_solution_and_loads():
    y = DualSolution(triangle((1, 1, 1)), 2, (0, 0, 0))
    assert y.y == [(0, 0, 0, 0)] * 3
    cert = certificate(y)
    assert cert.slack == (-1, -1, -1)       # every load below weight 1
    # not maximal, so there is no cover to certify
    assert not cert.maximal and cert.cover_weight is None


def test_int_values_load():
    # load(0) = y01 + y02 = 1, load(1) = y01 + y12 = 3, load(2) = y12 = 2:
    # every vertex is tight exactly at weights (1, 3, 2)
    y = DualSolution(triangle((1, 3, 2)), 2, (1, 2, 0))
    assert y.y == [rv(1), rv(2), rv(0)]
    assert all(type(c) is Fraction for row in y.y for c in row)
    cert = certificate(y)
    assert cert.slack == (0, 0, 0)
    assert cert.sum_y == (3, 0, 0, 0)
    assert certificate(DualSolution(
        triangle((3, 4, 5)), 2, (1, 2, 0))).slack == (-1, -1, -1)


def test_value_validation():
    g = triangle()
    with pytest.raises(ValueError):
        DualSolution(g, 2, [rv(1)])  # wrong length
    with pytest.raises(ValueError):
        DualSolution(g, 2, [rv(-1), rv(0), rv(0)])  # negative
    with pytest.raises(ValueError):
        DualSolution(g, 2, [(1, 0), rv(0), rv(0)])  # row of another degree
    with pytest.raises(ValueError):
        DualSolution(g, 9, [(0, -1), 0, 0])  # negative at degree 2


# -- slack signs, violation sets, solution sign -------------------------------

def test_slack_signs():
    y = DualSolution(triangle((2, 2, 2)), 2, (1, 2, 0))
    # loads: 1, 3, 2 against weights 2, 2, 2
    assert certificate(y).slack == (-1, 1, 0)


def test_violating_sets_and_sign():
    g = triangle((2, 2, 2))
    bad = certificate(DualSolution(g, 2, (1, 2, 0)))
    assert [v for v, s in enumerate(bad.slack) if s > 0] == [1]
    assert not bad.feasible
    ok = certificate(DualSolution(g, 2, (1, 1, 1)))
    assert ok.feasible


def test_slack_sign_irrational_tightness():
    # weight 2, load beta**2 = sqrt(2)... no: beta = 2**(1/4), beta**4 = 2,
    # so load beta**2 = sqrt(2) < 2 (slack) and (beta**2)**2 hits it exactly.
    g = WeightedGraph(2, (2, 2), ((0, 1),))
    y = DualSolution(g, 2, [(0, 0, 1, 0)])
    assert certificate(y).slack[0] == -1
    y = DualSolution(g, 2, [rv(2)])
    assert certificate(y).slack[0] == 0
    y = DualSolution(g, 2, [(2, 0, 1, 0)])
    assert certificate(y).slack[0] == 1


# -- the acceptance functional (oracle.reference_fitness) ----------------------

def ref_fitness(g, values, proposed, w_max=None):
    """reference_fitness on rational value vectors."""
    return reference_fitness(g, A2, [rv(v) for v in values],
                             [rv(v) for v in proposed],
                             g.max_weight() if w_max is None else w_max)


def test_fitness_feasible_increase_accepted():
    out = ref_fitness(triangle((2, 2, 2)), (0, 0, 0), (1, 0, 0))
    assert out.accept and out.value == (1, 0, 0, 0)


def test_fitness_feasible_decrease_rejected():
    out = ref_fitness(triangle((2, 2, 2)), (1, 0, 0), (0, 0, 0))
    assert not out.accept and out.value == (-1, 0, 0, 0)


def test_fitness_feasible_tie_accepted():
    out = ref_fitness(triangle((2, 2, 2)), (1, 0, 0), (1, 0, 0))
    assert out.accept and out.value == (0, 0, 0, 0)


def test_fitness_negates_on_new_violation():
    # raising into infeasibility flips the sign of the (positive) change
    out = ref_fitness(WeightedGraph(2, (1, 1), ((0, 1),)), (0,), (3,))
    assert not out.accept and out.value == (-3, 0, 0, 0)


def test_fitness_infeasible_gain_on_violating_edges():
    # vertex 1 violated; lowering an incident edge is a gain
    out = ref_fitness(triangle((2, 2, 2)), (1, 2, 0), (1, 1, 0))
    assert out.accept and out.value == (1, 0, 0, 0)


def test_fitness_infeasible_off_edge_penalty():
    # touching edge (0,2) — not incident to the violated vertex — is
    # penalized by m * W_max per unit, swamping any gain: gain 1 on edge 1,
    # off-edge change of 1 on edge 2 -> penalty 3*2
    out = ref_fitness(triangle((2, 2, 2)), (1, 2, 0), (1, 1, 1))
    assert not out.accept and out.value == (1 - 6, 0, 0, 0)


def test_fitness_infeasible_raise_on_violating_edge_counts_negative():
    # raising on a violating edge: diff is negative
    out = ref_fitness(triangle((2, 2, 2)), (1, 2, 0), (2, 2, 0))
    assert not out.accept and out.value == (-1, 0, 0, 0)


# -- maximality and cover extraction ------------------------------------------

def test_is_mfds():
    g = triangle((2, 2, 2))

    def is_mfds(y):
        return certificate(y).maximal

    assert not is_mfds(DualSolution(g, 2, (0, 0, 0)))   # edges not tight
    # y=(2,0,0): vertices 0 and 1 tight, every edge has a tight endpoint
    assert is_mfds(DualSolution(g, 2, (2, 0, 0)))
    assert not is_mfds(DualSolution(g, 2, (2, 2, 0)))  # violated
    assert not is_mfds(DualSolution(g, 2, (1, 1, 0)))  # (0,2) loose
    assert is_mfds(DualSolution(g, 2, (1, 1, 1)))


def test_extract_cover_certificate():
    g = triangle((2, 2, 2))
    y = DualSolution(g, 2, (1, 1, 1))
    cover, cert = extract_cover(y)
    assert cover == frozenset({0, 1, 2}) == cert.cover
    assert cert.maximal
    assert cert.cover_weight == 6
    assert cert.sum_y == (3, 0, 0, 0)
    assert cert.weight_ok          # 6 <= 2 * 3
    assert cert.defect is None


def test_extract_cover_star():
    # star: tight center alone covers everything at weight 3 <= 2 * sum_y
    g = WeightedGraph(4, (3, 9, 9, 9), ((0, 1), (0, 2), (0, 3)))
    y = DualSolution(g, 2, (3, 0, 0))
    cover, cert = extract_cover(y)
    assert cover == frozenset({0})
    assert cert.cover_weight == 3
    assert cert.defect is None


def test_extract_cover_requires_mfds():
    g = triangle((2, 2, 2))
    with pytest.raises(ValueError):
        extract_cover(DualSolution(g, 2, (0, 0, 0)))  # not maximal
    with pytest.raises(ValueError):
        extract_cover(DualSolution(g, 2, (2, 2, 2)))  # infeasible


def test_extract_cover_irrational_values():
    # tight vertex 1 carries (2 - beta) + beta; the value sum 4 - beta is
    # irrational, and the cover {1, 2} weighs 4 <= 2 * (4 - beta)
    g = WeightedGraph(4, (3, 2, 2, 3), ((0, 1), (1, 2), (2, 3)))
    y = DualSolution(g, 2, [(2, -1, 0, 0), (0, 1, 0, 0), (2, -1, 0, 0)])
    cover, cert = extract_cover(y)
    assert cover == frozenset({1, 2})
    assert cert.sum_y == (4, -1, 0, 0)
    assert cert.defect is None


# -- dump format ---------------------------------------------------------------

def test_dump_parse_round_trip():
    g = triangle((2, 2, 2))
    y = DualSolution(g, 2, [Fraction(1, 3), (0, Fraction(2, 7), 0, 1), 0])
    text = dump_dual(y)
    assert text.splitlines()[0] == "alpha 2"
    z = parse_dual(text, g)
    assert z.alpha == y.alpha
    assert z.y == y.y


def test_dump_pads_small_basis():
    g = WeightedGraph(2, (1, 1), ((0, 1),))
    y = DualSolution(g, 16, (1,))  # basis_dim 1
    lines = dump_dual(y).splitlines()
    assert lines[0] == "alpha 16"
    assert lines[1].split() == ["0", "1", "0", "0", "0"]
    z = parse_dual(dump_dual(y), g)
    assert z.y == y.y


def test_parse_dual_errors():
    g = triangle()
    ok = dump_dual(DualSolution(g, 2, (0, 0, 0)))
    with pytest.raises(ValueError):
        parse_dual("no header\n", g)
    with pytest.raises(ValueError):
        parse_dual(ok.replace("alpha 2", "alpha 2\n0 1 0 0 0"), g)  # dup id
    with pytest.raises(ValueError):
        parse_dual("alpha 2\n0 1 0 0\n", g)         # short line
    with pytest.raises(ValueError):
        parse_dual("alpha 2\n0 0 0 0 0\n", g)       # missing edges 1, 2
    with pytest.raises(ValueError):
        # nonzero coefficient beyond the rational basis of alpha = 16
        parse_dual("alpha 16\n0 1 1 0 0\n1 0 0 0 0\n2 0 0 0 0\n",
                   triangle())
    with pytest.raises(ValueError):
        parse_dual("alpha \n0 0 0 0 0\n1 0 0 0 0\n2 0 0 0 0\n", g)
    with pytest.raises(ValueError):
        parse_dual(ok.replace("0 0 0 0 0", "0 1/0 0 0 0"), g)  # zero den


def test_save_load_dual(tmp_path):
    g = triangle((2, 2, 2))
    y = DualSolution(g, 2, (1, 1, 1))
    p = tmp_path / "y.dual"
    save_dual(y, str(p))
    z = load_dual(str(p), g)
    assert z.y == y.y


# -- property: fitness sign semantics ------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.data())
def test_feasible_fitness_is_signed_total_change(data):
    g = triangle((3, 3, 3))

    def feasible(v):
        # triangle edges (0,1), (1,2), (0,2): the loads of vertices 0, 1, 2
        return max(v[0] + v[2], v[0] + v[1], v[1] + v[2]) <= 3

    yv = [data.draw(st.integers(0, 1)) for _ in range(3)]
    assert feasible(yv)
    ypv = [data.draw(st.integers(0, 3)) for _ in range(3)]
    out = ref_fitness(g, yv, ypv)
    total = sum(ypv) - sum(yv)
    expected = total if feasible(ypv) else -total
    assert out.value == (expected, 0, 0, 0)
    assert out.accept == (expected >= 0)
