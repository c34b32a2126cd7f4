"""Search heuristics: proposals, adaptation, engine vs reference replay."""

import random
import statistics
from collections import Counter
from fractions import Fraction
from math import log
from types import SimpleNamespace

import pytest

from dualvc import heuristics, oracle
from dualvc.dual import DualSolution, dump_dual, parse_dual
from dualvc.graph import Edit, WeightedGraph
from dualvc.harness import BenchCell, build_instance
from dualvc.heuristics import (ALGORITHMS, RunConfig, _BaseEngine,
                               _binomial_cdf, _decide_decrease_infeasible,
                               _decide_increase,
                               _ea_demotions, _IntEngine, _make_engine,
                               _reference_proposal, _reference_step,
                               _sample_range, _VecEngine, TransitionRecord,
                               draw_direction, draw_ea_selection,
                               draw_rls_selection, run, run_reference)
from dualvc.instances import (hard_instance, make_dynamic, random_dynamic)
from dualvc.numeric import (canonicalize_alpha, q_max_for, sign_of_coeffs,
                            step_coeffs)
from dualvc.oracle import (coefficient_rows, cover_certificate,
                           reference_fitness, trap_edge, validate_mfds_naive)
from engine_decisions import (engine_agrees, engine_decision,
                              engine_demotions)
from near_ties import PELL, near_zero

A2 = canonicalize_alpha(2)


def rows(values):
    """Rational values as coefficient rows at alpha 2."""
    return [(v, 0, 0, 0) for v in values]


def edge_growth_unit(weights=(2, 2)):
    """Single-edge instance born from an edge addition: start value 0."""
    g = WeightedGraph(2, weights, ())
    return make_dynamic(g, (), Edit("edges", edges=((0, 1),)), "E+")


# -- configuration -------------------------------------------------------------

def test_run_config_validation():
    RunConfig("rls", 2, 8, 100, 0)
    RunConfig("rls_fifth", 2, 1, 100, 0)   # single-weight graphs are fine
    with pytest.raises(ValueError):
        RunConfig("sa", 2, 8, 100, 0)
    with pytest.raises(ValueError):
        RunConfig("rls", 1, 8, 100, 0)
    with pytest.raises(ValueError):
        RunConfig("rls", 16, 8, 100, 0)    # alpha above w_max
    with pytest.raises(ValueError):
        RunConfig("rls", 2, 8, 0, 0)


def test_algorithm_registry():
    assert ALGORITHMS == ("ea", "rls", "ea_fifth", "rls_fifth")


# -- random draws ----------------------------------------------------------------

def test_binomial_cdf_shape():
    cdf = _binomial_cdf(4)
    assert len(cdf) == 5
    assert cdf[-1] == 1.0
    assert all(a <= b for a, b in zip(cdf, cdf[1:]))
    assert _binomial_cdf(1) == (0.0, 1.0)


def test_ea_selection_single_edge_always_selected():
    rng = random.Random(0)
    for _ in range(50):
        assert draw_ea_selection(rng, 1) == [0]


def test_ea_one_edge_draw_matches_random_sample():
    """run() draws a one-edge ea selection as one randrange(m), written out,
    where draw_ea_selection calls rng.sample(range(m), 1): both must make
    the same single _randbelow(m) draw, in sample's pool branch (m <= 21)
    and its set branch (m > 21) alike, and leave the stream at the same
    position."""
    for m in list(range(1, 31)) + [64, 128, 256]:
        for seed in range(60):
            a, b = random.Random(seed), random.Random(seed)
            assert a.sample(range(m), 1) == [b.randrange(m)], \
                f"sample(range({m}), 1) no longer draws one randrange({m})"
            assert a.random() == b.random(), \
                f"sample(range({m}), 1) moves the stream unlike randrange"


def test_ea_sample_written_out_matches_random_sample():
    """run() draws an ea selection of two or more edges through
    _sample_range, where draw_ea_selection calls rng.sample(range(m), k):
    both must return the same list and leave the stream at the same
    position.  The sizes straddle sample's set-size boundaries: 21/22 for
    k <= 5, 85/86 for k = 6 and 277/278 for k = 22."""
    sizes = list(range(2, 31)) + [63, 64, 65, 84, 85, 86, 128, 256, 277, 278]
    for m in sizes:
        ks = list(range(2, min(m, 12) + 1)) + ([22] if m >= 256 else [])
        for k in ks:
            for seed in range(30):
                a, b = random.Random(seed), random.Random(seed)
                assert (_sample_range(b.getrandbits, m, k)
                        == a.sample(range(m), k)), (m, k, seed)
                assert a.random() == b.random(), (m, k, seed)


def test_ea_selection_matches_binomial_pmf():
    # frozen seed: the chi-square statistic below is deterministic
    rng = random.Random(123)
    m, n_draws = 4, 40000
    counts = [0] * (m + 1)
    for _ in range(n_draws):
        sel = draw_ea_selection(rng, m)
        assert len(set(sel)) == len(sel)
        assert all(0 <= e < m for e in sel)
        counts[len(sel)] += 1
    probs = [81 / 256, 108 / 256, 54 / 256, 12 / 256, 1 / 256]
    chi2 = sum((counts[k] - n_draws * probs[k]) ** 2 / (n_draws * probs[k])
               for k in range(m + 1))
    assert chi2 < 25.0


def test_rls_selection_uniform():
    rng = random.Random(7)
    m, n_draws = 5, 20000
    counts = [0] * m
    for _ in range(n_draws):
        (e,) = draw_rls_selection(rng, m)
        counts[e] += 1
    assert all(abs(c - n_draws / m) < 300 for c in counts)


def test_direction_is_fair_coin():
    rng = random.Random(11)
    ups = sum(draw_direction(rng) > 0 for _ in range(10000))
    assert 4800 < ups < 5200
    assert set(draw_direction(rng) for _ in range(64)) == {1, -1}


# -- proposals, as seen through run()'s hook stream ---------------------------------

@pytest.mark.parametrize("m", [2, 3, 5, 9, 17, 21, 22, 33])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_draws_match_draw_replay(algorithm, m):
    """run() draws inline; each hook record's direction and edges equal
    the draw_* replay of the same seed, the fifth variants' direction bit
    before the selection.  Sizes just past a power of two make
    getrandbits reject often, and ea selects two or more edges.  ea's
    two-edge draws, written out in run(), come from a pool while m <= 21
    and from a set above that, as in ``random.sample``: m = 2, 21 and 22
    draw two edges on both sides of that boundary."""
    w = 2 ** 20
    g = WeightedGraph(2 * m, (w,) * (2 * m), ())
    inst = make_dynamic(g, (), Edit("edges", edges=tuple(
        (2 * i, 2 * i + 1) for i in range(m))), "E+")
    fifth = algorithm.endswith("fifth")
    draw = (draw_ea_selection if algorithm.startswith("ea")
            else draw_rls_selection)
    sizes = Counter()
    for seed in range(4):
        records = []
        run(inst, RunConfig(algorithm, 2, w, 300, seed), hook=records.append)
        ref = random.Random(seed)
        for rec in records:
            direction = draw_direction(ref) if fifth else rec.sign_before
            assert rec.direction == direction
            assert list(rec.edges) == draw(ref, m)
            sizes[len(rec.edges)] += 1
    assert sizes[1] >= 100
    assert algorithm.startswith("rls") or sizes[2] >= 10


def test_plain_proposals_use_solution_sign_as_direction():
    feas = make_dynamic(WeightedGraph(2, (1, 1), ((0, 1),)), (1,),
                        Edit("weights", weights=(2, 2)), "W+")   # y = 1
    infeas = make_dynamic(WeightedGraph(2, (3, 3), ((0, 1),)), (3,),
                          Edit("weights", weights=(2, 2)), "W-")  # y = 3
    for inst, first in ((feas, 1), (infeas, -1)):
        records = []
        run(inst, RunConfig("ea", 2, inst.w_max, 50, 0), hook=records.append)
        assert records[0].direction == first
        assert all(r.direction == r.sign_before for r in records)


def test_proposal_clamps_decreases_at_zero():
    inst = make_dynamic(WeightedGraph(2, (6, 6), ((0, 1),)), (6,),
                        Edit("weights", weights=(1, 1)), "W-")
    records = []
    run(inst, RunConfig("rls", 2, inst.w_max, 50, 1), hook=records.append)
    # infeasible, so each step lowers by sigma = 1, 2, 4: the last clamps
    changes = [r.changed for r in records[:3]]
    six, five, three, zero = rows((6, 5, 3, 0))
    assert changes == [((0, six, five),), ((0, five, three),),
                       ((0, three, zero),)]
    assert all(r.accepted and r.direction == -1 for r in records[:3])


# -- the rejected-increase demotion set ----------------------------------------------

def assert_i_prime(g, values, selection, expected, monkeypatch):
    """Both the reference step and the engine demote exactly `expected`
    when the ea increase of `selection` at q = 0 is rejected.  The engine's
    demotion is read from run(), its selection count patched to
    len(selection), its seed the first whose draws then propose
    `selection`, and its start taken as not maximal."""
    k = len(selection)

    def first_selection(seed):
        rng = random.Random(seed)
        rng.random()  # the selection count's draw
        return rng.sample(range(g.m), k)

    seed = next(s for s in range(1000) if first_selection(s) == selection)
    config = RunConfig("ea", 2, g.max_weight(), 1, seed)
    _y, accepted, demoted = _reference_step(
        g, config, rows(values), 1, [0] * g.m, selection, 1)
    assert not accepted
    assert set(demoted) == expected
    monkeypatch.setattr(heuristics, "_binomial_cdf",
                        lambda m: (0.0,) * k + (1.0,) * (m + 1 - k))
    monkeypatch.setattr(_IntEngine, "is_mfds", lambda self: False)
    records = []
    run(SimpleNamespace(graph_star=g, y_init=tuple(values)), config,
        records.append)
    (record,) = records
    assert record.edges == tuple(selection) and not record.accepted
    assert set(record.demoted) == expected


def test_i_prime_disjoint_edges_both_demotable(monkeypatch):
    g = WeightedGraph(4, (1, 1, 1, 1), ((0, 1), (2, 3)))
    assert_i_prime(g, (1, 1), [0, 1], {0, 1}, monkeypatch)  # both raised to 2


def test_i_prime_shared_violated_vertex_excluded(monkeypatch):
    g = WeightedGraph(3, (2, 1, 1), ((0, 1), (0, 2)))
    assert_i_prime(g, (1, 1), [0, 1], set(), monkeypatch)   # both raised to 2


def test_i_prime_shared_unviolated_vertex_demotable(monkeypatch):
    # the shared endpoint 0 stays below its weight: it blocks nothing
    g = WeightedGraph(3, (10, 1, 1), ((0, 1), (0, 2)))
    assert_i_prime(g, (1, 1), [0, 1], {0, 1}, monkeypatch)  # both raised to 2


def test_i_prime_mixed(monkeypatch):
    # star plus a detached edge: only the detached edge demotes
    g = WeightedGraph(5, (1, 1, 1, 1, 1), ((0, 1), (0, 2), (3, 4)))
    assert_i_prime(g, (0, 0, 1), [0, 2], {2}, monkeypatch)  # raised to 1 and 2


# -- the engines' incremental counters ----------------------------------------------

def test_engine_counters_match_the_certificate_after_random_commits():
    """Both engines' slack signs, violated count, untight-edge count and
    maximality equal a from-scratch cover certificate after every commit of
    1-3 random values, on small random graphs where commits often flip both
    endpoints of an edge between tight and not tight at once.  Each edge's
    ``lim`` equals the smaller ``fit`` of its endpoints and its ``viol``
    whether the certificate's slack has an endpoint above its weight,
    committed or not, and ``viol`` moves on edges no commit named; its
    ``at_zero`` says whether its value is zero, and its ``mask`` holds the
    bits of its endpoints."""
    rng = random.Random(18)
    q_cap = q_max_for(A2, 4)
    both_flipped = viol_moved = 0
    for _ in range(300):
        n = rng.randint(3, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = WeightedGraph(n, tuple(rng.randint(1, 4) for _ in range(n)),
                          tuple(sorted(rng.sample(pairs, rng.randint(
                              3, len(pairs))))))
        start = [rng.randint(0, 2) for _ in range(g.m)]
        for eng in (_IntEngine(g, start, 4, A2, q_cap),
                    _VecEngine(g, start, 4, A2, q_cap)):
            vec = isinstance(eng, _VecEngine)
            for _ in range(20):
                tight_before = [s == 0 for s in eng.slack]
                viol_before = list(eng.viol)
                deltas = [(e, (rng.randint(0, 2), rng.choice((0, 0, 1)), 0, 0)
                           if vec else rng.randint(0, 2))
                          for e in rng.sample(range(g.m), rng.randint(1, 3))]
                eng.commit(deltas)
                cert = cover_certificate(g, A2, eng.y)
                assert eng.slack == list(cert.slack)
                assert eng.nviol == cert.slack.count(1)
                assert eng.untight == sum(1 for u, v in g.edges
                                          if cert.slack[u] and cert.slack[v])
                assert eng.is_mfds() == cert.maximal
                assert eng.lim == [min(eng.fit[u], eng.fit[v])
                                   for u, v in g.edges]
                assert eng.at_zero == [v == eng.zero for v in eng.y]
                assert eng.viol == [cert.slack[u] > 0 or cert.slack[v] > 0
                                    for u, v in g.edges]
                assert eng.mask == [(1 << u) | (1 << v) for u, v in g.edges]
                committed = {e for e, _new in deltas}
                viol_moved += sum(1 for e in range(g.m) if e not in committed
                                  and eng.viol[e] != viol_before[e])
                both_flipped += sum(
                    1 for u, v in g.edges
                    if tight_before[u] != (cert.slack[u] == 0)
                    and tight_before[v] != (cert.slack[v] == 0))
    assert both_flipped >= 1000
    assert viol_moved >= 1000


def vertex_loads(g, a, values):
    """Each vertex's load as a coefficient row, summed from scratch."""
    loads = [[0] * a.basis_dim for _ in range(g.n)]
    for edge, row in zip(g.edges, coefficient_rows(a, values)):
        for x in edge:
            loads[x] = [c + r for c, r in zip(loads[x], row)]
    return loads


def assert_fit_exact(eng, a, held):
    """q <= eng.fit[v] exactly when load(v) + beta^q <= W(v), for every
    vertex v and every q in `held`, loads summed from scratch.  Returns the
    count of each sign of load(v) + beta^q - W(v)."""
    signs = Counter()
    for x, load in enumerate(vertex_loads(eng.graph, a, eng.y)):
        for qq in held:
            gap = [c + s for c, s in zip(load, step_coeffs(qq, a))]
            gap[0] -= eng.weights[x]
            sign = sign_of_coeffs(gap, a)
            assert (qq <= eng.fit[x]) == (sign <= 0), \
                (a.alpha, type(eng).__name__, x, qq)
            signs[sign] += 1
    return signs


def test_fit_is_the_largest_fitting_step_after_random_commits():
    """Both engines' ``fit`` meets its definition, q <= fit[v] exactly when
    load(v) + beta^q <= W(v) for every q the engine can hold, at alpha 2, 9
    and 16: on the start and after every commit, on small random graphs,
    from an integer start and (on the vector engine) a Fraction one, where
    each commit puts one vertex's load a step away from its weight exactly,
    up to the smallest coefficient step or (at degrees 4 and 2) up to a gap
    far below float resolution."""
    rng = random.Random(21)
    w_max = 64
    signs = Counter()
    for alpha in (2, 9, 16):
        a = canonicalize_alpha(alpha)
        dim = a.basis_dim
        q_cap = q_max_for(a, w_max)
        steps = [step_coeffs(qq, a) for qq in range(q_cap + 1)]
        unit = (1,) + (0,) * (dim - 1)
        ties = [(0,) * dim, unit, tuple(-c for c in unit)]
        if alpha in PELL:
            for n in (6, 12):
                tiny = tuple(near_zero(alpha, dim, n))
                ties += [tiny, tuple(-c for c in tiny)]
        for _ in range(4):
            n = rng.randint(3, 5)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = WeightedGraph(n, tuple(rng.randint(1, w_max)
                                       for _ in range(n)),
                              tuple(sorted(rng.sample(pairs, 3))))
            start = [rng.randint(0, 3) for _ in range(g.m)]
            halves = [Fraction(2 * v + 1, 2) for v in start]
            for eng in (_IntEngine(g, start, w_max, a, q_cap),
                        _VecEngine(g, start, w_max, a, q_cap),
                        _VecEngine(g, halves, w_max, a, q_cap)):
                vec = isinstance(eng, _VecEngine)
                held = range(0, q_cap + 1, 1 if vec or dim == 1 else 4)
                signs += assert_fit_exact(eng, a, held)
                for _ in range(6):
                    # e's new value puts x's load a step, plus a tie, below W
                    e = rng.randrange(g.m)
                    x = rng.choice(g.edges[e])
                    rest = [c - y for c, y in zip(
                        vertex_loads(g, a, eng.y)[x],
                        coefficient_rows(a, [eng.y[e]])[0])]
                    tie = rng.choice(ties if vec else ties[:3])
                    new = [g.weights[x] * (k == 0) - s - r + t
                           for k, (s, r, t) in enumerate(zip(
                               steps[rng.choice(held)], rest, tie))]
                    eng.commit([(e, tuple(new) if vec else new[0])])
                    signs += assert_fit_exact(eng, a, held)
    assert min(signs.values()) >= 50


# -- the vector engine's exact load tests ---------------------------------------------

def assert_walk_is_exact(eng):
    """``_VecEngine._fit`` gives the same answer from starts where its
    float estimate of the slack is far off: too high, too low, negative."""
    fit = list(eng.fit)
    beta_f, log_beta = eng.beta_f, eng.log_beta
    for fake_beta, fake_log in ((beta_f, log_beta * 1000),
                                (beta_f, log_beta / 1000),
                                ([b * 1e30 for b in beta_f], log_beta),
                                ([-b for b in beta_f], log_beta)):
        eng.beta_f, eng.log_beta = fake_beta, fake_log
        assert [eng._fit(v) for v in range(len(fit))] == fit
    eng.beta_f, eng.log_beta = beta_f, log_beta


@pytest.mark.parametrize("alpha", [2, 9])
def test_vector_engine_load_tests_are_exact(alpha):
    """The vector engine's load signs, overload tests and ``fit`` equal
    the exact sign: on gaps from 0.2 down to far below float resolution,
    on tight loads, and on weights and loads beyond the float range; and
    ``fit`` does so from starts where the float estimate is far off."""
    a = canonicalize_alpha(alpha)
    dim = a.basis_dim
    q_cap = q_max_for(a, 2 ** 10)
    g = WeightedGraph(2, (2 ** 40, 2 ** 40), ((0, 1),))
    big = WeightedGraph(2, (2 ** 1100, 2 ** 1100), ((0, 1),))
    checked = 0
    for graph in (g, big):
        w = graph.weights[0]
        for n in range(0, 24, 3):
            t = near_zero(alpha, dim, n)
            for s in (1, -1, 0):
                for step in (None, 1, 6):
                    row = [s * c for c in t]
                    row[0] += w
                    if step is not None:
                        row = [x - c for x, c in
                               zip(row, step_coeffs(step, a))]
                    eng = _VecEngine(graph, [tuple(row)], 2 ** 10, a, q_cap)
                    exact = sign_of_coeffs([row[0] - w] + row[1:], a)
                    assert eng.slack == [exact, exact]
                    assert_fit_exact(eng, a, range(q_cap + 1))
                    assert_walk_is_exact(eng)
                    if step is None:
                        continue
                    over = eng.overloads(0, [step_coeffs(step, a)])
                    assert over == (s > 0)
                    checked += 1
    assert checked == 2 * 8 * 3 * 2
    huge = 2 ** 1100
    for row in ([huge] + [0] * (dim - 1), [-huge, huge] + [0] * (dim - 2),
                [huge, -huge] + [0] * (dim - 2)):
        eng = _VecEngine(g, [tuple(row)], 2 ** 10, a, q_cap)
        exact = sign_of_coeffs([row[0] - g.weights[0]] + row[1:], a)
        assert eng.slack == [exact, exact]
        assert_fit_exact(eng, a, range(q_cap + 1))  # loads beyond floats
        assert_walk_is_exact(eng)
        raised = [x + c for x, c in zip(row, step_coeffs(1, a))]
        raised[0] -= g.weights[0]
        assert eng.overloads(0, [step_coeffs(1, a)]) == \
            (sign_of_coeffs(raised, a) > 0)
    rng = random.Random(alpha)
    for _ in range(300):
        row = tuple(rng.randint(-2 ** 20, 2 ** 20) for _ in range(dim))
        step = rng.randint(0, q_cap)
        eng = _VecEngine(g, [row], 2 ** 10, a, q_cap)
        w = g.weights[0]
        assert eng.slack[0] == sign_of_coeffs((row[0] - w,) + row[1:], a)
        raised = [x + c for x, c in zip(row, step_coeffs(step, a))]
        raised[0] -= w
        assert eng.overloads(0, [step_coeffs(step, a)]) == \
            (sign_of_coeffs(raised, a) > 0)


@pytest.mark.parametrize("variant", ["E+", "W+", "W-"])
def test_vector_engine_beyond_float_range_matches_reference(variant):
    """At alpha = 3^201 (field degree 4) the weights are alpha^6, about
    2^1911, so ``_VecEngine._fit``'s float start overflows on real runs,
    not only on a faked ``beta_f``; the walk from q_cap still gives the
    reference replay's stream."""
    alpha = 3 ** 201
    inst = hard_instance(variant, 6, alpha)
    with pytest.raises(OverflowError):
        float(inst.w_max)
    for algorithm in ("rls_fifth", "ea_fifth"):
        cfg = RunConfig(algorithm, alpha, inst.w_max, 200, 1)
        assert isinstance(_make_engine(inst, cfg), _VecEngine)
        assert_run_matches_reference(inst, cfg)


# -- one-edge increases at exact ties --------------------------------------------------

@pytest.mark.parametrize("alpha", [2, 9, 16])
def test_one_edge_increase_at_exact_ties(alpha, monkeypatch):
    """A feasible one-edge increase is decided as reference_fitness decides
    it, on both engines, where the step fills an endpoint exactly, exceeds
    its weight by the smallest coefficient step or falls short by it, and
    (on the vector engine at degrees 4 and 2) misses the weight by a gap
    far below float resolution.  The vector engine's exact sign decides
    such a tie when the engine computes ``fit``; the decision, q against
    ``fit`` as run() makes it, takes no exact sign.  _decide_increase,
    which run() sends larger selections, agrees.  A rejected one overloads
    endpoint 1, which no other selected edge touches, so _ea_demotions
    demotes the edge, as _reference_step does."""
    exact_calls = []

    def counted(coeffs, a):
        exact_calls.append(coeffs)
        return sign_of_coeffs(coeffs, a)

    monkeypatch.setattr(heuristics, "sign_of_coeffs", counted)
    a = canonicalize_alpha(alpha)
    dim = a.basis_dim
    w = 2 ** 12
    g = WeightedGraph(3, (w, w, w), ((0, 1), (1, 2)))
    q_cap = q_max_for(a, w)
    unit = (1,) + (0,) * (dim - 1)
    nudges = [(0,) * dim, unit, tuple(-c for c in unit)]
    if alpha in PELL:
        tiny = tuple(near_zero(alpha, dim, 12))
        nudges += [tiny, tuple(-c for c in tiny)]
    outcomes = Counter()
    for qs in range(q_cap + 1):
        if alpha ** (qs / 4) > 2 ** 10:  # keep y1 well above zero
            break
        s = step_coeffs(qs, a)
        q = [qs, 0]
        for nudge in nudges:
            # vertex 1 carries 3 + y1 = w - beta^qs + nudge before the step
            y1 = tuple((w - 3) * (k == 0) - s[k] + nudge[k]
                       for k in range(dim))
            engines = [(_VecEngine, [3, y1])]
            if not any(y1[1:]) and not any(s[1:]):
                engines.append((_IntEngine, [3, y1[0]]))
            for cls, values in engines:
                eng = cls(g, values, w, a, q_cap)
                assert eng.sign_now() > 0
                tie = not any(nudge) or nudge in nudges[3:]
                del exact_calls[:]
                assert eng._fit(1) == eng.fit[1]
                if cls is _VecEngine and tie:
                    assert exact_calls, (qs, nudge)
                del exact_calls[:]
                accept = engine_decision(eng, [0], q, 1) is not None
                assert not exact_calls, (qs, nudge)
                assert engine_agrees(eng, values, q, [0], 1, alpha=a)
                deltas = _decide_increase(eng, [0], q)
                assert (deltas is not None) == accept
                outcomes[cls.__name__, accept] += 1
                if accept:
                    continue
                assert _ea_demotions(eng, [0], q) == [0]
                _y, accepted, demoted = _reference_step(
                    g, RunConfig("ea", alpha, w, 1, 0),
                    coefficient_rows(a, values), 1, list(q), [0], 1)
                assert not accepted and demoted == (0,)
    assert min(outcomes.values()) >= 3
    assert len(outcomes) == 4


# -- infeasible decreases that empty a value ---------------------------------------

def test_decrease_by_an_equal_step_clamps_without_a_sign(monkeypatch):
    """An infeasible decrease of two or more edges moves an edge whose value
    equals its step to zero, on both engines, as _reference_step does; the
    vector engine takes no exact sign of the zero row the step leaves.  A
    value above its step still falls by the step."""
    signed = []

    def counted(coeffs, a):
        signed.append(coeffs)
        return sign_of_coeffs(coeffs, a)

    monkeypatch.setattr(heuristics, "sign_of_coeffs", counted)
    # each edge has a violated endpoint of weight 1: 0, 2 and 4
    g = WeightedGraph(6, (1, 8, 1, 8, 1, 8), ((0, 1), (2, 3), (4, 5)))
    zero, one = rows((0, 1))
    for cls, values, q in ((_IntEngine, [2, 2, 3], [4, 4, 4]),
                           (_VecEngine, [2, 2, 3], [4, 4, 4]),
                           (_VecEngine, [(0, 1, 0, 0), 2, 3], [1, 4, 4])):
        eng = cls(g, values, 8, A2, q_max_for(A2, 8))
        assert eng.sign_now() < 0
        del signed[:]
        deltas = _decide_decrease_infeasible(eng, [0, 1, 2], q)
        assert [(e, eng.row(v)) for e, v in deltas] == [
            (0, zero), (1, zero), (2, one)]
        assert signed if cls is _VecEngine else not signed
        assert all(any(c) for c in signed), signed
        assert engine_agrees(eng, values, q, [0, 1, 2], -1, alpha=A2)


# -- shared endpoints of an ea increase ---------------------------------------------

@pytest.mark.parametrize("alpha", [2, 9, 16])
def test_shared_endpoint_decided_by_fit_then_exact_sum(alpha, monkeypatch):
    """An ea increase of 2 or 3 edges that share the centre of a star is
    decided as _reference_step decides it, demoted set included, on both
    engines.  Where one step alone exceeds ``fit`` at an endpoint (the
    centre's, by 1 or by a Pell gap far below float resolution, or the
    detached edge's own), the selection is rejected and ``overloads`` is
    never called.  Where each step fits on its own, the centre's summed
    steps miss its weight by 0, +-1 or +-a Pell gap, and ``overloads``
    decides them once, at the centre.  Some selections add a detached edge
    that may overload its own endpoint, which ea demotes: _ea_demotions
    gives the demoted set of a rejected selection, calling ``overloads``
    at most once, at the centre, and never for a star edge paired with
    the detached one, whose endpoints are disjoint."""
    calls = []
    overloads = _BaseEngine.overloads

    def counted(self, v, steps):
        calls.append(v)
        return overloads(self, v, steps)

    monkeypatch.setattr(_BaseEngine, "overloads", counted)
    a = canonicalize_alpha(alpha)
    dim = a.basis_dim
    w = 2 ** 12
    # centre 0 with leaves 1-3; edge 3 to leaf 4 carries the centre's rest;
    # edge 4 is detached, at weights 8
    g = WeightedGraph(7, (w,) * 5 + (8, 8),
                      ((0, 1), (0, 2), (0, 3), (0, 4), (5, 6)))
    q_cap = q_max_for(a, w)
    config = RunConfig("ea", alpha, w, 1, 0)
    unit = (1,) + (0,) * (dim - 1)
    nudges = [(0,) * dim, unit, tuple(-c for c in unit)]
    if alpha in PELL:
        tiny = tuple(near_zero(alpha, dim, 12))
        nudges += [tiny, tuple(-c for c in tiny)]
    q_top = int(4 * log(64, alpha))  # steps up to 64 keep edge 3 positive
    rng = random.Random(alpha)
    outcomes = Counter()
    for i in range(12):
        star = rng.sample(range(3), 3 if i % 3 == 2 else 2)
        # the detached edge joins some pairs; its step overloads it or not
        selection = star + ([4] if i % 6 in (0, 4) else [])
        # odd rounds hold integer steps only, as _IntEngine does
        q = [rng.randrange(0, q_top + 1, 1 + 3 * (i % 2)) for _ in range(3)]
        q += [0, q_top if i % 6 == 0 else 0]
        steps = [step_coeffs(q[e], a) for e in star]
        q_big = max(q[e] for e in star)
        for case in (1, 2):
            for nudge in nudges:
                if case == 1 and sign_of_coeffs(nudge, a) <= 0:
                    continue
                # the centre's load before the step, less W, as a row
                if case == 1:  # the largest step alone overshoots by nudge
                    gap = [n - s for n, s in zip(nudge, step_coeffs(q_big, a))]
                else:  # the steps together overshoot by nudge
                    gap = [n - sum(col) for n, col in zip(nudge, zip(*steps))]
                values = [1 if e in star else 0 for e in range(3)]
                rest = [w * (k == 0) + gap[k] - sum(values) * (k == 0)
                        for k in range(dim)]
                values += [tuple(rest), 1]
                start = coefficient_rows(a, values)
                engines = [_VecEngine(g, start, w, a, q_cap)]
                if not any(c for row in start for c in row[1:]) and (
                        dim == 1 or all(qq % 4 == 0 for qq in q)):
                    engines.append(_IntEngine(g, [row[0] for row in start],
                                              w, a, q_cap))
                _y, accepted, ref_demoted = _reference_step(
                    g, config, start, 1, list(q), selection, 1)
                pair = [star[0], 4]
                _y, pair_accepted, pair_demoted = _reference_step(
                    g, config, start, 1, list(q), pair, 1)
                for eng in engines:
                    assert eng.sign_now() > 0
                    assert (q_big > eng.fit[0]) == (case == 1)
                    # some selected edge's step alone exceeds fit
                    alone = any(q[e] > eng.fit[x]
                                for e in selection for x in g.edges[e])
                    del calls[:]
                    deltas = _decide_increase(eng, selection, q)
                    assert (deltas is not None) == accepted
                    assert calls == ([] if alone else [0])
                    assert case == 2 or not calls  # case 1 never sums
                    del calls[:]
                    demoted = (() if accepted else
                               tuple(_ea_demotions(eng, selection, q)))
                    assert demoted == ref_demoted
                    assert calls in ([], [0])
                    del calls[:]
                    pair_engine = tuple(_ea_demotions(eng, pair, q))
                    assert not calls
                    assert pair_accepted or pair_engine == pair_demoted
                    outcomes["pair", pair_accepted, bool(pair_engine)] += 1
                    assert engine_agrees(eng, values, q, selection, 1,
                                         alpha=a)
                    outcomes[case, type(eng).__name__, accepted,
                             bool(demoted)] += 1
    assert outcomes.keys() >= {
        (1, "_VecEngine", False, False), (1, "_VecEngine", False, True),
        (2, "_VecEngine", True, False), (2, "_VecEngine", False, False),
        (2, "_VecEngine", False, True), (2, "_IntEngine", True, False),
        (2, "_IntEngine", False, False), ("pair", True, False),
        ("pair", False, True)}


# -- random multi-edge increases ------------------------------------------------------

@pytest.mark.parametrize("alpha, offset", [
    pytest.param(2, 0, id="2"), pytest.param(9, 0, id="9"),
    pytest.param(16, 0, id="16"), pytest.param(2, 100, id="2-ids+100")])
def test_increase_helpers_match_reference_on_random_selections(alpha, offset):
    """On random feasible starts and selections of 2-5 edges, at least half
    of them sharing an endpoint, _decide_increase rejects exactly when
    _reference_step does and accepts with its proposal, and _ea_demotions
    gives ea's demoted set, on each engine _make_engine picks: ea from an
    integer start (integer engine), ea from a Fraction start (vector
    engine) and ea_fifth from an integer start (vector engine, or integer
    at degree 1).  Some rejections spare an edge whose overloaded endpoint
    another selected edge shares.  With `offset` 100 the same graphs sit
    behind 100 isolated vertices, so every endpoint mask, shared ones
    included, spans more than one 64-bit word."""
    rng = random.Random(23 + alpha)
    a = canonicalize_alpha(alpha)
    w_max = 64
    q_top = q_max_for(a, 16)  # steps from 1 to past the slacks
    outcomes = Counter()
    shared_n = total = 0
    for _ in range(20):
        n = rng.randint(5, 6)
        ids = range(offset, offset + n)
        pairs = [(u, v) for u in ids for v in ids if u < v]
        g = WeightedGraph(offset + n, (w_max,) * offset + tuple(
            rng.randint(20, w_max) for _ in ids),
            tuple(sorted(rng.sample(pairs, rng.randint(5, 8)))))
        start = [rng.randint(0, 3) for _ in range(g.m)]
        halves = [Fraction(2 * v + 1, 2) for v in start]
        for algorithm, values in (("ea", start), ("ea", halves),
                                  ("ea_fifth", start)):
            config = RunConfig(algorithm, alpha, w_max, 1, 0)
            eng = _make_engine(
                SimpleNamespace(graph_star=g, y_init=tuple(values)), config)
            assert eng.sign_now() > 0
            y = coefficient_rows(a, values)
            for i in range(6):
                k = rng.randint(2, min(5, g.m))
                if i % 2 == 0:  # two edges at one vertex, then any others
                    x = rng.choice([v for v in ids
                                    if sum(v in uv for uv in g.edges) > 1])
                    at_x = [e for e, uv in enumerate(g.edges) if x in uv]
                    selection = rng.sample(at_x, 2)
                    selection += rng.sample(
                        [e for e in range(g.m) if e not in selection], k - 2)
                else:
                    selection = rng.sample(range(g.m), k)
                ends = Counter(w for e in selection for w in g.edges[e])
                shared_n += max(ends.values()) > 1
                total += 1
                # ea moves q by whole steps only
                q = [rng.randrange(0, q_top + 1, 4 if algorithm == "ea" else 1)
                     for _ in range(g.m)]
                y_new, accepted, ref_demoted = _reference_step(
                    g, config, y, 1, list(q), selection, 1)
                deltas = _decide_increase(eng, selection, q)
                assert (deltas is not None) == accepted
                assert engine_decision(eng, selection, q, 1) == deltas
                if accepted:
                    assert [e for e, _n in deltas] == selection
                    assert coefficient_rows(a, [v for _e, v in deltas]) == \
                        [y_new[e] for e in selection]
                    outcomes["accepted"] += 1
                    continue
                alone = any(q[e] > eng.fit[w]
                            for e in selection for w in g.edges[e])
                outcomes["alone" if alone else "summed"] += 1
                if algorithm != "ea":
                    continue
                demoted = tuple(_ea_demotions(eng, selection, q))
                assert demoted == ref_demoted
                assert tuple(engine_demotions(eng, selection, q)) == demoted
                slack = reference_fitness(
                    g, a, y, _reference_proposal(a, y, q, selection, 1),
                    w_max).proposed_slack
                spared = [e for e in selection if e not in demoted
                          and any(slack[w] > 0 for w in g.edges[e])]
                outcomes["demoted"] += bool(demoted)
                outcomes["spared"] += bool(spared)
    assert 2 * shared_n >= total
    assert min(outcomes[key] for key in
               ("accepted", "alone", "summed", "demoted", "spared")) >= 3, \
        outcomes


# -- one evaluation of _reference_step ------------------------------------------------

def reference_step(g, values, q, algorithm, selection, direction, w_max):
    """_reference_step at alpha 2 on rational values, given with their
    sign as the replay computes it."""
    y = rows(values)
    sign = 1 if cover_certificate(g, A2, y).feasible else -1
    return _reference_step(g, RunConfig(algorithm, 2, w_max, 1, 0), y, sign,
                           q, selection, direction)


def test_accept_promotes_all_selected_capped():
    g = WeightedGraph(2, (2, 2), ((0, 1),))
    q = [7]                                    # q_max = 8
    y2, accepted, demoted = reference_step(g, (0,), q, "rls_fifth", [0], -1,
                                           2)  # lowering 0 is a no-op
    assert accepted
    assert q == [8]                            # 7 + 4 capped at 8
    assert demoted == ()
    assert y2[0] == (0, 0, 0, 0)


def test_reject_ea_demotes_i_prime_only():
    g = WeightedGraph(5, (2, 2, 1, 1, 1), ((0, 1), (0, 2), (3, 4)))
    q = [3, 3, 5]
    # edge 0 rises to 2**(3/4) < 2, edge 2 to 1 + 2**(5/4) > 1
    _, accepted, demoted = reference_step(g, (0, 0, 1), q, "ea", [0, 2], 1,
                                          4)
    assert not accepted
    assert q == [3, 3, 1]                      # only edge 2 demoted, by 4
    assert demoted == (2,)


def test_reject_rls_demotes_chosen_edge_floored():
    g = WeightedGraph(2, (1, 1), ((0, 1),))
    q = [2]
    _, accepted, demoted = reference_step(g, (1,), q, "rls", [0], 1, 1)
    assert not accepted
    assert q == [0]                            # 2 - 4 floored at 0
    assert demoted == (0,)


def test_reject_plain_never_demotes_while_infeasible():
    g = WeightedGraph(4, (1, 1, 5, 5), ((0, 1), (2, 3)))
    q = [6, 6]                                 # vertices 0, 1 overloaded
    _, accepted, demoted = reference_step(g, (2, 1), q, "rls", [1], -1, 5)
    assert not accepted                        # off-edge decrease
    assert q == [6, 6] and demoted == ()


def test_reject_fifth_demotes_quarter_step_unconditionally():
    g = WeightedGraph(4, (1, 1, 5, 5), ((0, 1), (2, 3)))
    q = [6, 3]
    _, accepted, demoted = reference_step(g, (2, 1), q, "rls_fifth", [1], -1,
                                          5)
    assert not accepted
    assert q == [6, 2] and demoted == (1,)
    # same while feasible
    qf = [0]
    _, acc2, dem2 = reference_step(WeightedGraph(2, (2, 2), ((0, 1),)), (2,),
                                   qf, "ea_fifth", [0], 1, 2)
    assert not acc2 and qf == [0]              # 0 - 1 floored at 0
    assert dem2 == (0,)


def test_accepted_decrease_while_infeasible():
    g = WeightedGraph(2, (1, 1), ((0, 1),))
    q = [0]
    y2, accepted, _ = reference_step(g, (3,), q, "rls", [0], -1, 1)
    assert accepted
    assert y2[0] == (2, 0, 0, 0)
    assert q == [4]                            # accepts always promote


# -- whole runs -----------------------------------------------------------------------

def test_rls_single_edge_deterministic_three_evaluations():
    # 0 -> 1 (accept, q to 4), 1 + 2 overloads (reject, q back to 0),
    # 1 -> 2 tight (accept): exactly 3 evaluations for every seed
    for seed in range(10):
        cfg = RunConfig("rls", 2, 2, 50, seed)
        result = run(edge_growth_unit((2, 2)), cfg)
        assert result.success
        assert result.evaluations == 3
        assert result.accepted == 2
        assert result.final_coeffs == ((2, 0, 0, 0),)
        ref = []
        run_reference(edge_growth_unit((2, 2)), cfg, hook=ref.append)
        assert [r.sign_after for r in ref] == [1, 1, 1]


def test_rls_fifth_single_unit_edge_mean_hitting_time():
    # Unit-weight single edge: the step exponent performs a random walk
    # (accepted no-op decreases promote, rejected increases demote by a
    # quarter) and the run ends at the first increase tried at exponent 0.
    # The chain's exact expected hitting time from a fresh start is 32.
    inst = edge_growth_unit((1, 1))
    times = []
    for seed in range(3000):
        result = run(inst, RunConfig("rls_fifth", 2, 1, 2000, seed))
        assert result.success
        times.append(result.evaluations)
    mean = statistics.fmean(times)
    assert 30.0 < mean < 34.0


def rls_fifth_unit_edge_exact_mean(alpha, w):
    """Exact expected evaluations of rls_fifth on edge_growth_unit((1, w))
    from q = 0.  The states are the zero edge's q in 0..q_cap; each
    evaluation's two coins are read from _reference_step, and a step that
    leaves a maximal solution ends the run.  Solves E = 1 + P E in
    Fractions."""
    a = canonicalize_alpha(alpha)
    g = edge_growth_unit((1, w)).graph_star
    config = RunConfig("rls_fifth", alpha, w, 1, 0)
    zero = coefficient_rows(a, [0])
    size = q_max_for(a, w) + 1
    system = []
    for qs in range(size):
        row = [Fraction(int(k == qs)) for k in range(size)] + [Fraction(1)]
        for d in (1, -1):
            q = [qs]
            y, _accepted, _demoted = _reference_step(g, config, zero, 1, q,
                                                     [0], d)
            if not cover_certificate(g, a, y).maximal:
                assert y == zero
                row[q[0]] -= Fraction(1, 2)
        system.append(row)
    for i in range(size):  # Gauss-Jordan; I - P is an M-matrix: no pivoting
        system[i] = [c / system[i][i] for c in system[i]]
        for j in range(size):
            if j != i and system[j][i]:
                f = system[j][i]
                system[j] = [c - f * p for c, p in zip(system[j], system[i])]
    return system[0][-1]


def test_rls_fifth_unit_edge_walk_is_pseudo_polynomial():
    """An accept that changes no value still promotes q, so on one zero
    edge with weights (1, W), where only q = 0 fits, rls_fifth walks in q
    until an up-coin meets q = 0.  The exact mean grows about 14-fold per
    +4 of q_cap (q_cap = 4, 8, 12 at alpha 16 and W = 1, 16, 256), and
    run's mean over seeds 0-1999 at q_cap 8 lies within 4 standard errors
    of the exact 448."""
    assert [rls_fifth_unit_edge_exact_mean(16, w) for w in (1, 16, 256)] \
        == [32, 448, 6192]
    inst = edge_growth_unit((1, 16))
    times = []
    for seed in range(2000):
        result = run(inst, RunConfig("rls_fifth", 16, 16, 10 ** 7, seed))
        assert result.success
        times.append(result.evaluations)
    se = statistics.stdev(times) / len(times) ** 0.5
    assert abs(statistics.fmean(times) - 448) <= 4 * se


def test_budget_exhaustion_reports_failure():
    inst = edge_growth_unit((2 ** 30, 2 ** 30))
    result = run(inst, RunConfig("rls", 2, 2 ** 30, 35, 1))
    assert not result.success
    assert result.evaluations == 35


def test_already_maximal_start_needs_no_evaluations():
    g = WeightedGraph(2, (1, 1), ((0, 1),))
    inst = make_dynamic(g, (1,), Edit("weights", weights=(1, 2)), "W+")
    cfg = RunConfig("rls", 2, 2, 100, 0)
    fast, ref = [], []
    result = run(inst, cfg, hook=fast.append)
    assert result.success and result.evaluations == 0
    assert result.accepted == 0
    assert run_reference(inst, cfg, hook=ref.append) == result
    assert fast == ref == []


def test_emptied_graph_is_trivially_maximal():
    g = WeightedGraph(2, (1, 1), ((0, 1),))
    inst = make_dynamic(g, (1,), Edit("edges", edges=()), "E-")
    for algorithm in ALGORITHMS:
        cfg = RunConfig(algorithm, 2, 1, 100, 0)
        result = run(inst, cfg)
        assert result.success and result.evaluations == 0
        assert result.final_coeffs == ()
        assert run_reference(inst, cfg) == result


def test_run_is_deterministic():
    inst = hard_instance("E+", 3, 2)
    cfg = RunConfig("ea", 2, 8, 500, 42)
    assert run(inst, cfg) == run(inst, cfg)


def test_run_holds_no_cells():
    """No comprehension or closure reads ``run``'s locals: a cell makes
    each read of the local in the loop slower, which is why ``_moves``
    builds the exponent tables outside it."""
    assert run.__code__.co_cellvars == ()
    assert run.__code__.co_freevars == ()


def fraction_start_instance():
    """A 5-cycle held at half its vertex weights (alpha 9), reloaded from
    its dump, then hit by a mixed weight edit."""
    g = WeightedGraph(5, (11,) * 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    y = DualSolution(g, 9, [(Fraction(11, 2), 0)] * 5)
    y = parse_dual(dump_dual(y), g)
    assert all(row == (Fraction(11, 2), 0) for row in y.y)
    return make_dynamic(g, y.y, Edit("weights", weights=(9, 11, 13, 11, 11)),
                        "W", y.alpha)


def fraction_edge_growth_instance():
    """A path held at half its middle weight in Fractions, then grown by
    two edges to a new vertex: the new edges start at 0, and only the new
    vertex can become their tight endpoint."""
    g = WeightedGraph(4, (9, 9, 9, 4), ((0, 1), (1, 2)))
    edit = Edit("edges", edges=((0, 1), (1, 2), (0, 3), (2, 3)))
    return make_dynamic(g, (Fraction(9, 2),) * 2, edit, "E+")


# (alpha, instance): field degree 4 (alpha 2), 2 (alpha 9) and 1 (alpha 16)
EQUIV_CASES = [
    (2, hard_instance("E+", 3, 2)),
    (2, hard_instance("W-", 2, 2)),
    (2, random_dynamic("E", 8, 10, 2, 8, seed=8)),
    (2, random_dynamic("W", 8, 10, 3, 8, seed=7)),
    (9, hard_instance("E+", 2, 9)),
    (9, random_dynamic("W", 8, 10, 3, 64, seed=7)),
    (9, fraction_start_instance()),
    (9, fraction_edge_growth_instance()),
    (16, hard_instance("W-", 2, 16)),
    (16, random_dynamic("E", 8, 10, 2, 64, seed=3)),
]


def first_trap(inst, alpha, records):
    """Replay a hook stream from the start values.  Returns
    (eval index, coefficient rows) at the first state that
    ``oracle.trap_edge`` certifies, or None if no state does."""
    g = inst.graph_star
    y = [tuple(row) for row in coefficient_rows(alpha, inst.y_init)]
    if trap_edge(g, alpha, y) is not None:
        return 0, tuple(y)
    for r in records:
        for e, old, new in r.changed:
            assert y[e] == old
            y[e] = new
        if r.accepted and trap_edge(g, alpha, y) is not None:
            return r.eval_index, tuple(y)
    return None


def assert_run_matches_reference(inst, cfg):
    """Engine and reference emit the same hook stream, record for record,
    and the same RunResult; the comparison is not vacuous, and the hook
    does not perturb the engine."""
    alpha = canonicalize_alpha(cfg.alpha)
    assert not validate_mfds_naive(inst.graph_star, inst.y_init, alpha)
    fast_stream, ref_stream = [], []
    fast = run(inst, cfg, hook=fast_stream.append)
    ref = run_reference(inst, cfg, hook=ref_stream.append)
    assert fast.evaluations >= 1
    assert len(fast_stream) == fast.evaluations
    assert len(ref_stream) == ref.evaluations
    assert fast_stream == ref_stream
    assert fast == ref
    assert run(inst, cfg) == fast


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_engine_matches_reference_path(algorithm):
    for alpha, inst in EQUIV_CASES:
        for seed in (1, 2):
            assert_run_matches_reference(inst, RunConfig(
                algorithm, alpha, inst.w_max, 400, seed))


def inline_branch(algorithm, g, rec):
    """The branch of run() that decided one hook record without a helper,
    or None: the kinds test_equiv_cases_reach_every_inline_branch counts."""
    k = len(rec.edges)
    if rec.sign_before < 0 and rec.direction < 0 and k == 1:
        if not rec.accepted:
            return "infeasible one-edge decrease rejected"
        if not rec.changed:
            return "infeasible one-edge decrease at zero"
        (_e, _old, new), = rec.changed
        return ("infeasible one-edge decrease clamped" if not any(new)
                else "infeasible one-edge decrease by a step")
    if rec.sign_before > 0 and k == 2:
        if algorithm == "ea" and rec.direction > 0 and not rec.accepted:
            u, v = g.edges[rec.edges[0]]
            shared = u in g.edges[rec.edges[1]] or v in g.edges[rec.edges[1]]
            return ("ea two-edge increase rejected, "
                    + ("shared endpoint" if shared else "disjoint"))
        if algorithm.endswith("fifth") and rec.direction < 0:
            return ("fifth two-edge feasible decrease, "
                    + ("both zero" if rec.accepted else "not both zero"))
    return None


def test_equiv_cases_reach_every_inline_branch():
    """The runs test_engine_matches_reference_path holds against
    run_reference reach each branch run() decides inline from per-edge
    state: a rejected infeasible one-edge decrease (a nonzero edge with no
    violated endpoint), an accepted one clamped to zero and one lowered by
    a whole step, plain ea's rejected two-edge increase with disjoint and
    with shared endpoints, and a fifth variant's two-edge feasible decrease
    on two zero values and on others."""
    kinds = Counter()
    for algorithm in ALGORITHMS:
        for alpha, inst in EQUIV_CASES:
            g = inst.graph_star
            for seed in (1, 2):
                run(inst, RunConfig(algorithm, alpha, inst.w_max, 400, seed),
                    lambda rec: kinds.update(
                        [inline_branch(algorithm, g, rec)]))
    del kinds[None]
    assert len(kinds) == 8 and min(kinds.values()) >= 1, kinds


def test_engine_matches_reference_alpha_three():
    inst = hard_instance("W+", 2, 3)
    for algorithm in ALGORITHMS:
        assert_run_matches_reference(
            inst, RunConfig(algorithm, 3, inst.w_max, 300, 9))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_replay_computes_one_certificate_per_state(algorithm, monkeypatch):
    """run_reference calls oracle.cover_certificate once for the start
    and once after each accepted step, and at no other time: a rejected ea
    increase reads its proposal's slack from reference_fitness."""
    calls = []
    certify = oracle.cover_certificate

    def counted(g, alpha, values):
        calls.append(values)
        return certify(g, alpha, values)

    monkeypatch.setattr(oracle, "cover_certificate", counted)
    rejected_increases = []
    for alpha, inst in EQUIV_CASES[::3]:
        records = []
        calls.clear()
        result = run_reference(inst, RunConfig(algorithm, alpha, inst.w_max,
                                               400, 1), hook=records.append)
        assert result.accepted >= 1
        assert len(calls) == 1 + result.accepted
        rejected_increases.extend(r for r in records
                                  if not r.accepted and r.sign_before > 0)
    # the ea runs do reject feasible increases, so the demotion set is read
    assert algorithm != "ea" or rejected_increases


# -- the trap certificate --------------------------------------------------------------

def test_trapped_runs_never_succeed():
    """Quarter-step runs on random one-sided edits (n 16, m 24, d 3,
    w_max 2^10) at alpha 3 and 9, a shorter budget than the benchmark's:
    once a state of the run is certified by ``oracle.trap_edge``, the run
    fails and its final state is certified too."""
    trapped = runs = 0
    for alpha in (3, 9):
        a = canonicalize_alpha(alpha)
        for variant in ("E+", "E-", "W+", "W-"):
            for algorithm in ("rls_fifth", "ea_fifth"):
                cell = BenchCell(variant, algorithm, alpha, 3, 3_000,
                                 9_000 + 100 * alpha, n=16, m=24, d=3,
                                 w_max=2 ** 10)
                for t in range(cell.trials):
                    inst = build_instance(cell, t)
                    cfg = RunConfig(algorithm, alpha, inst.w_max,
                                    cell.budget, cell.seed + t)
                    seen = []
                    result = run(inst, cfg, hook=seen.append)
                    runs += 1
                    trap = first_trap(inst, a, seen)
                    if trap is None:
                        continue
                    trapped += 1
                    assert not result.success
                    assert result.evaluations == len(seen) == cfg.budget
                    assert trap_edge(inst.graph_star, a,
                                     result.final_coeffs) is not None
    assert runs == 48
    assert trapped >= runs // 2


def trapped_start_instance():
    """An alpha-2 maximal solution reloaded from its dump: two paths
    0-2-4 and 1-3-5 held at beta and 2 - beta, tight at 2 and 3.  Adding
    the edge 0-1 joins the two vertices of load beta, a feasible start
    whose new edge has two lifted endpoints."""
    g = WeightedGraph(6, (2,) * 6, ((0, 2), (2, 4), (1, 3), (3, 5)))
    beta, rest = (0, 1, 0, 0), (2, -1, 0, 0)
    y = parse_dual(dump_dual(DualSolution(g, 2, [beta, rest, beta, rest])), g)
    return make_dynamic(g, y.y, Edit("edges", edges=g.edges + ((0, 1),)),
                        "E+", y.alpha)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_trapped_start_never_succeeds(algorithm):
    inst = trapped_start_instance()
    g = inst.graph_star
    start = tuple(tuple(row) for row in coefficient_rows(A2, inst.y_init))
    assert trap_edge(g, A2, start) == g.edges.index((0, 1))
    cfg = RunConfig(algorithm, 2, inst.w_max, 250, 4)
    result = run(inst, cfg)
    assert result == run_reference(inst, cfg)
    assert (result.evaluations, result.success) == (250, False)
    assert trap_edge(g, A2, result.final_coeffs) is not None


# -- per-evaluation hook ----------------------------------------------------------------

def test_hook_stream_invariants():
    inst = hard_instance("W-", 2, 2)
    records = []
    cfg = RunConfig("rls", 2, inst.w_max, 2000, 3)
    result = run(inst, cfg, hook=records.append)
    assert result.success
    assert [r.eval_index for r in records] == \
        list(range(1, result.evaluations + 1))
    assert sum(r.accepted for r in records) == result.accepted
    ref = []
    run_reference(inst, cfg, hook=ref.append)
    assert records[-1].sign_after == ref[-1].sign_after == 1
    saw_decrease = False
    for r in records:
        if r.sign_before == -1 and r.accepted and r.changed:
            saw_decrease = True
            # while infeasible, accepted changes only lower values on
            # edges that had a violated endpoint
            assert all(new < old for _e, old, new in r.changed)
            assert all(r.changed_was_violating)
        if not r.accepted and r.sign_before == -1:
            assert r.demoted == ()             # plain rls never demotes here
        if not r.edges:
            assert r.accepted                  # empty proposals are no-ops
    assert saw_decrease


def test_hook_records_are_transition_records_of_tuples():
    """run builds each record with tuple.__new__, which skips the named
    tuple's arity check, and == against run_reference's stream ignores the
    subclass, so a plain tuple, or a list in a field, would pass the stream
    tests.  Every record is a nine-field TransitionRecord whose edge sets
    are tuples.  The runs reach each shape run() builds: an empty
    selection, a rejected one-edge step that demotes its edge (a fifth
    variant's, and rls's while feasible), plain ea's rejected two-edge step
    that demotes, an accepted step that changes a value, and selections of
    three or more edges.  At alpha 3 the fifth variants run on the vector
    engine."""
    cases = [(2, hard_instance("E+", 8, 2)), (2, hard_instance("W-", 8, 2)),
             (3, EQUIV_CASES[2][1])]
    shapes = Counter()
    for algorithm in ALGORITHMS:
        for alpha, inst in cases:
            cfg = RunConfig(algorithm, alpha, inst.w_max, 400, 1)
            if alpha == 3 and algorithm.endswith("fifth"):
                assert type(_make_engine(inst, cfg)) is _VecEngine
            records = []
            run(inst, cfg, hook=records.append)
            for r in records:
                assert type(r) is TransitionRecord and len(r) == 9
                assert all(type(x) is tuple for x in (
                    r.edges, r.changed, r.changed_was_violating, r.demoted))
                k = len(r.edges)
                if not r.accepted and r.demoted and r.demoted == r.edges:
                    if algorithm.endswith("fifth") and k == 1:
                        shapes["fifth one-edge demotion"] += 1
                    elif algorithm == "rls" and r.sign_before > 0:
                        shapes["rls feasible demotion"] += 1
                if algorithm == "ea" and k == 2 and r.demoted:
                    shapes["ea two-edge demotion"] += 1
                shapes["empty"] += k == 0
                shapes["three or more edges"] += k >= 3
                shapes["accepted change"] += r.accepted and bool(r.changed)
    assert len(shapes) == 6 and min(shapes.values()) >= 1, shapes


def test_hook_fifth_demotes_selection_on_reject():
    inst = hard_instance("E+", 2, 2)
    records = []
    run(inst, RunConfig("ea_fifth", 2, inst.w_max, 300, 5),
        hook=records.append)
    rejected = [r for r in records if not r.accepted]
    assert rejected
    assert all(r.demoted == r.edges for r in rejected)
