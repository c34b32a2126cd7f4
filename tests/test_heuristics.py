"""Search heuristics: proposals, adaptation, engine vs reference replay."""

import random
import statistics
from collections import Counter
from fractions import Fraction

import pytest

from dualvc import heuristics, oracle
from dualvc.dual import DualSolution, dump_dual, parse_dual
from dualvc.graph import Edit, WeightedGraph
from dualvc.harness import BenchCell, build_instance
from dualvc.heuristics import (ALGORITHMS, RunConfig, _binomial_cdf,
                               _decide_increase, _i_prime_from,
                               _increase_one, _IntEngine,
                               _reference_step, _VecEngine, draw_direction,
                               draw_ea_selection, draw_rls_selection, run,
                               run_reference)
from dualvc.instances import (hard_instance, make_dynamic, random_dynamic)
from dualvc.numeric import (canonicalize_alpha, q_max_for, sign_of_coeffs,
                            step_coeffs)
from dualvc.oracle import (coefficient_rows, cover_certificate, trap_edge,
                           validate_mfds_naive)
from engine_decisions import engine_agrees
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

@pytest.mark.parametrize("m", [3, 5, 9, 17, 33])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_draws_match_draw_replay(algorithm, m):
    """run() draws inline; each hook record's direction and edges equal
    the draw_* replay of the same seed, the fifth variants' direction bit
    before the selection.  Sizes just past a power of two make
    getrandbits reject often, and ea selects two or more edges."""
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
    assert algorithm.startswith("rls") or max(sizes) >= 2


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

def assert_i_prime(g, values, selection, expected):
    """Both the reference step and the engine demote exactly `expected`
    when the ea increase of `selection` at q = 0 is rejected."""
    q_cap = q_max_for(2, g.max_weight())
    q = [0] * g.m
    _y, accepted, demoted = _reference_step(
        g, RunConfig("ea", 2, g.max_weight(), 1, 0), rows(values), 1, q,
        selection, 1)
    assert not accepted
    assert set(demoted) == expected
    eng = _IntEngine(g, values, g.max_weight(), A2, q_cap)
    accept, _deltas, over = _decide_increase(eng, selection, [0] * g.m)
    assert not accept
    assert set(_i_prime_from(eng, selection, over)) == expected


def test_i_prime_disjoint_edges_both_demotable():
    g = WeightedGraph(4, (1, 1, 1, 1), ((0, 1), (2, 3)))
    assert_i_prime(g, (1, 1), [0, 1], {0, 1})          # both raised to 2


def test_i_prime_shared_violated_vertex_excluded():
    g = WeightedGraph(3, (2, 1, 1), ((0, 1), (0, 2)))
    assert_i_prime(g, (1, 1), [0, 1], set())           # both raised to 2


def test_i_prime_mixed():
    # star plus a detached edge: only the detached edge demotes
    g = WeightedGraph(5, (1, 1, 1, 1, 1), ((0, 1), (0, 2), (3, 4)))
    assert_i_prime(g, (0, 0, 1), [0, 2], {2})          # raised to 1 and 2


# -- the engines' incremental counters ----------------------------------------------

def test_engine_counters_match_the_certificate_after_random_commits():
    """Both engines' slack signs, violated count, untight-edge count and
    maximality equal a from-scratch cover certificate after every commit of
    1-3 random values, on small random graphs where commits often flip both
    endpoints of an edge between tight and not tight at once."""
    rng = random.Random(18)
    q_cap = q_max_for(A2, 4)
    both_flipped = 0
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
                both_flipped += sum(
                    1 for u, v in g.edges
                    if tight_before[u] != (cert.slack[u] == 0)
                    and tight_before[v] != (cert.slack[v] == 0))
    assert both_flipped >= 1000


# -- the vector engine's float filter -----------------------------------------------

@pytest.mark.parametrize("alpha", [2, 9])
def test_vector_engine_float_filter_is_exact(alpha):
    """The vector engine's load signs and overload tests, filtered through
    floats, equal the exact sign: on gaps from 0.2 down to far below float
    resolution, on tight loads, and on loads beyond the float range."""
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
                    if step is None:
                        continue
                    q = [step]
                    over = eng.overloads(0, eng.step_size[step], [0], q)
                    assert over == (s > 0)
                    checked += 1
    assert checked == 2 * 8 * 3 * 2
    huge = 2 ** 1100
    for row in ([huge] + [0] * (dim - 1), [-huge, huge] + [0] * (dim - 2),
                [huge, -huge] + [0] * (dim - 2)):
        eng = _VecEngine(g, [tuple(row)], 2 ** 10, a, q_cap)
        exact = sign_of_coeffs([row[0] - g.weights[0]] + row[1:], a)
        assert eng.slack == [exact, exact]
        raised = [x + c for x, c in zip(row, step_coeffs(1, a))]
        raised[0] -= g.weights[0]
        assert eng.overloads(0, eng.step_size[1], [0], [1]) == \
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
        assert eng.overloads(0, eng.step_size[step], [0], [step]) == \
            (sign_of_coeffs(raised, a) > 0)


# -- one-edge increases at exact ties --------------------------------------------------

@pytest.mark.parametrize("alpha", [2, 9, 16])
def test_one_edge_increase_at_exact_ties(alpha, monkeypatch):
    """A feasible one-edge increase is decided as reference_fitness decides
    it, on both engines, where the step fills an endpoint exactly, exceeds
    its weight by the smallest coefficient step or falls short by it, and
    (on the vector engine at degrees 4 and 2) misses the weight by a gap
    far below float resolution.  The vector engine's float gap at such a
    tie is inside _FLOAT_TOL, so the exact sign decides it.  run() decides
    it through _increase_one; _decide_increase, which run() sends larger
    selections, agrees.  A rejected one is demoted as ea demotes it: the
    edge alone, as _reference_step and _i_prime_from demote it."""
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
            values = [3, y1]
            engines = [_VecEngine(g, values, w, a, q_cap)]
            if not any(y1[1:]) and not any(s[1:]):
                values = [3, y1[0]]
                engines.append(_IntEngine(g, values, w, a, q_cap))
            for eng in engines:
                assert eng.sign_now() > 0
                assert engine_agrees(eng, values, q, [0], 1, alpha=a)
                del exact_calls[:]
                accept = _increase_one(eng, [0], q) is not None
                tie = not any(nudge) or nudge in nudges[3:]
                if isinstance(eng, _VecEngine) and tie:
                    assert exact_calls, (qs, nudge)
                general, _deltas, over = _decide_increase(eng, [0], q)
                assert general == accept
                outcomes[type(eng).__name__, accept] += 1
                if accept:
                    continue
                assert over == [1]
                assert _i_prime_from(eng, [0], over) == [0]
                _y, accepted, demoted = _reference_step(
                    g, RunConfig("ea", alpha, w, 1, 0),
                    coefficient_rows(a, values), 1, list(q), [0], 1)
                assert not accepted and demoted == (0,)
    assert min(outcomes.values()) >= 3
    assert len(outcomes) == 4


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
    cfg = RunConfig("rls", 2, 1, 100, 0)
    result = run(inst, cfg)
    assert result.success and result.evaluations == 0
    assert result.final_coeffs == ()
    assert run_reference(inst, cfg) == result


def test_run_is_deterministic():
    inst = hard_instance("E+", 3, 2)
    cfg = RunConfig("ea", 2, 8, 500, 42)
    assert run(inst, cfg) == run(inst, cfg)


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


def test_hook_fifth_demotes_selection_on_reject():
    inst = hard_instance("E+", 2, 2)
    records = []
    run(inst, RunConfig("ea_fifth", 2, inst.w_max, 300, 5),
        hook=records.append)
    rejected = [r for r in records if not r.accepted]
    assert rejected
    assert all(r.demoted == r.edges for r in rejected)
