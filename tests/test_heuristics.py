"""Search heuristics: proposals, adaptation, engines vs the reference path."""

import random
import statistics
from fractions import Fraction

import pytest

from dualvc.dual import DualSolution, dump_dual, parse_dual
from dualvc.graph import Edit, WeightedGraph
from dualvc.heuristics import (ALGORITHMS, PROPOSERS, MutationRecord,
                               RunConfig, StepState, _binomial_cdf,
                               compute_i_prime, draw_direction,
                               draw_ea_selection, draw_rls_selection,
                               propose_ea, propose_rls_fifth, run,
                               run_reference, select_and_adapt)
from dualvc.instances import (hard_instance, make_dynamic, random_dynamic)
from dualvc.numeric import RadicalValue, canonicalize_alpha, q_max_for

A2 = canonicalize_alpha(2)


def rv(x):
    return RadicalValue.from_rational(A2, x)


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
    assert set(PROPOSERS) == set(ALGORITHMS)


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


# -- step state -------------------------------------------------------------------

def test_step_state_fresh():
    steps = StepState.fresh(3, 2, 256)
    assert steps.q == [0, 0, 0]
    assert steps.q_max == q_max_for(2, 256) == 36
    assert steps.sigma(0).as_fraction() == 1
    steps.q[1] = 8
    assert steps.sigma(1).as_fraction() == 4


# -- proposal draw order ------------------------------------------------------------

def test_fifth_proposals_draw_direction_before_selection():
    g = WeightedGraph(6, (4,) * 6, ((0, 1), (2, 3), (4, 5)))
    y = DualSolution(g, 2)
    steps = StepState.fresh(g.m, 2, 4)
    for seed in range(20):
        rec = propose_rls_fifth(y, steps, random.Random(seed))
        ref = random.Random(seed)
        assert rec.direction == draw_direction(ref)
        assert list(rec.edges) == draw_rls_selection(ref, g.m)


def test_plain_proposals_use_solution_sign_as_direction():
    g = WeightedGraph(2, (2, 2), ((0, 1),))
    feas = DualSolution.from_ints(g, 2, (1,))
    rec = propose_ea(feas, StepState.fresh(1, 2, 2), random.Random(0))
    assert rec.direction == 1
    infeas = DualSolution.from_ints(g, 2, (3,))
    rec = propose_ea(infeas, StepState.fresh(1, 2, 2), random.Random(0))
    assert rec.direction == -1


def test_proposal_clamps_decreases_at_zero():
    g = WeightedGraph(2, (2, 2), ((0, 1),))
    y = DualSolution.from_ints(g, 2, (3,))   # infeasible: direction -1
    steps = StepState.fresh(1, 2, 4)
    steps.q[0] = 8                            # sigma = 4 > current value
    rec = propose_ea(y, steps, random.Random(1))
    (e, old, new) = rec.changes[0]
    assert old.as_fraction() == 3 and new.is_zero()


# -- the rejected-increase demotion set ----------------------------------------------

def test_i_prime_disjoint_edges_both_demotable():
    g = WeightedGraph(4, (1, 1, 1, 1), ((0, 1), (2, 3)))
    y = DualSolution.from_ints(g, 2, (1, 1))
    yp = DualSolution.from_ints(g, 2, (2, 2))
    rec = MutationRecord("ea", (0, 1), 1, ())
    assert compute_i_prime(y, rec, yp) == frozenset({0, 1})


def test_i_prime_shared_violated_vertex_excluded():
    g = WeightedGraph(3, (2, 1, 1), ((0, 1), (0, 2)))
    y = DualSolution.from_ints(g, 2, (1, 1))
    yp = DualSolution.from_ints(g, 2, (2, 2))
    rec = MutationRecord("ea", (0, 1), 1, ())
    assert compute_i_prime(y, rec, yp) == frozenset()


def test_i_prime_mixed():
    # star plus a detached edge: only the detached edge demotes
    g = WeightedGraph(5, (1, 1, 1, 1, 1), ((0, 1), (0, 2), (3, 4)))
    y = DualSolution.from_ints(g, 2, (0, 0, 1))
    yp = DualSolution.from_ints(g, 2, (1, 0, 2))   # raised edges 0 and 2
    rec = MutationRecord("ea", (0, 2), 1, ())
    assert compute_i_prime(y, rec, yp) == frozenset({2})


# -- one evaluation of select_and_adapt ----------------------------------------------

def make_record(algo, y, pairs, direction=1):
    changes = tuple((e, y.y[e], rv(new)) for e, new in pairs)
    return MutationRecord(algo, tuple(e for e, _ in pairs), direction,
                          changes)


def test_accept_promotes_all_selected_capped():
    g = WeightedGraph(2, (2, 2), ((0, 1),))
    y = DualSolution.from_ints(g, 2, (2,))
    steps = StepState.fresh(1, 2, 2)          # q_max = 8
    steps.q[0] = 7
    rec = make_record("rls_fifth", y, [(0, 2)], direction=-1)  # no-op
    y2, steps, accepted = select_and_adapt(y, steps, rec)
    assert accepted and rec.accepted
    assert steps.q == [8]                      # 7 + 4 capped at 8
    assert rec.demoted == ()


def test_reject_ea_demotes_i_prime_only():
    g = WeightedGraph(5, (1, 1, 1, 1, 1), ((0, 1), (0, 2), (3, 4)))
    y = DualSolution.from_ints(g, 2, (0, 0, 1))
    steps = StepState.fresh(3, 2, 4)
    steps.q[:] = [3, 3, 5]
    rec = make_record("ea", y, [(0, 1), (2, 2)])
    _, steps, accepted = select_and_adapt(y, steps, rec)
    assert not accepted and rec.accepted is False
    assert steps.q == [3, 3, 1]                # only edge 2 demoted, by 4
    assert rec.demoted == (2,)


def test_reject_rls_demotes_chosen_edge_floored():
    g = WeightedGraph(2, (1, 1), ((0, 1),))
    y = DualSolution.from_ints(g, 2, (1,))
    steps = StepState.fresh(1, 2, 1)
    steps.q[0] = 2
    rec = make_record("rls", y, [(0, 2)])
    _, steps, accepted = select_and_adapt(y, steps, rec)
    assert not accepted
    assert steps.q == [0]                      # 2 - 4 floored at 0
    assert rec.demoted == (0,)


def test_reject_plain_never_demotes_while_infeasible():
    g = WeightedGraph(4, (1, 1, 5, 5), ((0, 1), (2, 3)))
    y = DualSolution.from_ints(g, 2, (2, 1))   # vertices 0, 1 overloaded
    steps = StepState.fresh(2, 2, 5)
    steps.q[:] = [6, 6]
    rec = make_record("rls", y, [(1, 0)], direction=-1)  # off-edge decrease
    _, steps, accepted = select_and_adapt(y, steps, rec)
    assert not accepted
    assert steps.q == [6, 6] and rec.demoted == ()


def test_reject_fifth_demotes_quarter_step_unconditionally():
    g = WeightedGraph(4, (1, 1, 5, 5), ((0, 1), (2, 3)))
    y = DualSolution.from_ints(g, 2, (2, 1))
    steps = StepState.fresh(2, 2, 5)
    steps.q[:] = [6, 3]
    rec = make_record("rls_fifth", y, [(1, 0)], direction=-1)
    _, steps, accepted = select_and_adapt(y, steps, rec)
    assert not accepted
    assert steps.q == [6, 2] and rec.demoted == (1,)
    # same while feasible
    yf = DualSolution.from_ints(WeightedGraph(2, (2, 2), ((0, 1),)), 2, (2,))
    sf = StepState.fresh(1, 2, 2)
    rec2 = make_record("ea_fifth", yf, [(0, 3)])
    _, sf, acc2 = select_and_adapt(yf, sf, rec2)
    assert not acc2 and sf.q == [0]            # 0 - 1 floored at 0
    assert rec2.demoted == (0,)


def test_accepted_decrease_while_infeasible():
    g = WeightedGraph(2, (1, 1), ((0, 1),))
    y = DualSolution.from_ints(g, 2, (3,))
    steps = StepState.fresh(1, 2, 1)
    rec = make_record("rls", y, [(0, 2)], direction=-1)
    y2, steps, accepted = select_and_adapt(y, steps, rec)
    assert accepted
    assert y2.y[0].as_fraction() == 2
    assert steps.q == [4]                      # accepts always promote


# -- whole runs -----------------------------------------------------------------------

def test_rls_single_edge_deterministic_three_evaluations():
    # 0 -> 1 (accept, q to 4), 1 + 2 overloads (reject, q back to 0),
    # 1 -> 2 tight (accept): exactly 3 evaluations for every seed
    for seed in range(10):
        result = run(edge_growth_unit((2, 2)),
                     RunConfig("rls", 2, 2, 50, seed))
        assert result.success
        assert result.evaluations == 3
        assert result.accepted == 2
        assert result.final_coeffs == ((2, 0, 0, 0),)
        assert result.final_sign == 1


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
    result = run(inst, RunConfig("rls", 2, 2 ** 30, 35, 1,
                                 checkpoint_every=10))
    assert not result.success
    assert result.evaluations == 35
    assert [c.evaluations for c in result.trajectory] == [10, 20, 30, 35]


def test_checkpoint_cadence_no_duplicate_tail():
    inst = edge_growth_unit((2 ** 30, 2 ** 30))
    result = run(inst, RunConfig("rls", 2, 2 ** 30, 30, 1,
                                 checkpoint_every=10))
    assert [c.evaluations for c in result.trajectory] == [10, 20, 30]


def test_already_maximal_start_needs_no_evaluations():
    g = WeightedGraph(2, (1, 1), ((0, 1),))
    inst = make_dynamic(g, (1,), Edit("weights", weights=(1, 2)), "W+")
    result = run(inst, RunConfig("rls", 2, 2, 100, 0))
    assert result.success and result.evaluations == 0
    assert result.accepted == 0
    assert len(result.trajectory) == 1
    assert result.trajectory[0].evaluations == 0


def test_emptied_graph_is_trivially_maximal():
    g = WeightedGraph(2, (1, 1), ((0, 1),))
    inst = make_dynamic(g, (1,), Edit("edges", edges=()), "E-")
    result = run(inst, RunConfig("rls", 2, 1, 100, 0))
    assert result.success and result.evaluations == 0
    assert result.final_coeffs == ()


def test_run_is_deterministic():
    inst = hard_instance("E+", 3, 2)
    cfg = RunConfig("ea", 2, 8, 500, 42)
    assert run(inst, cfg) == run(inst, cfg)


def fraction_start_instance():
    """A 5-cycle held at half its vertex weights (alpha 9), reloaded from
    its dump, then hit by a mixed weight edit."""
    g = WeightedGraph(5, (11,) * 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    y = DualSolution.from_coeffs(g, 9, [(Fraction(11, 2), 0)] * 5)
    y = parse_dual(dump_dual(y), g)
    assert all(v.coeffs == (Fraction(11, 2), 0) for v in y.y)
    return make_dynamic(g, y.y, Edit("weights", weights=(9, 11, 13, 11, 11)),
                        "W")


# (alpha, instance): field degree 4 (alpha 2), 2 (alpha 9) and 1 (alpha 16)
EQUIV_CASES = [
    (2, hard_instance("E+", 3, 2)),
    (2, hard_instance("W-", 2, 2)),
    (2, random_dynamic("E", 8, 10, 2, 8, seed=5)),
    (2, random_dynamic("W", 8, 10, 3, 8, seed=7)),
    (9, hard_instance("E+", 2, 9)),
    (9, random_dynamic("W", 8, 10, 3, 64, seed=7)),
    (9, fraction_start_instance()),
    (16, hard_instance("W-", 2, 16)),
    (16, random_dynamic("E", 8, 10, 2, 64, seed=3)),
]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_engine_matches_reference_path(algorithm):
    for alpha, inst in EQUIV_CASES:
        for seed in (1, 2):
            cfg = RunConfig(algorithm, alpha, inst.w_max, 400, seed,
                            checkpoint_every=64)
            fast = run(inst, cfg)
            slow = run_reference(inst, cfg)
            assert fast == slow


def test_engine_matches_reference_alpha_three():
    inst = hard_instance("W+", 2, 3)
    for algorithm in ALGORITHMS:
        cfg = RunConfig(algorithm, 3, inst.w_max, 300, 9)
        assert run(inst, cfg) == run_reference(inst, cfg)


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
    assert records[-1].sign_after == result.final_sign
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
