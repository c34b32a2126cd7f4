"""Benchmark plans, CSV I/O, the scaling report, and the CLI commands."""

import dataclasses
import io
import json
import math
import os
from fractions import Fraction

import pytest

from dualvc import harness
from dualvc.cli import main as cli_main
from dualvc.dual import DualSolution, dump_dual
from dualvc.graph import Edit, WeightedGraph, load_instance, save_instance
from dualvc.harness import (CSV_HEADER, SOLVE_HEADER, BenchCell, BenchPlan,
                            BenchRecord, RunLogger, bound_shape,
                            build_instance, contrast_bound, decode_wmax,
                            encode_wmax, execute_plan, format_scaling_report,
                            load_plan, plan_from_json, read_records,
                            run_trial, scaling_plan, scaling_report,
                            summarize, thread_count, verify_final)
from dualvc.heuristics import (ALGORITHMS, RunConfig, _VecEngine, run,
                               run_reference)
from dualvc.instances import hard_instance, make_dynamic, random_dynamic
from dualvc.numeric import canonicalize_alpha, q_max_for, sign_of_coeffs
from dualvc.oracle import coefficient_rows, validate_mfds_naive


def cell(**kw):
    base = dict(variant="E", algorithm="rls", alpha=2, trials=2, budget=5000,
                seed=100, kind="random", n=8, m=10, d=2, w_max=8)
    base.update(kw)
    return BenchCell(**base)


# -- plan model -----------------------------------------------------------------

def test_cell_validation(tmp_path, capsys):
    cell()
    cell(kind="hard", variant="E+", m=3)
    # a cell checks its own fields only
    for kw in (dict(kind="soft"), dict(trials=0), dict(m=0), dict(n=1),
               dict(d=0)):
        with pytest.raises(ValueError):
            cell(**kw)
    # the rest is checked at plan load, by building every trial of each cell
    good = dict(variant="E", algorithm="rls", alpha=2, trials=1, budget=10,
                seed=1, n=8, m=10, d=2, w_max=8)
    # loadable at the edges of every bound; unit weights admit any alpha
    for kw in (dict(n=4, m=6, d=5, variant="E-"),
               dict(n=4, m=5, d=1, variant="E+"),
               dict(w_max=2, variant="W"),
               dict(alpha=16, w_max=16),
               dict(alpha=16, w_max=1),
               dict(kind="hard", variant="E+", m=2)):
        plan_from_json({"cells": [dict(good, **kw)]})
    hard = dict(good, kind="hard", variant="E+", m=3)
    unbuildable = [
        (dict(good, variant="X"), "unknown variant 'X'"),
        (dict(good, algorithm="annealing"), "algorithm must be one of"),
        (dict(hard, variant="E"),                 # mixed family: no hard form
         "variant must be one of ('E+', 'E-', 'W+', 'W-')"),
        (dict(good, budget=0), "budget must be >= 1"),
        (dict(good, alpha=1), "alpha must be >= 2"),
        (dict(hard, alpha=1), "alpha must be an integer >= 2, got 1"),
        (dict(hard, m=1), "need m >= 2, got 1"),
        (dict(good, n=4, m=10), "m=10 exceeds the 6 vertex pairs"),
        (dict(good, n=4, m=6, d=1, variant="E+"),
         "the last: cannot draw an edit of variant 'E+' with d=1"),
        (dict(good, m=2, d=3, variant="E-"),
         "the last: cannot draw an edit of variant 'E-' with d=3"),
        (dict(good, w_max=1, variant="W+"),
         "the last: cannot draw an edit of variant 'W+' with d=2"),
        (dict(good, w_max=1, variant="W-"),
         "the last: cannot draw an edit of variant 'W-' with d=2"),
        (dict(good, w_max=1, variant="W"),
         "the last: cannot draw an edit of variant 'W' with d=2"),
        (dict(good, alpha=16, w_max=8), "alpha=16 exceeds w_max=8"),
        # an all-unit draw (1 in 8 here) would admit alpha=4
        (dict(good, n=3, m=3, d=1, variant="E-", w_max=2, alpha=4),
         "alpha=4 exceeds w_max=2"),
        # deleting every edge leaves the empty solution maximal
        (dict(good, n=3, m=3, d=3, variant="E-"),
         "the last: the edit leaves the carried solution maximal"),
        # trial 0 builds; trial 11 exhausts its draws
        (dict(good, n=4, m=3, d=4, variant="W-", w_max=2, trials=12),
         "trial 11: none of 65 draws builds an instance; the last: cannot "
         "draw an edit of variant 'W-' with d=4: weights leave no room"),
    ]
    # the plan fails to load, before any trial runs or any CSV is opened,
    # even when a good cell comes first
    for bad, message in unbuildable:
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"cells": [good, bad]}))
        out = tmp_path / "rows.csv"
        assert cli_main(["bench", "--config", str(plan),
                         "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_plan_validation_and_json():
    with pytest.raises(ValueError):
        BenchPlan(())
    plan = plan_from_json({"cells": [dict(
        variant="E", algorithm="rls", alpha=2, trials=1, budget=10,
        seed=1, n=4, m=3, d=1, w_max=4)], "out": "x.csv"})
    assert plan.out == "x.csv"
    assert plan.cells[0].m == 3
    with pytest.raises(ValueError):
        plan_from_json({"cells": [dict(
            variant="E", algorithm="rls", alpha=2, trials=1, budget=10,
            seed=1, n=4, m=3, d=1, w_max=4, color="red")]})


def test_plan_from_json_rejects_malformed_cells_with_value_error():
    good = dict(variant="E", algorithm="rls", alpha=2, trials=1, budget=10,
                seed=1, n=4, m=3, d=1, w_max=4)
    plan_from_json({"cells": [good]})
    with pytest.raises(ValueError, match="missing cell keys"):
        plan_from_json({"cells": [{"variant": "E"}]})
    for bad in ({"cells": [dict(good, trials="3")]},    # not an integer
                {"cells": [3]},                         # not an object
                {"cells": {"variant": "E"}},            # not a list
                {"cells": [good], "out": 5},            # path not a string
                [good]):                                # plan not an object
        with pytest.raises(ValueError):
            plan_from_json(bad)


def test_load_plan(tmp_path):
    p = tmp_path / "plan.json"
    p.write_text(json.dumps({"cells": [dict(
        variant="W", algorithm="ea", alpha=2, trials=2, budget=99,
        seed=7, n=4, m=3, d=1, w_max=4)]}))
    plan = load_plan(str(p))
    assert plan.cells[0].algorithm == "ea"
    assert plan.out == "results.csv"


# -- wmax encoding -----------------------------------------------------------------

def test_wmax_encoding():
    assert encode_wmax(16384, 2) == "16384"
    assert decode_wmax("16384") == 16384
    big = 2 ** 100
    assert encode_wmax(big, 2) == "2^100"
    assert decode_wmax("2^100") == big
    assert encode_wmax(3 ** 64, 3) == "3^64"
    # large non-powers stay decimal
    assert encode_wmax(big + 1, 2) == str(big + 1)
    assert decode_wmax(str(big + 1)) == big + 1


def test_record_csv_row():
    rec = BenchRecord("E+", "rls", 8, 1, 2, 2 ** 70, 42, 123, True, 1.5)
    assert rec.row_prefix() == "E+,rls,8,1,2,2^70,42,123,1"
    assert rec.to_csv() == "E+,rls,8,1,2,2^70,42,123,1,1.500"


# -- instances and trials ------------------------------------------------------------

def test_build_instance_hard_matches_generator():
    c = cell(kind="hard", variant="E+", m=3)
    inst = build_instance(c, 0)
    ref = hard_instance("E+", 3, 2)
    assert inst.graph_star == ref.graph_star
    assert inst.y_init == ref.y_init


def test_build_instance_random_is_deterministic_and_invalidated():
    c = cell()
    a = build_instance(c, 0)
    b = build_instance(c, 0)
    assert a.graph == b.graph and a.edit == b.edit
    other = build_instance(c, 1)
    assert (a.graph, a.edit) != (other.graph, other.edit)
    # the defining property: the carried values are NOT maximal after the
    # edit, so every trial exercises the heuristic
    for trial in range(6):
        inst = build_instance(c, trial)
        assert not validate_mfds_naive(inst.graph_star, inst.y_init)


def write_plan(tmp_path, c):
    """A plan file holding the random cell `c` alone."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"cells": [
        {k: getattr(c, k) for k in ("variant", "algorithm", "alpha",
                                    "trials", "budget", "seed", "n", "m",
                                    "d", "w_max")}]}))
    return plan


@pytest.mark.parametrize("shape", [dict(variant="E", n=4, m=6, d=1),
                                   dict(variant="W", n=4, m=3, d=4,
                                        w_max=2)])
def test_build_instance_redraws_two_sided_edits_that_do_not_fit(
        shape, tmp_path):
    """The complete graph K4 has no free pair for an added edge, and four
    weights in {1, 2} fit a four-vertex W edit only when the raised count
    equals the count of unit weights.  Each trial redraws past the edits
    that do not fit, so every trial builds and the bench plan runs."""
    c = cell(trials=8, **shape)
    for trial in range(c.trials):
        inst = build_instance(c, trial)
        assert inst.requested == c.variant and inst.d_scale == c.d
        assert not validate_mfds_naive(inst.graph_star, inst.y_init)
    plan = write_plan(tmp_path, c)
    out = tmp_path / "rows.csv"
    assert cli_main(["bench", "--config", str(plan), "--out", str(out)]) == 0
    assert len(read_records(str(out))) == c.trials


def test_build_instance_redraws_weights_below_alpha(tmp_path):
    """Six weights uniform on 1..16 often top out below alpha = 16, which
    the run rejects.  Each trial redraws past such weights, so every trial
    builds and the bench plan runs."""
    c = cell(variant="E", alpha=16, trials=8, seed=1, n=6, m=6, d=1,
             w_max=16)
    for trial in range(c.trials):
        assert build_instance(c, trial).w_max == 16
    plan = write_plan(tmp_path, c)
    out = tmp_path / "rows.csv"
    assert cli_main(["bench", "--config", str(plan), "--out", str(out)]) == 0
    assert len(read_records(str(out))) == c.trials


def test_build_instance_raises_when_no_draw_invalidates_the_start(tmp_path,
                                                                   capsys):
    # every E- edit of a one-edge graph deletes that edge, and the empty
    # solution of the edgeless graph is maximal, so no redraw helps
    c = cell(variant="E-", n=2, m=1, d=1, trials=1)
    message = ("trial 0: none of 65 draws builds an instance; the last: "
               "the edit leaves the carried solution maximal")
    with pytest.raises(ValueError, match=message):
        build_instance(c, 0)
    plan = write_plan(tmp_path, c)
    out = tmp_path / "rows.csv"
    assert cli_main(["bench", "--config", str(plan), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()                 # the plan fails to load


def test_run_trial_records_requested_parameters():
    c = cell(trials=1)
    rec = run_trial(c, 0)
    assert rec.m == c.m and rec.wmax == c.w_max
    assert rec.seed == c.seed
    assert rec.variant == "E" and rec.algorithm == "rls"
    assert rec.success
    hard = cell(kind="hard", variant="E+", m=3, budget=10 ** 5)
    hrec = run_trial(hard, 2)
    assert hrec.m == 3 and hrec.wmax == 8    # alpha**m
    assert hrec.seed == hard.seed + 2


def test_verify_final_accepts_and_rejects():
    inst = hard_instance("E+", 2, 2)
    cfg = RunConfig("rls", 2, inst.w_max, 10 ** 4, 11)
    result = run(inst, cfg)
    assert result.success
    verify_final(inst, 2, result.final_coeffs)
    # corrupting the reported solution must be caught
    bad = ((0, 0, 0, 0),) * inst.graph_star.m
    with pytest.raises(RuntimeError):
        verify_final(inst, 2, bad)


def test_verify_final_rejects_negative_values_and_wrong_shapes():
    # unit triangle: [2, -1, -1] overloads no vertex and leaves every edge
    # a tight endpoint, but it is no dual solution
    g = WeightedGraph(3, (1, 1, 1), ((0, 1), (1, 2), (0, 2)))
    inst = make_dynamic(g, (1, 0, 0), Edit("weights", weights=(1, 1, 1)),
                        "W")
    verify_final(inst, 2, ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    for rows in (((2, 0, 0, 0), (-1, 0, 0, 0), (-1, 0, 0, 0)),   # negative
                 ((1, 0, 0, 0), (0, 0, 0, 0)),                   # row missing
                 ((1, 0), (0, 0), (0, 0))):                      # wrong dim
        with pytest.raises(RuntimeError):
            verify_final(inst, 2, rows)
    # path 2-0-1-3 with y(0,1) = -1 passes every check but the sign one
    path = WeightedGraph(4, (1, 1, 3, 3), ((0, 1), (0, 2), (1, 3)))
    inst = make_dynamic(path, (0, 1, 1), Edit("weights", weights=(1, 1, 3, 3)),
                        "W")
    verify_final(inst, 2, ((0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)))
    with pytest.raises(RuntimeError, match="negative"):
        verify_final(inst, 2, ((-1, 0, 0, 0), (2, 0, 0, 0), (2, 0, 0, 0)))


def fraction_success():
    """A run from half-weight Fraction values on a 5-cycle (alpha 9) that
    ends maximal with Fraction coefficients."""
    g = WeightedGraph(5, (11,) * 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    y0 = DualSolution(g, 9, [(Fraction(11, 2), 0)] * 5)
    inst = make_dynamic(g, y0.y, Edit("weights", weights=(9, 11, 13, 11, 11)),
                        "W", y0.alpha)
    return inst, RunConfig("rls", 9, inst.w_max, 400, 1)


# (instance seed, algorithm, alpha, run seed) on small random W- instances:
# successes at field degree 4 (alpha 2, 3), 2 (alpha 9) and 1 (alpha 16)
DIFFERENTIAL_RUNS = [(3, "ea_fifth", 2, 3), (3, "ea_fifth", 3, 3),
                     (20, "ea_fifth", 9, 20), (1, "rls_fifth", 16, 1)]


def differential_successes():
    for inst_seed, algorithm, alpha, seed in DIFFERENTIAL_RUNS:
        inst = random_dynamic("W-", 6, 7, 2, 32, seed=inst_seed)
        yield inst, RunConfig(algorithm, alpha, inst.w_max, 5000, seed)
    yield fraction_success()


def reference_accepts(inst, alpha, rows):
    """A partner that shares no check with the oracle's certificate:
    DualSolution's sign validation, the vector engine's maximality
    counters, and the weight of the engine's tight vertices against twice
    the value sum."""
    a = canonicalize_alpha(alpha)
    try:
        y = DualSolution(inst.graph_star, a, rows)
    except ValueError:          # negative value or wrong row count
        return False
    eng = _VecEngine(inst.graph_star, y.y, inst.w_max, a,
                     q_max_for(a, inst.w_max))
    if not eng.is_mfds():
        return False
    two_sum = [2 * sum(col) for col in zip(*eng.y)]
    two_sum[0] -= sum(w for w, s in zip(eng.weights, eng.slack) if s == 0)
    return sign_of_coeffs(two_sum, a) >= 0


def corruptions(inst, alpha, rows):
    """Raise one value past feasibility, halve one positive value (its edge
    loses both tight endpoints), negate one, drop one row."""
    a = canonicalize_alpha(alpha)
    e = next(i for i, row in enumerate(rows)
             if sign_of_coeffs(row, a) > 0)

    def with_row(row):
        return rows[:e] + (tuple(row),) + rows[e + 1:]

    return {"raised": with_row((rows[e][0] + inst.w_max + 1,) + rows[e][1:]),
            "lowered": with_row(Fraction(c) / 2 for c in rows[e]),
            "negated": with_row(-c for c in rows[e]),
            "dropped": rows[:-1]}


def test_verify_final_agrees_with_an_independent_partner():
    degrees = set()
    saw_fraction = False
    for inst, cfg in differential_successes():
        result = run(inst, cfg)
        assert result.success and result.evaluations > 0
        rows = result.final_coeffs
        degrees.add(canonicalize_alpha(cfg.alpha).basis_dim)
        saw_fraction |= any(isinstance(c, Fraction) and c.denominator > 1
                            for row in rows for c in row)
        assert reference_accepts(inst, cfg.alpha, rows)
        verify_final(inst, cfg.alpha, rows)
        for name, bad in corruptions(inst, cfg.alpha, rows).items():
            assert not reference_accepts(inst, cfg.alpha, bad), name
            with pytest.raises(RuntimeError):
                verify_final(inst, cfg.alpha, bad)
    assert degrees == {1, 2, 4} and saw_fraction


# -- plan execution ------------------------------------------------------------------

def plan_small():
    return BenchPlan((cell(trials=3),
                      cell(algorithm="ea", variant="W", seed=500, trials=3)))


def test_execute_plan_csv_and_read_back(tmp_path):
    plan = plan_small()
    buf = io.StringIO()
    records = execute_plan(plan, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(records) == 6
    assert sum(1 for ln in lines if ln.startswith("#")) >= 3
    path = tmp_path / "r.csv"
    path.write_text(text)
    back = read_records(str(path))
    assert [r.row_prefix() for r in back] == \
        [r.row_prefix() for r in records]


def test_summarize_lines():
    plan = plan_small()
    records = execute_plan(plan, io.StringIO())
    lines = summarize(plan, records)
    assert lines[0] == "# summary"
    assert len(lines) == 3
    assert "success_rate=" in lines[1] and "median_evals=" in lines[1]
    assert "algorithm=ea" in lines[2]


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("DUALVC_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("DUALVC_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("DUALVC_THREADS", "zero")
    with pytest.raises(ValueError):
        thread_count()
    monkeypatch.setenv("DUALVC_THREADS", "0")
    with pytest.raises(ValueError):
        thread_count()


def test_parallel_execution_matches_sequential(monkeypatch):
    plan = BenchPlan((cell(trials=2), cell(algorithm="ea", seed=900,
                                           trials=2)))
    monkeypatch.delenv("DUALVC_THREADS", raising=False)
    seq = execute_plan(plan, io.StringIO())
    monkeypatch.setenv("DUALVC_THREADS", "2")
    par = execute_plan(plan, io.StringIO())
    assert [r.row_prefix() for r in seq] == [r.row_prefix() for r in par]


def test_worker_pool_is_capped(monkeypatch):
    """No more workers than trials or CPUs, whatever DUALVC_THREADS asks;
    the stand-in pool records the request and starts no process."""
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("DUALVC_THREADS", "1000000")
    records = execute_plan(BenchPlan((cell(trials=3),)), io.StringIO())
    assert len(records) == 3
    workers = min(3, os.cpu_count() or 1)
    assert requested == ([workers] if workers > 1 else [])


def test_loaded_plan_builds_each_trial_once(monkeypatch):
    """A plan loaded from JSON builds each trial at load, a plan built in
    Python on its first run; either runs those instances, sequentially or
    on workers, with the same rows."""
    plan = plan_small()
    built = []
    build = harness.build_instance
    monkeypatch.setattr(harness, "build_instance",
                        lambda c, t: built.append((c, t)) or build(c, t))
    loaded = plan_from_json(
        {"cells": [dataclasses.asdict(c) for c in plan.cells]})
    assert built == plan.trials() and len(loaded.instances) == 6
    monkeypatch.delenv("DUALVC_THREADS", raising=False)
    rows = [r.row_prefix() for r in execute_plan(loaded, io.StringIO())]
    fresh = [r.row_prefix() for r in execute_plan(plan, io.StringIO())]
    assert built == plan.trials() * 2
    monkeypatch.setenv("DUALVC_THREADS", "2")
    par = [r.row_prefix() for r in execute_plan(loaded, io.StringIO())]
    again = [r.row_prefix() for r in execute_plan(plan, io.StringIO())]
    assert built == plan.trials() * 2
    assert rows == fresh == par == again


def test_read_records_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("nope\n")
    with pytest.raises(ValueError):
        read_records(str(p))
    p.write_text(CSV_HEADER + "\nE,rls,1,1\n")
    with pytest.raises(ValueError):
        read_records(str(p))


# -- runtime shapes and the scaling report ----------------------------------------------

def test_bound_shapes():
    assert math.isclose(bound_shape(8, 1, 2, 256),
                        2 * 8 * 8 * math.log(512))
    assert math.isclose(contrast_bound(8, 2, 256),
                        128 * math.log(128))
    # unit weights floor the log factor instead of zeroing the bound
    assert bound_shape(8, 1, 2, 1) > 0
    assert contrast_bound(2, 2, 1) > 0
    # monotone in m
    assert bound_shape(16, 1, 2, 256) > bound_shape(8, 1, 2, 256)
    assert contrast_bound(12, 2, 2 ** 12) > contrast_bound(8, 2, 2 ** 8)


def synth(m, evals, algorithm="rls", variant="E", d=1, alpha=2, wmax=16,
          seed=0):
    return BenchRecord(variant, algorithm, m, d, alpha, wmax, seed, evals,
                       True, 1.0)


def test_scaling_report_constant_ratio_group():
    records = []
    for m in (8, 16, 32):
        b = bound_shape(m, 1, 2, 16)
        for t in range(3):
            records.append(synth(m, int(2 * b), seed=t))
    cells = scaling_report(records)
    assert len(cells) == 1
    c = cells[0]
    assert c.ms == (8, 16, 32)
    assert c.within_band and c.spread < 1.05
    assert 1.9 < c.fit_constant < 2.05
    assert c.success_rates == (1.0, 1.0, 1.0)


def test_scaling_report_flags_super_bound_growth():
    records = [synth(m, int(bound_shape(m, 1, 2, 16) * m * m))
               for m in (8, 16, 32)]
    c = scaling_report(records)[0]
    assert c.super_bound_growth
    assert not c.within_band and c.spread > 4


def test_scaling_report_floors_zero_medians():
    records = [synth(m, 0) for m in (8, 16, 32)]
    c = scaling_report(records)[0]
    assert all(r == 1.0 / b for r, b in zip(c.ratios, c.bounds))


def test_scaling_report_needs_three_sizes():
    with pytest.raises(ValueError):
        scaling_report([synth(8, 10), synth(16, 20)])


def test_scaling_report_groups_by_algorithm():
    records = []
    for algo in ("ea", "rls"):
        for m in (8, 16, 32):
            records.append(synth(m, 100, algorithm=algo))
    assert [c.algorithm for c in scaling_report(records)] == ["ea", "rls"]


def test_format_scaling_report():
    records = [synth(m, int(bound_shape(m, 1, 2, 16))) for m in (8, 16, 32)]
    text = format_scaling_report(scaling_report(records))
    assert "variant=E algorithm=rls D=1 alpha=2 wmax=16" in text
    assert "m=8 " in text and "within_factor_4=yes" in text


def test_scaling_plan_shape():
    plan = scaling_plan(trials=2, sizes=(16, 32))
    # E/W x rls/ea x 2 sizes x 3 scales
    assert len(plan.cells) == 24
    assert {c.variant for c in plan.cells} == {"E", "W"}
    assert {c.algorithm for c in plan.cells} == {"rls", "ea"}
    assert {c.d for c in plan.cells} == {1, 4, 16}
    assert len({c.seed for c in plan.cells}) == 24
    for c in plan.cells:
        assert c.n == c.m // 2
        assert c.budget >= bound_shape(c.m, c.d, c.alpha, c.w_max)


# -- run logger ---------------------------------------------------------------------

def test_run_logger_trace(monkeypatch):
    sums = []
    float_value = harness.float_value
    monkeypatch.setattr(harness, "float_value",
                        lambda c, a: sums.append(list(c)) or float_value(c, a))
    g = WeightedGraph(2, (2, 2), ())
    inst = make_dynamic(g, (), Edit("edges", edges=((0, 1),)), "E+")
    buf = io.StringIO()
    logger = RunLogger(buf, inst, 2)
    result = run(inst, RunConfig("rls", 2, 2, 50, 0), hook=logger)
    assert result.evaluations == 3
    lines = buf.getvalue().splitlines()
    assert lines[0] == RunLogger.HEADER
    assert lines[1] == "1,1,1,1,1,1"     # accept 0 -> 1
    assert lines[2] == "2,0,1,1,1,1"     # reject 1 -> 3 (overload)
    assert lines[3] == "3,1,1,1,1,2"     # accept 1 -> 2, tight
    # the start's sum, then one per step that changed a value
    assert sums == [[0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0, 0]]


def test_run_logger_reads_records_by_position():
    """RunLogger unpacks each record by position.  Fed run's stream and
    run_reference's (whose records come from the named tuple's own
    constructor), it writes the same text, and that text equals the lines
    rebuilt from the records' named fields, so a slip in the unpack's field
    order fails here.  W- starts infeasible, so sign_before and sign_after
    differ on some records."""
    alpha = canonicalize_alpha(2)
    for variant in ("E+", "W-"):
        inst = hard_instance(variant, 8, 2)
        for algorithm in ALGORITHMS:
            cfg = RunConfig(algorithm, 2, inst.w_max, 400, 1)
            texts = []
            for runner in (run, run_reference):
                buf = io.StringIO()
                records = []
                logger = RunLogger(buf, inst, 2)
                runner(inst, cfg, hook=lambda r: (records.append(r),
                                                  logger(r)))
                texts.append(buf.getvalue())
            total = [sum(col) for col in zip(
                *coefficient_rows(alpha, inst.y_init))]
            lines = [RunLogger.HEADER]
            for r in records:
                for _e, old, new in r.changed:
                    total = [t + b - a for t, a, b in zip(total, old, new)]
                lines.append(f"{r.eval_index},{int(r.accepted)},"
                             f"{len(r.edges)},{r.direction},{r.sign_after},"
                             f"{harness.float_value(total, alpha):.6g}")
            assert texts[0] == texts[1] == "\n".join(lines) + "\n", (
                variant, algorithm)


# -- CLI ------------------------------------------------------------------------------

def test_cli_gen_solve_verify_round_trip(tmp_path, capsys):
    prefix = str(tmp_path / "inst")
    rc = cli_main(["gen", "--variant", "E", "--n", "8", "--m", "10",
                   "--d", "2", "--wmax", "8", "--seed", "4",
                   "--out", prefix])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [prefix + ".graph.json", prefix + ".edit.json",
                   prefix + ".y0.txt"]
    for p in out:
        assert os.path.exists(p)

    final = str(tmp_path / "final.dual")
    argv = ["solve", "--graph", prefix + ".graph.json",
            "--edit", prefix + ".edit.json", "--y0", prefix + ".y0.txt",
            "--algo", "rls", "--budget", "100000", "--seed", "6",
            "--out", final]
    rc = cli_main(argv)
    first = capsys.readouterr().out
    assert rc == 0
    lines = first.splitlines()
    assert lines[0] == SOLVE_HEADER
    assert lines[1].startswith("E,rls,")
    # repeated solves print byte-identical reports (no wall time column)
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == first

    # the emitted dual verifies against the edited graph: reconstruct it
    # by applying the edit
    from dualvc.graph import apply_edit, load_edit
    g = load_instance(prefix + ".graph.json")
    g_star, _, _ = apply_edit(g, load_edit(prefix + ".edit.json"))
    gstar_path = str(tmp_path / "gstar.json")
    save_instance(g_star, gstar_path)
    rc = cli_main(["verify", "--graph", gstar_path, "--dual", final])
    vout = capsys.readouterr().out
    assert rc == 0
    assert "feasible: yes" in vout and "maximal: yes" in vout
    assert "weight_ok: yes" in vout


def test_cli_gen_is_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for prefix in (a, b):
        assert cli_main(["gen", "--variant", "W", "--n", "6", "--m", "7",
                         "--wmax", "16", "--seed", "11",
                         "--out", prefix]) == 0
    capsys.readouterr()
    for suffix in (".graph.json", ".edit.json", ".y0.txt"):
        with open(a + suffix) as fa, open(b + suffix) as fb:
            assert fa.read() == fb.read()


def test_cli_gen_hard_and_solve_hard(tmp_path, capsys):
    prefix = str(tmp_path / "h")
    assert cli_main(["gen", "--hard", "--variant", "W+", "--m", "3",
                     "--out", prefix]) == 0
    capsys.readouterr()
    assert os.path.exists(prefix + ".graph.json")
    rc = cli_main(["solve", "--hard", "--variant", "E+", "--m", "3",
                   "--algo", "ea", "--budget", "100000", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[1].startswith("E+,ea,3,1,2,8,")


def test_cli_hard_below_two_edges_exits_2_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["gen", "--hard", "--variant", "E+", "--m", "1",
                     "--out", "p"]) == 2
    assert cli_main(["solve", "--hard", "--variant", "W-", "--m", "1",
                     "--algo", "rls"]) == 2
    assert "m >= 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_solve_budget_exhaustion_exit_code(capsys):
    rc = cli_main(["solve", "--hard", "--variant", "E+", "--m", "3",
                   "--algo", "rls", "--budget", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.splitlines()[1].endswith(",1,0")    # 1 evaluation, no success


def test_cli_solve_log(tmp_path, capsys):
    log = str(tmp_path / "trace.log")
    rc = cli_main(["solve", "--hard", "--variant", "E+", "--m", "2",
                   "--algo", "rls", "--budget", "100000", "--seed", "2",
                   "--log", log])
    capsys.readouterr()
    assert rc == 0
    lines = open(log).read().splitlines()
    assert lines[0] == RunLogger.HEADER
    assert len(lines) >= 2
    assert all(len(ln.split(",")) == 6 for ln in lines[1:])


def test_cli_sums_beyond_float_range_print_inf(tmp_path, capsys):
    # W- at m = 1030 carries weights up to 2^1030, past the float range
    prefix = str(tmp_path / "p")
    assert cli_main(["gen", "--hard", "--variant", "W-", "--m", "1030",
                     "--out", prefix]) == 0
    capsys.readouterr()
    rc = cli_main(["verify", "--graph", prefix + ".graph.json",
                   "--dual", prefix + ".y0.txt"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert "maximal: yes" in out and "two_sum_y: inf" in out
    log = str(tmp_path / "x")
    rc = cli_main(["solve", "--hard", "--variant", "W-", "--m", "1030",
                   "--algo", "rls", "--budget", "3", "--log", log])
    capsys.readouterr()
    assert rc == 1
    lines = open(log).read().splitlines()
    assert lines[0] == RunLogger.HEADER
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "3"]
    assert all(ln.endswith(",inf") for ln in lines[1:])


def test_cli_solve_rational_start_dumped_at_another_alpha(tmp_path, capsys):
    # every start value is Fraction(11, 2): a rational dump must not tie
    # the run to the alpha it was written at
    from dualvc.dual import save_dual
    from dualvc.graph import save_edit
    g = WeightedGraph(5, (11,) * 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    paths = {k: str(tmp_path / k) for k in ("g.json", "edit.json", "y0")}
    save_instance(g, paths["g.json"])
    save_edit(Edit("weights", weights=(9, 11, 13, 11, 11)), paths["edit.json"])
    save_dual(DualSolution(g, 9, [(Fraction(11, 2), 0)] * 5),
              paths["y0"])
    argv = ["solve", "--graph", paths["g.json"], "--edit", paths["edit.json"],
            "--y0", paths["y0"], "--algo", "rls", "--seed", "1",
            "--budget", "2000"]
    assert cli_main(argv + ["--alpha", "9"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "W,rls,5,2,9,13,1,10,1"
    assert cli_main(argv + ["--alpha", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1] == "W,rls,5,2,2,13,1,10,1"


def test_cli_solve_irrational_start_needs_its_alpha(tmp_path, capsys):
    # y0 = (beta, 10 - beta) with beta = sqrt(2) at alpha 4 (degree 2):
    # alpha 9 is degree 2 too, so only the dump's alpha may read the rows
    paths = {k: tmp_path / k for k in ("g.json", "edit.json", "y0")}
    paths["g.json"].write_text(
        '{"n":3,"weights":[10,10,10],"edges":[[0,1],[1,2]]}\n')
    paths["edit.json"].write_text('{"kind":"weights","weights":[10,11,10]}\n')
    paths["y0"].write_text("alpha 4\n0 0 1 0 0\n1 10 -1 0 0\n")
    argv = ["solve", "--graph", str(paths["g.json"]),
            "--edit", str(paths["edit.json"]), "--y0", str(paths["y0"]),
            "--algo", "rls_fifth", "--seed", "1", "--budget", "2000"]
    assert cli_main(argv + ["--alpha", "4"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row == "W,rls_fifth,2,1,4,11,1,5,1"
    for other in ("9", "2"):
        assert cli_main(argv + ["--alpha", other]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_verify_non_maximal_exit_one(tmp_path, capsys):
    g = WeightedGraph(2, (2, 2), ((0, 1),))
    gp = str(tmp_path / "g.json")
    save_instance(g, gp)
    dp = str(tmp_path / "y.dual")
    with open(dp, "w") as fh:
        fh.write(dump_dual(DualSolution(g, 2, (0,))))
    rc = cli_main(["verify", "--graph", gp, "--dual", dp])
    out = capsys.readouterr().out
    assert rc == 1
    assert "feasible: yes" in out and "maximal: no" in out


def test_cli_verification_failure_exits_one(tmp_path, capsys, monkeypatch):
    def refuse(*_args):
        raise RuntimeError("refused by the test")

    monkeypatch.setattr("dualvc.cli.verify_final", refuse)
    monkeypatch.setattr(harness, "verify_final", refuse)
    monkeypatch.delenv("DUALVC_THREADS", raising=False)
    assert cli_main(["solve", "--hard", "--variant", "E+", "--m", "3",
                     "--algo", "rls", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert "verification failure: refused by the test" in captured.err
    assert captured.out == ""                 # no row for a refused success
    plan_path = tmp_path / "plan.json"
    out_path = tmp_path / "out.csv"
    plan_path.write_text(json.dumps({"cells": [dict(
        variant="E", algorithm="rls", alpha=2, trials=2, budget=20000,
        seed=300, n=8, m=10, d=2, w_max=8)], "out": str(out_path)}))
    assert cli_main(["bench", "--config", str(plan_path)]) == 1
    assert "verification failure: refused by the test" in \
        capsys.readouterr().err
    assert out_path.read_text() == CSV_HEADER + "\n"   # no lying row


def test_cli_usage_errors_exit_two(tmp_path, capsys):
    assert cli_main(["gen", "--out", str(tmp_path / "x")]) == 2  # no variant
    assert cli_main(["gen", "--variant", "E", "--n", "6", "--m", "5",
                     "--out", str(tmp_path / "x")]) == 2  # no --wmax
    assert "random gen needs --n, --m and --wmax" in capsys.readouterr().err
    assert cli_main(["solve", "--algo", "rls"]) == 2  # no instance source
    assert cli_main(["verify", "--graph", "/nonexistent.json",
                     "--dual", "/nonexistent.txt"]) == 2
    capsys.readouterr()


def test_cli_malformed_graph_files_exit_two(tmp_path, capsys):
    dp = str(tmp_path / "y.dual")
    with open(dp, "w") as fh:
        fh.write("alpha 2\n")
    gp = tmp_path / "g.json"
    for text in ('{"n": "2", "weights": [1, 1], "edges": []}',
                 '{"n": 2, "weights": ["1", 1], "edges": []}',
                 '{"n": 2, "weights": [1, 1], "edges": [[0, "1"]]}',
                 '{"n": 2, "weights": [1, 1], "edges": [0]}',
                 '{"n": 2, "weights": [1, 1], "edges": {"0": 1}}',
                 '[2]'):
        gp.write_text(text)
        assert cli_main(["verify", "--graph", str(gp), "--dual", dp]) == 2
    capsys.readouterr()


def test_cli_bench(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    out_path = tmp_path / "out.csv"
    plan_path.write_text(json.dumps({
        "cells": [dict(variant="E", algorithm="rls", alpha=2, trials=2,
                       budget=20000, seed=300, n=8, m=10, d=2, w_max=8)],
        "out": str(out_path)}))
    rc = cli_main(["bench", "--config", str(plan_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"wrote {out_path} (2 rows)" in out
    assert "# summary" in out
    records = read_records(str(out_path))
    assert len(records) == 2
    assert all(r.algorithm == "rls" for r in records)


def test_cli_gen_without_out_exits_two(tmp_path, monkeypatch, capsys):
    """argparse rejects a gen without --out before it builds anything:
    status 2, no file."""
    monkeypatch.chdir(tmp_path)
    for argv in (["gen", "--variant", "E", "--n", "6", "--m", "5",
                  "--wmax", "8"],
                 ["gen", "--hard", "--variant", "W-", "--m", "1030"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_bench_without_config_exits_two(tmp_path, monkeypatch, capsys):
    """argparse rejects a bench without --config: status 2, no CSV."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_main(["bench", "--out", "out.csv"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_bench_bad_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"cells": [{"variant": "E"}]}))
    assert cli_main(["bench", "--config", str(plan_path)]) == 2
    plan_path.write_text("{not json")
    assert cli_main(["bench", "--config", str(plan_path)]) == 2
    capsys.readouterr()
