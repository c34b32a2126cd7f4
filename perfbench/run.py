"""dualvc benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload scaling --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Set-up (import plus ``harness.build_instance`` for every trial) is repeated
and its median reported; then whole passes over the workload's trials run
until the next pass would end after ``--seconds``.  Every trial's output is
checked (see ``core.run_pass``); at the default seed its row must equal the
golden row in ``perfbench/golden``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics, writing the spans to
``.perfbench-out/`` in the checkout.  Human-readable lines come first; the
last line of standard output is the JSON result.  Exit status 2 means the
checkout holds no program to measure, and nothing is printed on stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
import time

import core
import workloads
from tracing import Tracer

#: Set-up repeats: at least SETUP_MIN_REPS, more while they took less than
#: SETUP_TARGET_S in total, never more than SETUP_MAX_REPS.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_TARGET_S = 1.5
SETUP_CHUNK_S = 0.025

HOOK_PROBE_BUDGET = 2_000
HOOK_PROBE_REPS = 3

TRACE_DIR = core.ROOT / ".perfbench-out"


# ---------------------------------------------------------------------------
# phases shared by both modes
# ---------------------------------------------------------------------------


def set_up_once(name: str, seed: int):
    """Import, generate the trials and build every instance.  The work is
    timed in chunks of about SETUP_CHUNK_S, each scaled to nominal speed by
    the reference samples just around it, as trials are in a pass.  Returns
    the program, trials and instances, and the set-up time in seconds at
    nominal and at machine speed."""
    ref = core.reference_ms()
    t0 = time.perf_counter()
    prog = core.load_program()
    trials = workloads.trials_for(name, prog.harness, seed)
    instances = []
    nominal = raw = 0.0
    for cell, t, _kind in trials:
        instances.append(prog.harness.build_instance(cell, t))
        spent = time.perf_counter() - t0
        if spent >= SETUP_CHUNK_S or len(instances) == len(trials):
            ref_after = core.reference_ms()
            nominal += core.at_nominal_speed(spent, ref, ref_after)
            raw += spent
            ref = ref_after
            t0 = time.perf_counter()
    return prog, trials, instances, nominal, raw


def set_up(name: str, seed: int):
    """Set up several times; keep the last.  Returns the set-up times in
    seconds at nominal machine speed."""
    times = []
    raw = 0.0
    while True:
        prog, trials, instances, nominal, spent = set_up_once(name, seed)
        times.append(nominal)
        raw += spent
        if len(times) >= SETUP_MAX_REPS or (
                len(times) >= SETUP_MIN_REPS and raw >= SETUP_TARGET_S):
            return prog, trials, instances, times


def keep_going(start: float, rounds: int, seconds: float) -> bool:
    """Another round fits if the mean round so far still ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


def expected_rows(name: str, seed: int):
    return core.load_golden(name) if seed == workloads.DEFAULT_SEED else None


def rows_sha256(rows) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    prog, trials, instances, setup_times = set_up(name, seed)
    expected = expected_rows(name, seed)
    passes = []
    gc.collect()
    start = time.perf_counter()
    while True:
        p = core.run_pass(prog, trials, instances, expected)
        passes.append(p)
        expected = expected or p.rows
        if not keep_going(start, len(passes), seconds):
            break

    n = len(trials)
    per_trial = core.per_trial_medians(passes)
    # One pass at nominal speed, each trial at its median over the passes.
    pass_s = sum(per_trial) / 1000.0
    tail_p, above = core.tail_percentile(n)
    metrics = {
        "trials_per_s": (n / pass_s, "trials/s"),
        "evals_per_s": (passes[0].evaluations / pass_s, "evals/s"),
        "trial_ms_p50": (statistics.median(per_trial), "ms"),
        "trial_ms_tail": (core.percentile(per_trial, tail_p), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    attempted = n * len(passes)
    failed = sum(p.failed for p in passes)
    notes = {
        "trials_per_s": "raw pass walls "
                        + " ".join(f"{p.wall_s:.2f}" for p in passes)
                        + f" s at machine speed {core.speed_factor(passes):.3f}",
        "trial_ms_p50": f"median over {n} trials of each trial's median"
                        f" across {len(passes)} passes",
        "trial_ms_tail": f"p{tail_p}; {above} of {n} trials above it",
        "setup_s": f"median of {len(setup_times)} set-ups",
    }
    print(f"workload {name} seed {seed}: {n} trials x {len(passes)} passes,"
          f" {passes[0].evaluations} evaluations and"
          f" {passes[0].successes} successes per pass")
    for key, (value, unit) in metrics.items():
        extra = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<14} {value:.6g} {unit}{extra}")
    print(f"  {'failed_frac':<14} {failed / attempted:.6g} ratio"
          f"  ({failed} failed of {attempted} attempted)")
    report_rows(name, seed, passes[0].rows, passes)
    return result(failed == 0, attempted, failed, metrics)


def report_rows(name, seed, rows, passes) -> None:
    print(f"  rows_sha256 {name} seed {seed} {rows_sha256(rows)}")
    golden = expected_rows(name, seed)
    if golden is not None:
        same = all(p.rows == golden for p in passes)
        print(f"  golden rows: {'all match' if same else 'MISMATCH'}"
              f" ({core.golden_path(name).relative_to(core.ROOT)})")
    for p in passes:
        for line in p.problems[:10]:
            print(f"  FAILED {line}")


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def hook_record_us_per_eval(prog) -> float:
    """Cost of handing every evaluation to a no-op hook: the same runs on
    the adversarial instances with and without a hook, order alternated,
    median over repeats, in microseconds per evaluation."""
    instances = [prog.instances.hard_instance(v, workloads.LOGGED_M, 2)
                 for v in prog.instances.HARD_VARIANTS]
    heur = prog.heuristics
    samples = []
    for rep in range(HOOK_PROBE_REPS):
        spent = {None: 0.0, "noop": 0.0}
        evals = 0
        for inst in instances:
            for algorithm in heur.ALGORITHMS:
                config = heur.RunConfig(algorithm, 2, inst.w_max,
                                        HOOK_PROBE_BUDGET, rep)
                order = (None, "noop") if rep % 2 == 0 else ("noop", None)
                for mode in order:
                    hook = (lambda rec: None) if mode else None
                    t0 = time.perf_counter()
                    r = heur.run(inst, config, hook)
                    spent[mode] += time.perf_counter() - t0
                evals += r.evaluations
        samples.append((spent["noop"] - spent[None]) / evals * 1e6)
    return statistics.median(samples)


def traced(name: str, seed: int, seconds: float) -> dict:
    prog = core.load_program()
    tracer = Tracer()
    with tracer.installed(prog):
        trials = workloads.trials_for(name, prog.harness, seed)
        instances = []
        for i, (cell, t, _kind) in enumerate(trials):
            with tracer.span("trial", trace=i):
                instances.append(prog.harness.build_instance(cell, t))
    tracer.set_phase("probe")
    hook_us = hook_record_us_per_eval(prog)
    tracer.set_phase("pass")

    expected = expected_rows(name, seed)
    plain, traced_passes = [], []
    gc.collect()
    start = time.perf_counter()
    while True:
        p = core.run_pass(prog, trials, instances, expected)
        plain.append(p)
        expected = expected or p.rows
        with tracer.installed(prog):
            traced_passes.append(core.run_pass(
                prog, trials, instances, expected, tracer=tracer,
                count_all=True))
        if not keep_going(start, len(plain), seconds):
            break
    tracer.set_phase("done")

    metrics = per_layer_metrics(trials, plain, traced_passes, tracer, hook_us)
    passes = plain + traced_passes
    attempted = len(trials) * len(passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {name} seed {seed} traced: {len(trials)} trials,"
          f" {len(plain)} plain and {len(traced_passes)} traced passes")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<36} {value:.6g} {unit}")
    same = all(p.rows == plain[0].rows for p in passes)
    print(f"  traced rows identical to plain rows: {'yes' if same else 'NO'}")
    report_rows(name, seed, plain[0].rows, passes)
    out = TRACE_DIR / f"trace-{name}-seed{seed}.json"
    tracer.write(out, {"workload": name, "seed": seed,
                       "trials": [workloads.trial_key(t) for t in trials],
                       "python": platform.python_version()})
    print(f"  spans: {len(tracer.spans)} written to"
          f" {out.relative_to(core.ROOT)}")
    return result(failed == 0, attempted, failed, metrics)


def _nominal_pass_s(p) -> float:
    return sum(core.nominal_trial_ms(p)) / 1000.0


def per_layer_metrics(trials, plain, traced_passes, tracer, hook_us) -> dict:
    """Timings come from the plain passes, counts from the traced ones;
    both are given per pass.  Set-up counts come from the one traced
    set-up."""
    base = plain[0]
    k = len(traced_passes)
    counted = traced_passes[0].counted
    run_s = statistics.median(p.run_s for p in plain)
    verify_s = statistics.median(p.verify_s for p in plain)
    m = {
        "run_s": (run_s, "s"),
        "us_per_eval": (run_s / base.evaluations * 1e6, "us/eval"),
    }
    for algo in base.algo_evals:
        evals = sum(p.algo_evals[algo] for p in plain)
        spent = sum(p.algo_run_s[algo] for p in plain)
        m[f"us_per_eval.{algo}"] = (spent / evals * 1e6 if evals else 0.0,
                                    "us/eval")
    m["evaluations"] = (base.evaluations, "count")
    m["accepted"] = (base.accepted, "count")
    m["accept_ratio"] = (base.accepted / base.evaluations, "ratio")
    m["successes"] = (base.successes, "count")
    m["budget_exhausted"] = (base.exhausted, "count")
    for branch, (acc, rej) in counted.branch_counts().items():
        m[f"branch.{branch}.accepted"] = (acc, "count")
        m[f"branch.{branch}.rejected"] = (rej, "count")
    m["empty_selections"] = (counted.empty, "count")
    m["demotions"] = (counted.demotions, "count")
    m["hook_record_us_per_eval"] = (hook_us, "us/eval")

    for d in (1, 2, 4):
        calls, ns = tracer.kernel_total("pass", f"numeric.sign.d{d}")
        m[f"sign_calls.d{d}"] = (calls / k, "count")
        m[f"sign_ns.d{d}"] = (ns / calls if calls else 0.0, "ns/call")
    calls, ns = tracer.kernel_total("pass", "harness.float_value")
    m["float_value_calls"] = (calls / k, "count")
    m["float_value_us"] = (ns / calls / 1e3 if calls else 0.0, "us/call")

    m["verify_s"] = (verify_s, "s")
    m["verify_share"] = (statistics.median(
        p.verify_s / (p.run_s + p.verify_s) for p in plain), "ratio")
    _calls, ns = tracer.kernel_total("pass", "harness.RunLogger.__call__")
    logged = traced_passes[0].logger_evals
    m["logger_us_per_eval"] = (ns / k / logged / 1e3 if logged else 0.0,
                               "us/eval")

    calls, ns = tracer.total("setup", "harness.build_instance")
    m["build_s"] = (ns / 1e9, "s")
    draws, _ns = tracer.total("setup", "instances.random_dynamic")
    m["draws_per_trial"] = (draws / len(trials), "count/trial")
    s_calls, s_ns = tracer.total("setup", "oracle.validate_mfds_naive")
    p_calls, p_ns = tracer.total("pass", "oracle.validate_mfds_naive")
    m["validate_calls"] = (s_calls + p_calls / k, "count")
    m["validate_s"] = ((s_ns + p_ns / k) / 1e9, "s")
    _calls, ns = tracer.total("pass", "dual.extract_cover")
    m["extract_cover_s"] = (ns / k / 1e9, "s")
    _calls, ns = tracer.total("setup", "graph.apply_edit")
    m["apply_edit_s"] = (ns / 1e9, "s")
    m["trace.overhead_frac"] = (
        statistics.median(map(_nominal_pass_s, traced_passes))
        / statistics.median(map(_nominal_pass_s, plain)) - 1.0, "ratio")
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    measure = traced if args.trace else end_to_end
    try:
        out = measure(args.workload, args.seed, args.seconds)
    except core.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
