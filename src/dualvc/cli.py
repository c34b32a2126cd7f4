"""Command line interface: dualvc gen | solve | bench | verify.

Exit codes: 0 success, 1 verification failure (or budget exhausted in
``solve``), 2 usage / input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .dual import DualSolution, load_dual, save_dual
from .graph import load_edit, load_instance, save_edit, save_instance
from .harness import (SOLVE_HEADER, BenchRecord, RunLogger, execute_plan,
                      load_plan, summarize, verify_final)
from .heuristics import ALGORITHMS, RunConfig, run
from .instances import (VARIANTS, DynamicInstance, hard_instance,
                        make_dynamic, random_dynamic)
from .numeric import float_value
from .oracle import cover_certificate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualvc",
        description="Benchmark harness for step-size-adaptive search "
                    "heuristics maintaining maximal feasible dual solutions "
                    "(2-approximate weighted vertex covers) under dynamic "
                    "graph edits.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instance + edit + start files")
    gen.add_argument("--variant", choices=VARIANTS)
    gen.add_argument("--hard", action="store_true",
                     help="adversarial single-edit instance (E+/E-/W+/W-)")
    gen.add_argument("--n", type=int, default=0, help="vertices (random)")
    gen.add_argument("--m", type=int, default=0, help="edges / size")
    gen.add_argument("--d", type=int, default=1, help="edit scale (random)")
    gen.add_argument("--wmax", type=int, default=0, help="weight cap (random)")
    gen.add_argument("--alpha", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="output path prefix", required=True)
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="run one heuristic on one instance")
    solve.add_argument("--graph", help="instance JSON from gen")
    solve.add_argument("--edit", help="edit JSON from gen")
    solve.add_argument("--y0", help="starting dual dump from gen")
    solve.add_argument("--hard", action="store_true")
    solve.add_argument("--variant", choices=VARIANTS, default=None)
    solve.add_argument("--m", type=int, default=0, help="size (with --hard)")
    solve.add_argument("--algo", choices=ALGORITHMS, required=True)
    solve.add_argument("--alpha", type=int, default=2)
    solve.add_argument("--budget", type=int, default=1_000_000)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out", help="write the final dual dump here")
    solve.add_argument("--log", help="write a per-evaluation run log here")
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="execute a benchmark plan")
    bench.add_argument("--config", help="plan JSON", required=True)
    bench.add_argument("--out", help="override the plan's CSV path")
    bench.set_defaults(func=cmd_bench)

    verify = sub.add_parser("verify", help="check a dual dump for a graph")
    verify.add_argument("--graph", required=True)
    verify.add_argument("--dual", required=True)
    verify.set_defaults(func=cmd_verify)
    return parser


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------


def _plain_values(rows: Sequence[tuple]) -> tuple:
    """Map rational rows to plain rationals (ints when whole), so only truly
    irrational values stay tied to the alpha of their dump."""
    out = []
    for row in rows:
        c0 = row[0]
        if any(row[1:]):
            out.append(row)
        else:
            out.append(int(c0) if c0.denominator == 1 else c0)
    return tuple(out)


def _instance_from_args(args) -> DynamicInstance:
    if args.hard:
        return hard_instance(args.variant, args.m, args.alpha)
    if not (args.graph and args.edit and args.y0):
        raise ValueError("need --graph, --edit and --y0 (or --hard)")
    g = load_instance(args.graph)
    edit = load_edit(args.edit)
    y0 = load_dual(args.y0, g)
    values = _plain_values(y0.y)
    if (y0.alpha.alpha != args.alpha
            and any(isinstance(v, tuple) for v in values)):
        raise ValueError(f"{args.y0} holds irrational values over alpha"
                         f" {y0.alpha.alpha}, not --alpha {args.alpha}")
    variant = args.variant
    if variant is None:
        variant = "E" if edit.kind == "edges" else "W"
    return make_dynamic(g, values, edit, variant, y0.alpha)


def cmd_gen(args) -> int:
    """Emit <out>.graph.json, <out>.edit.json and <out>.y0.txt."""
    if args.hard:
        inst = hard_instance(args.variant, args.m, args.alpha)
    else:
        if args.variant is None:
            raise ValueError("gen needs --variant")
        if not (args.n and args.m and args.wmax):
            raise ValueError("random gen needs --n, --m and --wmax")
        inst = random_dynamic(args.variant, args.n, args.m, args.d,
                              args.wmax, args.seed)
    y0 = DualSolution(inst.graph, args.alpha, inst.y_orig)
    paths = (args.out + ".graph.json", args.out + ".edit.json",
             args.out + ".y0.txt")
    save_instance(inst.graph, paths[0])
    save_edit(inst.edit, paths[1])
    save_dual(y0, paths[2])
    for p in paths:
        print(p)
    return 0


def cmd_solve(args) -> int:
    """One run; prints the deterministic CSV row (no wall time).  Exit 0 on
    success, 1 when the budget runs out first."""
    instance = _instance_from_args(args)
    config = RunConfig(args.algo, args.alpha, instance.w_max, args.budget,
                       args.seed)
    hook = None
    log_fh = None
    try:
        if args.log:
            log_fh = open(args.log, "w", encoding="utf-8")
            hook = RunLogger(log_fh, instance, args.alpha)
        result = run(instance, config, hook)
    finally:
        if log_fh is not None:
            log_fh.close()
    if result.success:
        verify_final(instance, args.alpha, result.final_coeffs)
    record = BenchRecord(instance.requested, args.algo, instance.graph_star.m,
                         instance.d_scale, args.alpha, instance.w_max,
                         args.seed, result.evaluations, result.success, 0.0)
    print(SOLVE_HEADER)
    print(record.row_prefix())
    if args.out:
        final = DualSolution(instance.graph_star, args.alpha,
                             result.final_coeffs)
        save_dual(final, args.out)
    return 0 if result.success else 1


def cmd_bench(args) -> int:
    """Execute a plan from --config; write CSV (+summary) to the plan's out
    path or --out."""
    plan = load_plan(args.config)
    out_path = args.out or plan.out
    with open(out_path, "w", encoding="utf-8") as fh:
        records = execute_plan(plan, fh)
    for line in summarize(plan, records):
        print(line)
    print(f"wrote {out_path} ({len(records)} rows)")
    return 0


def cmd_verify(args) -> int:
    """Check a dual dump against its graph; exit 0 only on a full pass."""
    g = load_instance(args.graph)
    y = load_dual(args.dual, g)
    cert = cover_certificate(g, y.alpha, y.y)
    print(f"feasible: {'yes' if cert.feasible else 'no'}")
    print(f"maximal: {'yes' if cert.maximal else 'no'}")
    if cert.maximal:
        two_sum = [2 * c for c in cert.sum_y]
        print(f"cover_weight: {cert.cover_weight}")
        print(f"two_sum_y: {float_value(two_sum, y.alpha):.6g}")
        print(f"weight_ok: {'yes' if cert.weight_ok else 'no'}")
    return 0 if cert.defect is None else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
