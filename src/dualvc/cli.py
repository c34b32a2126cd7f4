"""Command line interface: dualvc gen | solve | bench | verify.

Exit codes: 0 success, 1 verification failure (or budget exhausted in
``solve``), 2 usage / input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .heuristics import ALGORITHMS
from .instances import VARIANTS


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
    gen.add_argument("--out", help="output path prefix")
    gen.set_defaults(func=harness.cmd_gen)

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
    solve.set_defaults(func=harness.cmd_solve)

    bench = sub.add_parser("bench", help="execute a benchmark plan")
    bench.add_argument("--config", help="plan JSON", required=False)
    bench.add_argument("--out", help="override the plan's CSV path")
    bench.set_defaults(func=harness.cmd_bench)

    verify = sub.add_parser("verify", help="check a dual dump for a graph")
    verify.add_argument("--graph", required=True)
    verify.add_argument("--dual", required=True)
    verify.add_argument("--wmax", type=int, default=None)
    verify.set_defaults(func=harness.cmd_verify)
    return parser


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
