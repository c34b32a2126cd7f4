#!/usr/bin/env python3
"""Scaling experiment: median evaluations vs the runtime bound shape.

Runs the canonical plan from harness.scaling_plan (rls and ea on random
edge-edit and weight-edit families across m and D), writes the bench CSV,
and prints the per-group ratio table with the factor-4 band verdict.
Set DUALVC_THREADS to parallelize trials across processes.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dualvc.harness import (execute_plan, format_scaling_report,  # noqa: E402
                            scaling_plan, scaling_report)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="scaling.csv")
    ap.add_argument("--trials", type=int, default=12)
    ap.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 256])
    ap.add_argument("--seed", type=int, default=20260821)
    args = ap.parse_args(argv)

    plan = scaling_plan(trials=args.trials, base_seed=args.seed,
                        sizes=tuple(args.sizes))
    with open(args.out, "w") as fh:
        records = execute_plan(plan, fh)
    print(f"wrote {args.out} ({len(records)} rows)")
    print(format_scaling_report(scaling_report(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
