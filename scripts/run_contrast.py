#!/usr/bin/env python3
"""Fast-vs-slow contrast experiment on the hard E+ family.

For each m, runs rls, ea, and rls_fifth against the frozen budget
C * contrast_bound(m) (C from tests/data/contrast_config.json, produced by
calibrate_contrast.py), then gives ea_fifth 100x the rls median at the
largest m.  Prints the seed block, per-algorithm success rates and median
evaluations.  Trial t runs with seed ``--seed + t``; the default is the
block acceptance criterion 7 runs (``CONTRAST_SEED`` in
tests/test_acceptance.py).
"""

import argparse
import json
import math
import sys
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dualvc.harness import BenchCell, contrast_bound, run_trial  # noqa: E402

DEFAULT_CONFIG = (Path(__file__).resolve().parents[1]
                  / "tests" / "data" / "contrast_config.json")
DEFAULT_SEED = 777_000


def trial_block(algorithm, m, alpha, trials, seed, budget):
    cell = BenchCell(variant="E+", algorithm=algorithm, alpha=alpha,
                     trials=trials, budget=budget, seed=seed, kind="hard", m=m)
    records = [run_trial(cell, t) for t in range(trials)]
    return (sum(r.success for r in records),
            median(r.evaluations for r in records))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=str(DEFAULT_CONFIG))
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 10, 12])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args(argv)

    constant = json.loads(Path(args.config).read_text())["budget_constant"]
    alpha = 2
    rls_medians = {}
    print(f"budget constant C = {constant} (from {args.config})")
    print(f"seeds {args.seed}..{args.seed + args.trials - 1}")
    for m in args.sizes:
        w_max = alpha ** m
        budget = math.ceil(constant * contrast_bound(m, alpha, w_max))
        print(f"m={m} w_max=2^{m} budget={budget}")
        for algo in ("rls", "ea", "rls_fifth"):
            succ, med = trial_block(algo, m, alpha, args.trials,
                                    args.seed, budget)
            if algo == "rls":
                rls_medians[m] = med
            print(f"  {algo:>9}: {succ}/{args.trials} within budget, "
                  f"median {med:g}")

    m_top = max(args.sizes)
    slow_budget = math.ceil(100 * rls_medians[m_top])
    succ, med = trial_block("ea_fifth", m_top, alpha, args.trials,
                            args.seed, slow_budget)
    print(f"ea_fifth at m={m_top}, budget 100x rls median = {slow_budget}: "
          f"{succ}/{args.trials} succeeded "
          f"(failure rate {1 - succ / args.trials:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
