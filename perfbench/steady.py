"""Steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/steady.py --runs 10

Runs the command in ``BENCHMARK.json`` with ``--trace 0`` and its
``run_seconds``, ``--runs`` times per workload and set, on every workload
of ``BENCHMARK.json``.  Run ``i`` of set A
uses seed ``100 + i`` and of set B ``100 + runs + i``; the two
sets are interleaved and the order of workloads alternates from one round
to the next, so a slow spell of the machine falls on both sets alike.

For each workload and end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance over the median), and whether
the sets agree within ``BENCHMARK.json``'s bound: every spread within the
bound, and set B's median no worse than set A's by more than the bound.
``setup_s``'s spread is printed and marked ``EXEMPT`` when over its bound
but does not fail the check: the benchmark's contract exempts it, because
on ``scaling`` it follows the seed's instance redraws (see the README).  ``failed_frac`` is failed over attempted trials.
Exit status 1 when a run fails, reports incorrect output, or the sets
disagree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180
SEED_BASE = 100


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:"
                           f" {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def spread(values) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the
    median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of it."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


#: Metrics whose spread across seeds is reported but not held to the bound.
SPREAD_EXEMPT = ("setup_s",)


def compare(spec: dict, results: dict, workloads) -> bool:
    ok = True
    print(f"{'workload':<9} {'metric':<14} {'unit':<9} set   median"
          f"        q1            q3            spread  bound")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            meds = []
            for label in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in results[label][w]]
                med, q1, q3, sp = spread(vals)
                meds.append(med)
                mark = ""
                if sp > bound:
                    exempt = name in SPREAD_EXEMPT
                    ok &= exempt
                    mark = "  EXEMPT" if exempt else "  SPREAD"
                print(f"{w:<9} {name:<14} {metric['unit']:<9} {label}"
                      f"  {med:<13.6g} {q1:<13.6g} {q3:<13.6g}"
                      f" {sp:<7.3f} {bound}{mark}")
            drift = worse_by(metric, *meds)
            agree = drift <= bound
            ok &= agree
            print(f"{'':<34} B vs A: {drift:+.3f} worse"
                  f"{'' if agree else '  DISAGREE'}")
        for label in ("A", "B"):
            runs = results[label][w]
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            correct = all(r["correct"] for r in runs)
            ok &= correct and failed == 0
            print(f"{w:<9} {'failed_frac':<14} {'ratio':<9} {label}"
                  f"  {failed / attempted:.6g} ({failed} of {attempted});"
                  f" correct={correct}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("need --runs >= 2")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]

    results = {label: {w: [] for w in names} for label in ("A", "B")}
    for i in range(args.runs):
        sets = ("A", "B") if i % 2 == 0 else ("B", "A")
        for label in sets:
            seed = SEED_BASE + i + (args.runs if label == "B" else 0)
            order = names if i % 2 == 0 else names[::-1]
            for w in order:
                r = run_once(spec, w, seed)
                results[label][w].append(r)
                summary = " ".join(f"{k}={v['value']:.4g}"
                                   for k, v in r["metrics"].items())
                print(f"round {i} set {label} {w} seed {seed}: {summary}",
                      flush=True)
    ok = compare(spec, results, names)
    print("sets agree within bounds" if ok else "sets DO NOT agree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
