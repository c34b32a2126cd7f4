"""Benchmark a parent revision against the working tree; write BENCH_<N>.json.

    python3 scripts/bench_pr.py --parent <rev> --pr <N>

The parent's committed files are unpacked with ``git archive`` into a
temporary directory, which is removed again at the end.  For
every workload in ``BENCHMARK.json`` and each of the ten seeds in ``SEEDS``
(ten pairs, the fewest a gain claim rests on), the benchmark command
(``python3 perfbench/run.py``) runs once in each checkout, alternating which
side runs first, for the run length ``BENCHMARK.json`` sets.  The last line
of each run's standard output is its JSON result, and an earlier line its
``rows_sha256``, the hash of the rows the run produced.  Only these child
processes are measured.  Each side also runs every workload once, briefly,
at seed 1, where the benchmark checks each row against its golden row.

``BENCH_<N>.json``, at the root of the repository, records both revisions,
the Python version and the CPU count; per workload and end-to-end metric,
each side's median and interquartile range, the number of seeds on which
the working tree did better (the paired wins) and the metric's bound;
every run's ``correct``, ``attempted`` and ``failed``; and the
``git status --porcelain`` lines of the working tree, untracked files
included, since the working tree as it stands is what was measured.
Each run's ``rows_sha256`` is recorded too; per workload, ``rows_match``
says whether both sides produced the same rows at every paired seed, and
``golden`` holds each side's ``correct`` at seed 1.  ``src_lines`` holds
each side's line count of ``src/**/*.py``, and the script prints the net
change.  The script exits 1 if any pair's rows differ or a seed-1 run is
not correct, after writing the file.  Stopped by SIGTERM, it kills the
benchmark run in progress, removes the parent's copy and exits 143,
writing nothing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "pr")
SEEDS = tuple(range(2, 12))
#: The benchmark's default seed, whose rows must equal the golden rows.
GOLDEN_SEED = 1
#: Run length of the seed-1 check: one pass is enough to check every row.
GOLDEN_SECONDS = 1.0


def parse_result(stdout: str) -> dict:
    """The JSON result on the last non-empty line of a benchmark run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark printed nothing")
    return json.loads(lines[-1])


def parse_rows_sha256(stdout: str) -> str:
    """The hash on the run's ``rows_sha256 <workload> seed <n> <hash>``
    line."""
    for line in stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == "rows_sha256":
            return fields[-1]
    raise ValueError("benchmark printed no rows_sha256 line")


def quartiles(values: list) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(benchmark: dict, runs: list) -> dict:
    """Per workload: each end-to-end metric's median and IQR per side, the
    paired wins of the working tree over the parent (runs at the same
    seed), whether both sides produced the same rows at every paired seed,
    and every run's outcome.  `runs` holds dicts with ``workload``,
    ``seed``, ``side`` ("parent" or "pr"), the run's parsed ``result`` and
    its ``rows_sha256``.
    """
    out = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        mine = [r for r in runs if r["workload"] == workload]
        by_side = {side: {r["seed"]: r["result"] for r in mine
                          if r["side"] == side} for side in SIDES}
        paired = sorted(set(by_side["parent"]) & set(by_side["pr"]))
        hashes = {(r["side"], r["seed"]): r["rows_sha256"] for r in mine}
        metrics = {}
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            entry = {"unit": spec["unit"], "better": spec["better"],
                     "bound": spec["bound"]}
            for side in SIDES:
                values = [res["metrics"][name]["value"]
                          for res in by_side[side].values()]
                q1, median, q3 = quartiles(values)
                entry[side] = {"median": median, "iqr": q3 - q1,
                               "values": values}
            sign = 1 if spec["better"] == "higher" else -1
            entry["wins"] = sum(
                sign * (by_side["pr"][s]["metrics"][name]["value"]
                        - by_side["parent"][s]["metrics"][name]["value"]) > 0
                for s in paired)
            entry["pairs"] = len(paired)
            entry["change"] = (entry["pr"]["median"]
                               / entry["parent"]["median"] - 1.0)
            metrics[name] = entry
        out[workload] = {
            "metrics": metrics,
            "rows_match": all(hashes["parent", s] == hashes["pr", s]
                              for s in paired),
            "runs": [{"side": r["side"], "seed": r["seed"],
                      "correct": r["result"]["correct"],
                      "attempted": r["result"]["attempted"],
                      "failed": r["result"]["failed"],
                      "rows_sha256": r["rows_sha256"]} for r in mine],
        }
    return out


def run_benchmark(command: list, checkout: Path, workload: str, seed: int,
                  seconds: float) -> tuple[dict, str]:
    """One benchmark run: its parsed result and its rows_sha256."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited"
                           f" {done.returncode}: {done.stderr[-2000:]}")
    return parse_result(done.stdout), parse_rows_sha256(done.stdout)


def src_lines(checkout: Path) -> int:
    """Lines of the Python files under the checkout's ``src``."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (checkout / "src").rglob("*.py"))


def stop(signum, _frame):
    """SIGTERM handler: raise, so that ``subprocess.run`` kills the child
    it waits on and every ``finally`` runs on the way out."""
    raise SystemExit(128 + signum)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.rstrip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--pr", required=True, type=int, help="change number")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, stop)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    parent_rev = git("rev-parse", args.parent)
    pr_rev = git("rev-parse", "HEAD")
    changes = git("status", "--porcelain").splitlines()
    out_path = ROOT / f"BENCH_{args.pr}.json"

    tmp = Path(tempfile.mkdtemp(prefix="bench_pr-"))
    runs = []
    golden = {w["name"]: {} for w in benchmark["workloads"]}
    try:
        archive = subprocess.run(["git", "archive", parent_rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "parent", filter="data")
        checkouts = {"parent": tmp / "parent", "pr": ROOT}
        lines = {side: src_lines(checkouts[side]) for side in SIDES}
        jobs = [(w["name"], seed) for w in benchmark["workloads"]
                for seed in SEEDS]
        for i, (workload, seed) in enumerate(jobs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                result, rows = run_benchmark(
                    benchmark["command"], checkouts[side], workload, seed,
                    seconds)
                runs.append({"workload": workload, "seed": seed,
                             "side": side, "result": result,
                             "rows_sha256": rows})
                print(f"{workload} seed {seed} {side}: correct"
                      f" {result['correct']}, failed {result['failed']},"
                      f" rows {rows[:12]}", file=sys.stderr)
        for workload in golden:
            for side in SIDES:
                result, _rows = run_benchmark(
                    benchmark["command"], checkouts[side], workload,
                    GOLDEN_SEED, GOLDEN_SECONDS)
                golden[workload][side] = result["correct"]
                print(f"{workload} seed {GOLDEN_SEED} {side}: correct"
                      f" {result['correct']}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report = {
        "parent": parent_rev,
        "pr": {"rev": pr_rev, "uncommitted_changes": changes,
               "number": args.pr},
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seeds": list(SEEDS),
        "seconds": seconds,
        "src_lines": lines,
        "workloads": summarize(benchmark, runs),
    }
    for workload, entry in report["workloads"].items():
        entry["golden"] = golden[workload]
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:<8} {name:<14}"
                  f" parent {m['parent']['median']:.4g}"
                  f" pr {m['pr']['median']:.4g} ({m['change']:+.1%})"
                  f" wins {m['wins']}/{m['pairs']} bound {m['bound']}")
    print(f"src_lines parent {lines['parent']} pr {lines['pr']}"
          f" ({lines['pr'] - lines['parent']:+d})")
    print(f"wrote {out_path}")
    status = 0
    for workload, entry in report["workloads"].items():
        if not entry["rows_match"]:
            print(f"{workload}: rows differ between parent and change",
                  file=sys.stderr)
            status = 1
        if not all(entry["golden"].values()):
            print(f"{workload}: seed {GOLDEN_SEED} golden rows not"
                  f" reproduced: {entry['golden']}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
