"""Tests of the benchmark itself (not of dualvc).

    python3 -m pytest -q perfbench/tests

The tests that run the ``quarter`` workload use a tiny ``--seconds``, so
each makes a single pass; the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import core  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def prog():
    return core.load_program()


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_workload_generation_is_deterministic_for_a_seed(prog):
    sizes = {"scaling": 144, "quarter": 144, "logged": 96}
    for name in workloads.WORKLOADS:
        a = workloads.trials_for(name, prog.harness, 7)
        b = workloads.trials_for(name, prog.harness, 7)
        other = workloads.trials_for(name, prog.harness, 8)
        assert a == b
        assert len(a) == len(other) == sizes[name]
        assert [c.seed for c, _t, _h in a] != [c.seed for c, _t, _h in other]
    trials = workloads.trials_for("quarter", prog.harness, 7)[:3]
    assert core.build_instances(prog, trials) == \
        core.build_instances(prog, trials)


def test_golden_rows_match_a_pass_and_a_tampered_row_fails_it(prog):
    trials = workloads.trials_for("logged", prog.harness,
                                  workloads.DEFAULT_SEED)[:4]
    instances = core.build_instances(prog, trials)
    golden = core.load_golden("logged")[:4]
    assert core.run_pass(prog, trials, instances, golden).failed == 0
    tampered = golden[:]
    tampered[1] = tampered[1][:-1] + ("0" if tampered[1][-1] == "1" else "1")
    p = core.run_pass(prog, trials, instances, tampered)
    assert p.failed == 1
    assert "trial 1: row" in p.problems[0]


def test_tampered_golden_row_is_counted_in_failed_frac(monkeypatch, capsys):
    real = core.load_golden

    def tampered(name):
        rows = real(name)
        rows[5] = rows[5][:-1] + ("0" if rows[5][-1] == "1" else "1")
        return rows

    monkeypatch.setattr(core, "load_golden", tampered)
    out = run.end_to_end("quarter", workloads.DEFAULT_SEED, 0.01)
    printed = capsys.readouterr().out
    assert out["correct"] is False
    assert (out["failed"], out["attempted"]) == (1, 144)
    assert "failed_frac    0.00694444 ratio  (1 failed of 144" in printed
    assert "golden rows: MISMATCH" in printed


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quarter",
         "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0.01",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {k: v["unit"] for k, v in out["metrics"].items()}
    assert printed == declared
    for name in declared:
        assert name in proc.stdout.split("{", 1)[0]
    if trace == 0:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "quarter", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("n,expected", [
    (1000, (99, 10)), (144, (93, 10)), (108, (90, 10)), (96, (89, 10)),
    (20, (50, 10)), (19, (50, 9)), (1, (50, 0)),
])
def test_tail_percentile_is_the_highest_with_ten_samples_above(n, expected):
    assert core.tail_percentile(n) == expected
    p, above = expected
    values = list(range(1, n + 1))
    assert sum(v > core.percentile(values, p) for v in values) == above


def test_percentile_is_nearest_rank():
    assert core.percentile(range(1, 101), 90) == 90
    assert core.percentile([5.0, 1.0, 3.0], 50) == 3.0
