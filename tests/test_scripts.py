"""Smoke runs of the experiment scripts in scripts/ with tiny arguments, so
an API change that breaks one of them fails here rather than silently, and
the summary of ``bench_pr.py`` on canned results and its cleanup on SIGTERM
(it runs no benchmark)."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dualvc.harness import read_records
from test_acceptance import CONTRAST_SEED

ROOT = Path(__file__).resolve().parents[1]
FROZEN = ROOT / "tests" / "data" / "contrast_config.json"


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        f"script_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_contrast_smoke(capsys):
    script = load_script("run_contrast")
    assert script.main(["--trials", "2", "--sizes", "4", "5", "6"]) == 0
    out = capsys.readouterr().out
    # criterion 7's block by default
    assert script.DEFAULT_SEED == CONTRAST_SEED
    assert f"seeds {CONTRAST_SEED}..{CONTRAST_SEED + 1}" in out
    assert "m=6 w_max=2^6" in out
    assert "ea_fifth at m=6" in out


def test_calibrate_contrast_smoke(tmp_path, capsys):
    frozen = FROZEN.read_bytes()
    out = tmp_path / "contrast_config.json"
    script = load_script("calibrate_contrast")
    assert script.main(["--trials", "2", "--out", str(out)]) == 0
    config = json.loads(out.read_text())
    assert config["budget_constant"] >= 1
    assert config["pilot"]["stats"]["rls"]["trials"] == 2
    assert FROZEN.read_bytes() == frozen
    assert str(out) in capsys.readouterr().out


def test_run_scaling_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("DUALVC_THREADS", raising=False)
    out = tmp_path / "scaling.csv"
    script = load_script("run_scaling")
    assert script.main(["--trials", "1", "--sizes", "48", "56", "64",
                        "--out", str(out)]) == 0
    records = read_records(str(out))
    assert len(records) == 36
    assert {r.m for r in records} == {48, 56, 64}
    assert "within_factor_4=" in capsys.readouterr().out


def canned_stdout(correct, failed, rows="ab12", **values):
    """A benchmark run's output: human lines with its rows hash, then its
    JSON result."""
    result = {"correct": correct, "attempted": 144, "failed": failed,
              "metrics": {k: {"value": v, "unit": "u"}
                          for k, v in values.items()}}
    return ("workload quarter seed 2: 144 trials\n"
            f"  rows_sha256 quarter seed 2 {rows}\n  golden rows\n"
            + json.dumps(result) + "\n")


def canned_runs(script, sides, rows=lambda side, seed: "ab12"):
    """Parsed runs of the quarter workload; `sides` maps side -> seed ->
    (trials_per_s, trial_ms_p50)."""
    runs = []
    for side, seeds in sides.items():
        for seed, (rate, p50) in seeds.items():
            out = canned_stdout(True, 0, rows(side, seed),
                                trials_per_s=rate, trial_ms_p50=p50)
            runs.append({"workload": "quarter", "seed": seed, "side": side,
                         "result": script.parse_result(out),
                         "rows_sha256": script.parse_rows_sha256(out)})
    return runs


def test_bench_pr_summarize_canned_runs():
    script = load_script("bench_pr")
    benchmark = {
        "workloads": [{"name": "quarter"}],
        "end_to_end": [
            {"name": "trials_per_s", "unit": "trials/s", "better": "higher",
             "bound": 0.2},
            {"name": "trial_ms_p50", "unit": "ms", "better": "lower",
             "bound": 0.25}],
    }
    sides = {
        "parent": {2: (19.0, 58.0), 3: (20.0, 57.0), 4: (21.0, 60.0)},
        "pr": {2: (120.0, 1.5), 3: (19.5, 62.0), 4: (130.0, 1.4)},
    }
    summary = script.summarize(benchmark, canned_runs(script, sides))[
        "quarter"]
    rate = summary["metrics"]["trials_per_s"]
    assert rate["parent"]["median"] == 20.0
    assert rate["parent"]["iqr"] == 1.0        # quartiles 19.5 and 20.5
    assert rate["pr"]["median"] == 120.0
    assert (rate["wins"], rate["pairs"], rate["bound"]) == (2, 3, 0.2)
    assert rate["change"] == 5.0
    p50 = summary["metrics"]["trial_ms_p50"]
    assert (p50["wins"], p50["pairs"], p50["bound"]) == (2, 3, 0.25)
    assert p50["pr"]["median"] == 1.5
    assert len(summary["runs"]) == 6
    assert all(r["correct"] and r["failed"] == 0 for r in summary["runs"])
    assert summary["rows_match"]
    assert {r["rows_sha256"] for r in summary["runs"]} == {"ab12"}


def test_bench_pr_flags_rows_that_differ():
    script = load_script("bench_pr")
    benchmark = {
        "workloads": [{"name": "quarter"}],
        "end_to_end": [{"name": "trials_per_s", "unit": "trials/s",
                        "better": "higher", "bound": 0.2}],
    }
    sides = {side: {2: (20.0, 1.0), 3: (21.0, 1.0)}
             for side in ("parent", "pr")}
    same = script.summarize(benchmark, canned_runs(script, sides))
    assert same["quarter"]["rows_match"]
    # the change's rows differ at seed 3 only
    differ = script.summarize(benchmark, canned_runs(
        script, sides,
        lambda side, seed: "cd34" if (side, seed) == ("pr", 3) else "ab12"))
    assert not differ["quarter"]["rows_match"]
    # an unpaired seed's rows are not compared
    sides["pr"][4] = (22.0, 1.0)
    unpaired = script.summarize(benchmark, canned_runs(
        script, sides, lambda side, seed: "ef56" if seed == 4 else "ab12"))
    assert unpaired["quarter"]["rows_match"]
    with pytest.raises(ValueError):
        script.parse_rows_sha256("workload quarter seed 2\n{}\n")


def test_bench_pr_counts_src_lines(tmp_path):
    script = load_script("bench_pr")
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("a = 1\nb = 2\n")
    (pkg / "core.py").write_text("\n\nc = 3")     # no final newline
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "setup.py").write_text("outside = 1\n")
    assert script.src_lines(tmp_path) == 5
    assert script.src_code_lines(tmp_path) == 3
    # a docstring, a comment and a blank line count only in src_lines; a
    # string that is not a docstring is code
    (pkg / "doc.py").write_text(
        '"""Module docstring\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "def f():\n"
        '    """One-line docstring."""\n'
        '    return """two\n'
        '    lines"""  # trailing comment\n')
    assert script.src_lines(tmp_path) == 13
    assert script.src_code_lines(tmp_path) == 6


#: Runs bench_pr.main with every benchmark run replaced by a child that
#: writes its pid and working directory (the parent's copy) and sleeps.
SLEEPING_BENCH = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_pr", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
real = script.run_benchmark
sleep = ("import os, sys, time; open(sys.argv[1], 'w').write("
         "f'{os.getpid()} {os.getcwd()}'); time.sleep(60)")
script.run_benchmark = lambda command, *rest: real(
    [sys.executable, "-c", sleep, sys.argv[2]], *rest)
sys.exit(script.main(["--parent", "HEAD", "--pr", "0"]))
"""


def test_bench_pr_on_sigterm_kills_its_run_and_removes_the_copy(tmp_path):
    """SIGTERM during a benchmark run stops the run, removes the temporary
    copy of the parent and writes no BENCH file."""
    seen = tmp_path / "child"
    bench = subprocess.Popen(
        [sys.executable, "-c", SLEEPING_BENCH,
         str(ROOT / "scripts" / "bench_pr.py"), str(seen)],
        cwd=ROOT, stderr=subprocess.DEVNULL)
    pid = copy = None
    try:
        deadline = time.monotonic() + 10
        while not (seen.exists() and seen.read_text()):
            assert bench.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        pid, copy = seen.read_text().split(" ", 1)
        copy = Path(copy).parent
        assert copy.name.startswith("bench_pr-")
        bench.send_signal(signal.SIGTERM)
        status = bench.wait(timeout=5)
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()
        child_alive = False
        if pid is not None:
            try:
                os.kill(int(pid), signal.SIGKILL)
                child_alive = True
            except ProcessLookupError:
                pass
        copy_left = copy is not None and copy.exists()
        if copy_left:
            shutil.rmtree(copy)
    assert not child_alive and not copy_left
    assert status == 128 + signal.SIGTERM
    assert not (ROOT / "BENCH_0.json").exists()
