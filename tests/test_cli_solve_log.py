"""``dualvc solve --log`` pinned byte for byte on five seeded runs.

Each case is one ``solve`` command line on an adversarial instance.
``tests/data/solve_log/<case>.log`` holds the exact run log it writes, and
``expected.json`` the exit code and the exact stdout.  Three runs take
values off the integers, so their logged sum(Y) is irrational: ``ea_fifth``
at alpha 2 and 3, and ``rls_fifth`` at alpha 9.  Two stay on the integers
and succeed: ``ea`` at alpha 2, and ``rls_fifth`` at alpha 16, where every
quarter step is an integer.  Regenerate the expected output only for a
deliberate change of the log, with

    PYTHONPATH=src python tests/test_cli_solve_log.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from dualvc.cli import main as cli_main
from dualvc.dual import load_dual
from dualvc.graph import save_instance
from dualvc.instances import hard_instance
from dualvc.numeric import canonicalize_alpha
from dualvc.oracle import trap_edge

DATA = Path(__file__).resolve().parent / "data" / "solve_log"
EXPECTED = DATA / "expected.json"
CASES = {
    "ea_fifth_alpha2": ("E+", 6, 2, "ea_fifth"),
    "ea_fifth_alpha3": ("E+", 6, 3, "ea_fifth"),
    "rls_fifth_alpha9": ("W-", 4, 9, "rls_fifth"),
    "rls_fifth_alpha16": ("W-", 3, 16, "rls_fifth"),
    "ea_alpha2_integer": ("E+", 6, 2, "ea"),
}
INTEGER_CASES = ("ea_alpha2_integer", "rls_fifth_alpha16")
BUDGET = 300


def quiet(argv) -> tuple[int, str]:
    """Exit code and stdout of one ``dualvc`` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


def solve_log(case: str) -> tuple[int, str, str]:
    """Exit code, stdout and run log of ``dualvc solve --log`` on a case."""
    variant, m, alpha, algo = CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "run.log"
        code, stdout = quiet(["solve", "--hard", "--variant", variant,
                              "--m", str(m), "--alpha", str(alpha),
                              "--algo", algo, "--budget", str(BUDGET),
                              "--seed", "1", "--log", str(log)])
        return code, stdout, log.read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_log_is_pinned(case):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[case]
    log = (DATA / f"{case}.log").read_text(encoding="utf-8")
    assert solve_log(case) == (expected["exit"], expected["stdout"], log)


def test_solve_log_pins_cover_irrational_sums():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(CASES)
    for case in CASES:
        lines = (DATA / f"{case}.log").read_text().splitlines()
        sums = [line.split(",")[5] for line in lines[1:]]
        assert 100 <= len(sums) <= BUDGET
        irrational = sum("." in s for s in sums)
        if case in INTEGER_CASES:
            assert irrational == 0 and expected[case]["exit"] == 0
        else:
            assert irrational >= len(sums) // 3


def test_solve_out_on_a_trapped_run(tmp_path):
    """A trapped rls_fifth run prints the same row and exits 1 with and
    without --log, and --out holds the same final state either way: still
    certified by ``oracle.trap_edge``, which ``dualvc verify`` reports
    feasible but not maximal."""
    inst = hard_instance("E+", 6, 2)
    graph = tmp_path / "graph_star.json"
    save_instance(inst.graph_star, str(graph))
    solve = ["solve", "--hard", "--variant", "E+", "--m", "6", "--alpha",
             "2", "--algo", "rls_fifth", "--budget", str(BUDGET), "--seed",
             "1", "--out"]
    bare = quiet(solve + [str(tmp_path / "bare.dual")])
    logged = quiet(solve + [str(tmp_path / "logged.dual"), "--log",
                            str(tmp_path / "run.log")])
    assert bare == logged
    assert bare[0] == 1
    assert bare[1].endswith(f",{BUDGET},0\n")
    dumps = [load_dual(str(tmp_path / f"{name}.dual"), inst.graph_star)
             for name in ("bare", "logged")]
    assert dumps[0].y == dumps[1].y
    a2 = canonicalize_alpha(2)
    for dump in dumps:
        assert trap_edge(inst.graph_star, a2, dump.y) is not None
    verdict = quiet(["verify", "--graph", str(graph), "--dual",
                     str(tmp_path / "bare.dual")])
    assert verdict == (1, "feasible: yes\nmaximal: no\n")


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    pins = {}
    for case in CASES:
        code, stdout, log = solve_log(case)
        (DATA / f"{case}.log").write_text(log, encoding="utf-8")
        pins[case] = {"exit": code, "stdout": stdout}
    EXPECTED.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DATA}", file=sys.stderr)
