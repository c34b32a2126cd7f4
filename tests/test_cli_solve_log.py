"""``dualvc solve --log`` pinned byte for byte on four seeded runs.

Each case is one ``solve`` command line on an adversarial instance.
``tests/data/solve_log/<case>.log`` holds the exact run log it writes, and
``expected.json`` the exit code and the exact stdout.  Three runs take
values off the integers, so their logged sum(Y) is irrational: ``ea_fifth``
at alpha 2 and 3, and ``rls_fifth`` at alpha 9.  The fourth, ``ea`` at
alpha 2, stays on the integers and succeeds.  Regenerate the expected
output only for a deliberate change of the log, with

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

DATA = Path(__file__).resolve().parent / "data" / "solve_log"
EXPECTED = DATA / "expected.json"
CASES = {
    "ea_fifth_alpha2": ("E+", 6, 2, "ea_fifth"),
    "ea_fifth_alpha3": ("E+", 6, 3, "ea_fifth"),
    "rls_fifth_alpha9": ("W-", 4, 9, "rls_fifth"),
    "ea_alpha2_integer": ("E+", 6, 2, "ea"),
}
BUDGET = 300


def solve_log(case: str) -> tuple[int, str, str]:
    """Exit code, stdout and run log of ``dualvc solve --log`` on a case."""
    variant, m, alpha, algo = CASES[case]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "run.log"
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(["solve", "--hard", "--variant", variant,
                             "--m", str(m), "--alpha", str(alpha),
                             "--algo", algo, "--budget", str(BUDGET),
                             "--seed", "1", "--log", str(log)])
        return code, out.getvalue(), log.read_text(encoding="utf-8")


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
        if case == "ea_alpha2_integer":
            assert irrational == 0 and expected[case]["exit"] == 0
        else:
            assert irrational >= len(sums) // 3


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    pins = {}
    for case in CASES:
        code, stdout, log = solve_log(case)
        (DATA / f"{case}.log").write_text(log, encoding="utf-8")
        pins[case] = {"exit": code, "stdout": stdout}
    EXPECTED.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DATA}", file=sys.stderr)
