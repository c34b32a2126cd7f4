"""``dualvc verify`` pinned byte for byte on six dumps.

Each case is a graph file and a dual dump under ``tests/data/verify/``;
``expected.json`` holds the exit code and the exact stdout of

    dualvc verify --graph <case>.graph.json --dual <case>.dual

The dumps come from seeded runs (an irrational success at alpha 2, a
Fraction success at alpha 9), from corrupted copies of the first (one
value halved, one raised past feasibility, one negated), and from a path
held at (2 - beta, beta, 2 - beta), whose value sum is irrational too.
Regenerate the inputs and the expected output only for a deliberate change
of the report, with

    PYTHONPATH=src python tests/test_cli_verify.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dualvc.cli import main as cli_main
from dualvc.dual import DualSolution, dump_dual
from dualvc.graph import Edit, WeightedGraph, instance_to_json
from dualvc.heuristics import RunConfig, run
from dualvc.instances import make_dynamic, random_dynamic

DATA = Path(__file__).resolve().parent / "data" / "verify"
EXPECTED = DATA / "expected.json"
CASES = ("alpha2_irrational_maximal", "alpha2_irrational_sum",
         "alpha9_fraction_maximal", "non_maximal", "infeasible",
         "negative_value")


def verify(case: str) -> tuple[int, str]:
    """Exit code and stdout of ``dualvc verify`` on one case."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["verify", "--graph", str(DATA / f"{case}.graph.json"),
                         "--dual", str(DATA / f"{case}.dual")])
    return code, out.getvalue()


@pytest.mark.parametrize("case", CASES)
def test_verify_output_is_pinned(case):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[case]
    assert verify(case) == (expected["exit"], expected["stdout"])


def test_verify_pins_cover_every_outcome():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(CASES)
    assert [expected[c]["exit"] for c in CASES] == [0, 0, 0, 1, 1, 2]
    assert "maximal: no" in expected["non_maximal"]["stdout"]
    assert "feasible: no" in expected["infeasible"]["stdout"]
    irrational = (DATA / "alpha2_irrational_maximal.dual").read_text()
    assert any(set(line.split()[2:]) != {"0"}
               for line in irrational.splitlines()[1:])
    fraction = (DATA / "alpha9_fraction_maximal.dual").read_text()
    assert fraction.startswith("alpha 9\n") and "/" in fraction


def _success(inst, config):
    result = run(inst, config)
    assert result.success
    return inst.graph_star, DualSolution(
        inst.graph_star, config.alpha, result.final_coeffs)


def _write_inputs() -> None:
    inst = random_dynamic("W-", 6, 7, 2, 32, seed=3)
    g2, y2 = _success(inst, RunConfig("ea_fifth", 2, inst.w_max, 5000, 3))
    cycle = WeightedGraph(5, (11,) * 5,
                          ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    y0 = DualSolution(cycle, 9, [(Fraction(11, 2), 0)] * 5)
    inst9 = make_dynamic(cycle, y0.y,
                         Edit("weights", weights=(9, 11, 13, 11, 11)), "W",
                         y0.alpha)
    g9, y9 = _success(inst9, RunConfig("rls", 9, inst9.w_max, 400, 1))
    path = WeightedGraph(4, (3, 2, 2, 3), ((0, 1), (1, 2), (2, 3)))
    e = next(i for i, row in enumerate(y2.y) if any(row))
    rows = [list(row) for row in y2.y]

    def with_row(row):
        return rows[:e] + [list(row)] + rows[e + 1:]

    dumps = {
        "alpha2_irrational_maximal": (g2, dump_dual(y2)),
        "alpha2_irrational_sum": (path, dump_dual(DualSolution(
            path, 2, [(2, -1, 0, 0), (0, 1, 0, 0), (2, -1, 0, 0)]))),
        "alpha9_fraction_maximal": (g9, dump_dual(y9)),
        "non_maximal": (g2, dump_dual(DualSolution(
            g2, 2, with_row(c / 2 for c in rows[e])))),
        "infeasible": (g2, dump_dual(DualSolution(
            g2, 2, with_row([rows[e][0] + inst.w_max + 1] + rows[e][1:])))),
    }
    negative = dump_dual(y2).splitlines()
    fields = negative[1 + e].split()
    fields[1:] = [str(-Fraction(c)) for c in fields[1:]]
    negative[1 + e] = " ".join(fields)
    dumps["negative_value"] = (g2, "\n".join(negative) + "\n")
    DATA.mkdir(parents=True, exist_ok=True)
    for case, (g, text) in dumps.items():
        (DATA / f"{case}.graph.json").write_text(instance_to_json(g) + "\n",
                                                 encoding="utf-8")
        (DATA / f"{case}.dual").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    _write_inputs()
    pins = {}
    for case in CASES:
        code, stdout = verify(case)
        pins[case] = {"exit": code, "stdout": stdout}
    EXPECTED.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DATA}", file=sys.stderr)
