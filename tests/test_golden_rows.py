"""Golden rows: the deterministic CSV prefix of ~40 small trials, pinned.

Each trial goes through ``harness.run_trial``, the path ``dualvc bench``
takes, so a refactor that changes any draw, decision or recorded field
changes a row here.  The rows depend on CPython's ``random`` internals;
regenerate them only for a deliberate behaviour change or a new CPython
version, with

    PYTHONPATH=src python tests/test_golden_rows.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from dualvc.harness import SOLVE_HEADER, BenchCell, run_trial
from dualvc.heuristics import ALGORITHMS
from dualvc.instances import HARD_VARIANTS, VARIANTS

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_rows.csv"
ALPHAS = (2, 3, 9, 16)
BUDGET = 1500


def golden_cells() -> list[BenchCell]:
    """One trial per cell: every algorithm on every random variant and on
    every hard kind, with alpha rotating so that each algorithm meets all
    four alphas (field degrees 4, 4, 2 and 1)."""
    cells = []
    for vi, variant in enumerate(VARIANTS):
        for ai, algorithm in enumerate(ALGORITHMS):
            cells.append(BenchCell(
                variant=variant, algorithm=algorithm,
                alpha=ALPHAS[(vi + ai) % 4], trials=1, budget=BUDGET,
                seed=7000 + 100 * len(cells), kind="random",
                n=10, m=14, d=3, w_max=256))
    for vi, variant in enumerate(HARD_VARIANTS):
        for ai, algorithm in enumerate(ALGORITHMS):
            alpha = ALPHAS[(vi + ai) % 4]
            cells.append(BenchCell(
                variant=variant, algorithm=algorithm, alpha=alpha, trials=1,
                budget=BUDGET, seed=7000 + 100 * len(cells), kind="hard",
                m=4 if alpha > 3 else 5))
    return cells


def golden_rows() -> list[str]:
    return [run_trial(cell, 0).row_prefix() for cell in golden_cells()]


def test_golden_rows_replay_byte_for_byte():
    t0 = time.perf_counter()
    text = "\n".join([SOLVE_HEADER, *golden_rows()]) + "\n"
    elapsed = time.perf_counter() - t0
    assert text == GOLDEN.read_text(encoding="utf-8")
    assert elapsed < 5.0, f"golden replay took {elapsed:.2f} s"


def test_golden_rows_cover_the_grid():
    cells = golden_cells()
    assert len(cells) == 40
    for algorithm in ALGORITHMS:
        assert {c.alpha for c in cells if c.algorithm == algorithm} \
            == set(ALPHAS)
    assert {c.variant for c in cells if c.kind == "random"} == set(VARIANTS)
    assert {c.variant for c in cells if c.kind == "hard"} \
        == set(HARD_VARIANTS)


if __name__ == "__main__":
    GOLDEN.write_text("\n".join([SOLVE_HEADER, *golden_rows()]) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
