"""Write the golden rows of every workload at its default seed.

    python3 perfbench/make_golden.py

Rows come from ``harness.run_trial``, the path ``dualvc bench`` takes, not
from the benchmark's own trial loop, so the benchmark also checks that its
loop records what the library records.  Only rerun this when a change is
meant to alter the deterministic rows; the diff of ``perfbench/golden`` then
shows which.
"""

from __future__ import annotations

import core
import workloads


def golden_rows(prog, name: str) -> list:
    trials = workloads.trials_for(name, prog.harness, workloads.DEFAULT_SEED)
    return [prog.harness.run_trial(cell, t).row_prefix()
            for cell, t, _hook in trials]


def main() -> None:
    prog = core.load_program()
    for name in workloads.WORKLOADS:
        rows = golden_rows(prog, name)
        path = core.golden_path(name)
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n".join([prog.harness.SOLVE_HEADER, *rows]) + "\n",
                        encoding="utf-8")
        print(f"{path.relative_to(core.ROOT)}: {len(rows)} rows")


if __name__ == "__main__":
    main()
