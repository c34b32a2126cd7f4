"""The benchmark's workloads: fixed lists of trials generated from a seed.

A trial is one ``(cell, t, hook)`` triple: ``cell`` is a
``harness.BenchCell``, ``t`` the trial index inside it (the run seed is
``cell.seed + t`` and random instances come from the cell's sub-stream, as in
``dualvc bench``), and ``hook`` names the per-evaluation observer the trial
carries (``None``, ``"logger"`` or ``"count"``).  The same seed always gives
the same trials; only the cells' seeds depend on it.

Why each workload exists is written in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib

WORKLOADS = ("scaling", "quarter", "logged")

#: Seed whose rows are pinned in ``perfbench/golden/<workload>.csv``.
DEFAULT_SEED = 1

SCALING_TRIALS = 4            # per scaling_plan cell: 36 cells, 144 trials

QUARTER_ALPHAS = (3, 9, 16)   # field degree 4, 2 and 1
QUARTER_VARIANTS = ("E+", "E-", "W+", "W-")
QUARTER_ALGORITHMS = ("rls_fifth", "ea_fifth")
QUARTER_TRIALS = 6            # 24 cells, 144 trials
QUARTER_BUDGET = 20_000
QUARTER_SHAPE = dict(n=16, m=24, d=3, w_max=2 ** 10)

LOGGED_M = 64                 # w_max = 2**64: coefficients span machine words
LOGGED_TRIALS = 6             # per cell; 16 cells, 96 trials
LOGGED_BUDGET = 6_144


def sub_seed(seed: int, label: str) -> int:
    """Seed block of one workload: well separated for different seeds."""
    digest = hashlib.sha256(f"perfbench:{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _expand(cells, hook_for=lambda t: None) -> list:
    return [(cell, t, hook_for(t)) for cell in cells
            for t in range(cell.trials)]


def scaling(harness, seed: int) -> list:
    """The paper's main experiment: every ``scaling_plan`` cell."""
    plan = harness.scaling_plan(trials=SCALING_TRIALS,
                                base_seed=sub_seed(seed, "scaling"))
    return _expand(plan.cells)


def quarter(harness, seed: int) -> list:
    """Quarter-step searchers on random one-sided edits at every degree."""
    base = sub_seed(seed, "quarter")
    cells = []
    for alpha in QUARTER_ALPHAS:
        for variant in QUARTER_VARIANTS:
            for algorithm in QUARTER_ALGORITHMS:
                cells.append(harness.BenchCell(
                    variant=variant, algorithm=algorithm, alpha=alpha,
                    trials=QUARTER_TRIALS, budget=QUARTER_BUDGET,
                    seed=base + 1000 * len(cells), kind="random",
                    **QUARTER_SHAPE))
    return _expand(cells)


def logged(harness, seed: int) -> list:
    """All four searchers on the adversarial family, every run observed:
    even trials through ``harness.RunLogger``, odd ones through the
    benchmark's counting hook."""
    base = sub_seed(seed, "logged")
    cells = []
    for variant in harness.HARD_VARIANTS:
        for algorithm in harness.ALGORITHMS:
            cells.append(harness.BenchCell(
                variant=variant, algorithm=algorithm, alpha=2,
                trials=LOGGED_TRIALS, budget=LOGGED_BUDGET,
                seed=base + 1000 * len(cells), kind="hard", m=LOGGED_M))
    return _expand(cells, lambda t: "count" if t % 2 else "logger")


_BUILDERS = {"scaling": scaling, "quarter": quarter, "logged": logged}


def trials_for(name: str, harness, seed: int) -> list:
    """The trials of workload ``name`` for ``seed``, in execution order."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
    return _BUILDERS[name](harness, seed)


def trial_key(trial) -> str:
    cell, t, _hook = trial
    return f"{cell.variant}/{cell.algorithm}/a{cell.alpha}/m{cell.m}" \
           f"/D{cell.d}/s{cell.seed}/t{t}"

