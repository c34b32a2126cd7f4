"""Benchmark harness: plans, trials, CSV emission, scaling reports and the
per-evaluation run log.  The command line lives in :mod:`dualvc.cli`.

A plan is a list of cells; a cell fixes one (variant, generator, algorithm,
alpha, budget) combination and a trial count.  Trial t of a cell runs with
seed ``cell.seed + t`` (recorded in the CSV, replayable via ``solve``);
random cells draw their per-trial instance from the sub-stream
``derive_seed(cell.seed, f"instance:{t}")``, while hard cells share one
deterministic instance.

A plan builds every trial's instance once, on first use, and keeps them;
``execute_plan`` runs those.  A plan loaded from JSON is checked by
building it: ``plan_from_json`` builds every trial of every cell and
configures its run, so each rule lives once, in the code that applies it,
and ``dualvc bench`` rejects a bad cell before it opens the CSV.

Every row whose run reports success is re-verified from scratch through the
oracle module before it is written; a verification failure aborts the plan
with RuntimeError rather than writing a lying row.  Rows appear in trial
order even when ``DUALVC_THREADS`` spreads trials over worker processes.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from math import ceil, e, log
from typing import Sequence, TextIO

from . import oracle
# the benchmark's workloads (perfbench/workloads.py) read ALGORITHMS and
# HARD_VARIANTS as harness attributes, so both stay imported here
from .heuristics import ALGORITHMS, RunConfig, TransitionRecord, run
from .instances import (HARD_VARIANTS, DynamicInstance, EditDoesNotFit,
                        derive_seed, hard_instance, random_dynamic)
from .numeric import canonicalize_alpha, ceil_log, float_value

CSV_HEADER = "variant,algorithm,m,D,alpha,wmax,seed,evaluations,success,wall_ms"

#: Columns of the deterministic prefix (everything but wall time); the
#: ``solve`` command prints exactly these so repeated runs are byte-identical.
SOLVE_HEADER = CSV_HEADER.rsplit(",", 1)[0]


# ---------------------------------------------------------------------------
# plan model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchCell:
    """One benchmark configuration; ``trials`` seeded runs of it.

    Construction checks the cell's own fields only; ``plan_from_json``
    checks the rest by building every trial."""

    variant: str
    algorithm: str
    alpha: int
    trials: int
    budget: int
    seed: int
    kind: str = "random"      # "random" | "hard"
    n: int = 0                # random: vertex count
    m: int = 0                # random: edge count; hard: instance size
    d: int = 1                # random: edit scale
    w_max: int = 1            # random: weight cap (hard: alpha**m implied)

    def __post_init__(self) -> None:
        if self.kind not in ("random", "hard"):
            raise ValueError(f"cell kind must be random or hard: {self.kind}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.kind == "random":
            if self.n < 2 or self.d < 1 or self.w_max < 1:
                raise ValueError(
                    "random cells need n >= 2, d >= 1, w_max >= 1")


@dataclass(frozen=True)
class BenchPlan:
    cells: tuple[BenchCell, ...]
    out: str = "results.csv"

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("plan has no cells")

    def trials(self) -> list[tuple[BenchCell, int]]:
        """Every (cell, trial index) pair, in trial order."""
        return [(cell, t) for cell in self.cells for t in range(cell.trials)]

    @cached_property
    def instances(self) -> tuple[DynamicInstance, ...]:
        """Every trial's instance in trial order, built on first use."""
        return tuple(build_instance(cell, t) for cell, t in self.trials())


_CELL_KEYS = {f.name for f in fields(BenchCell)}
_REQUIRED_CELL_KEYS = {f.name for f in fields(BenchCell)
                       if f.default is MISSING}
_STR_CELL_KEYS = {"variant", "algorithm", "kind"}


def plan_from_json(data: dict) -> BenchPlan:
    """Plan from parsed JSON; a malformed plan, or one with a cell any of
    whose trials does not build or configure, raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("a plan must be a JSON object")
    raw_cells = data.get("cells", [])
    out = data.get("out", "results.csv")
    if not isinstance(raw_cells, list) or not isinstance(out, str):
        raise ValueError('a plan needs a "cells" list and a string "out"')
    cells = []
    for raw in raw_cells:
        if not isinstance(raw, dict):
            raise ValueError(f"a cell must be a JSON object, got {raw!r}")
        unknown = set(raw) - _CELL_KEYS
        if unknown:
            raise ValueError(f"unknown cell keys: {sorted(unknown)}")
        missing = _REQUIRED_CELL_KEYS - set(raw)
        if missing:
            raise ValueError(f"missing cell keys: {sorted(missing)}")
        for key, value in raw.items():
            if key not in _STR_CELL_KEYS and type(value) is not int:
                raise ValueError(f"cell key {key!r} must be an integer, "
                                 f"got {value!r}")
        cells.append(BenchCell(**raw))
    plan = BenchPlan(tuple(cells), out)
    for (cell, trial), instance in zip(plan.trials(), plan.instances):
        RunConfig(cell.algorithm, cell.alpha, instance.w_max,
                  cell.budget, cell.seed + trial)
    return plan


def load_plan(path: str) -> BenchPlan:
    with open(path, encoding="utf-8") as fh:
        return plan_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRecord:
    """One CSV row."""

    variant: str
    algorithm: str
    m: int
    d_scale: int
    alpha: int
    wmax: int
    seed: int
    evaluations: int
    success: bool
    wall_ms: float

    def row_prefix(self) -> str:
        return (f"{self.variant},{self.algorithm},{self.m},{self.d_scale},"
                f"{self.alpha},{encode_wmax(self.wmax, self.alpha)},"
                f"{self.seed},{self.evaluations},{int(self.success)}")

    def to_csv(self) -> str:
        return f"{self.row_prefix()},{self.wall_ms:.3f}"


def encode_wmax(wmax: int, alpha: int) -> str:
    """Decimal when it fits 64 bits, else the exact power ``alpha^e``."""
    if wmax < 2 ** 63:
        return str(wmax)
    e = ceil_log(alpha, wmax)
    if alpha ** e == wmax:
        return f"{alpha}^{e}"
    return str(wmax)


def decode_wmax(text: str) -> int:
    if "^" in text:
        base, exp = text.split("^")
        return int(base) ** int(exp)
    return int(text)


_MAX_REDRAWS = 64


def build_instance(cell: BenchCell, trial: int) -> DynamicInstance:
    if cell.kind == "hard":
        return hard_instance(cell.variant, cell.m, cell.alpha)
    # the run's rule on the cap the cell asks for, so that no trial of such
    # a cell falls back to a draw of unit weights
    if 2 <= cell.w_max < cell.alpha:
        raise ValueError(f"alpha={cell.alpha} exceeds w_max={cell.w_max}")
    # A random edit can leave the carried solution maximal on the edited
    # graph, in which case the trial measures nothing; a two-sided edit can
    # split d in a way the drawn graph has no room for; and the drawn
    # weights can top out below alpha, which the run rejects.  Redraw
    # (seeded, hence reproducible) until an edit fits, the weights admit
    # alpha and the edit invalidates the solution.  Degenerate parameter
    # corners where no draw does fail after the cap, naming why the last
    # draw failed.
    label = f"instance:{trial}"
    for sub in [label] + [f"{label}:r{r}" for r in range(_MAX_REDRAWS)]:
        try:
            inst = random_dynamic(cell.variant, cell.n, cell.m, cell.d,
                                  cell.w_max, derive_seed(cell.seed, sub))
        except EditDoesNotFit as exc:
            reason = str(exc)
            continue
        if 2 <= inst.w_max < cell.alpha:
            reason = (f"the weights top out at w_max={inst.w_max}, below "
                      f"alpha={cell.alpha}")
            continue
        if not oracle.validate_mfds_naive(inst.graph_star, inst.y_init):
            return inst
        reason = "the edit leaves the carried solution maximal"
    raise ValueError(f"{cell} trial {trial}: none of {_MAX_REDRAWS + 1} "
                     f"draws builds an instance; the last: {reason}")


def verify_final(instance: DynamicInstance, alpha: int,
                 coeff_rows: Sequence[Sequence]) -> None:
    """Independent re-check of a reported success; raises RuntimeError."""
    try:
        defect = oracle.cover_certificate(
            instance.graph_star, canonicalize_alpha(alpha), coeff_rows).defect
    except ValueError as exc:   # wrong row count or row length
        raise RuntimeError(f"reported solution: {exc}") from exc
    if defect is not None:
        raise RuntimeError(defect)


def run_trial(cell: BenchCell, trial: int) -> BenchRecord:
    return run_instance(cell, trial, build_instance(cell, trial))


def run_instance(cell: BenchCell, trial: int,
                 instance: DynamicInstance) -> BenchRecord:
    """Trial `trial` of `cell` on its built instance."""
    seed = cell.seed + trial
    config = RunConfig(cell.algorithm, cell.alpha, instance.w_max,
                       cell.budget, seed)
    t0 = time.perf_counter()
    result = run(instance, config)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    if result.success:
        verify_final(instance, cell.alpha, result.final_coeffs)
    # m and wmax record the cell's requested parameters (the experiment's
    # independent variables); a random instance may realize slightly
    # different edge counts or weights, reproducible from the recorded seed.
    w_cap = instance.w_max if cell.kind == "hard" else cell.w_max
    return BenchRecord(cell.variant, cell.algorithm, cell.m,
                       instance.d_scale, cell.alpha, w_cap, seed,
                       result.evaluations, result.success, wall_ms)


def thread_count() -> int:
    raw = os.environ.get("DUALVC_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"DUALVC_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ValueError(f"DUALVC_THREADS must be >= 1, got {n}")
    return n


def execute_plan(plan: BenchPlan, out: TextIO) -> list[BenchRecord]:
    """Run all trials, streaming CSV rows in trial order, then the summary;
    ``DUALVC_THREADS`` workers run them, at most one per trial and CPU.

    Each trial's instance comes from ``plan.instances``, built once in this
    process, and is sent to the worker that runs it, which made ``dualvc
    bench`` faster than rebuilding each trial in its worker (CHANGES.md
    has the measurements).  A plan built in Python, not checked at load,
    pays its build here instead, in this one process."""
    cells, indices = zip(*plan.trials())
    out.write(CSV_HEADER + "\n")
    records: list[BenchRecord] = []
    workers = min(thread_count(), len(cells), os.cpu_count() or 1)
    args = (run_instance, cells, indices, plan.instances)
    with ExitStack() as stack:
        trials = map(*args)
        if workers > 1:
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers))
            trials = pool.map(*args, chunksize=1)
        for rec in trials:
            records.append(rec)
            out.write(rec.to_csv() + "\n")
            out.flush()
    for line in summarize(plan, records):
        out.write(line + "\n")
    return records


def summarize(plan: BenchPlan, records: Sequence[BenchRecord]) -> list[str]:
    """Per-cell '#'-prefixed summary lines (CSV readers skip them)."""
    lines = ["# summary"]
    i = 0
    for cell in plan.cells:
        group = records[i:i + cell.trials]
        i += cell.trials
        evals = [r.evaluations for r in group]
        rate = sum(r.success for r in group) / cell.trials
        lines.append(
            f"# cell variant={cell.variant} algorithm={cell.algorithm}"
            f" m={group[0].m} D={group[0].d_scale} alpha={cell.alpha}"
            f" wmax={encode_wmax(group[0].wmax, cell.alpha)}"
            f" trials={cell.trials} success_rate={rate:.3f}"
            f" median_evals={statistics.median(evals):g}"
            f" mean_evals={statistics.fmean(evals):g}")
    return lines


def read_records(path: str) -> list[BenchRecord]:
    """Parse a results CSV back into records (summary lines are skipped)."""
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 10:
                raise ValueError(f"malformed row: {line!r}")
            records.append(BenchRecord(
                parts[0], parts[1], int(parts[2]), int(parts[3]),
                int(parts[4]), decode_wmax(parts[5]), int(parts[6]),
                int(parts[7]), bool(int(parts[8])), float(parts[9])))
    return records


# ---------------------------------------------------------------------------
# scaling report
# ---------------------------------------------------------------------------


def _log_weight(alpha: int, w_max: int) -> float:
    """log_alpha(w_max), floored at 1 so unit weights do not zero a bound."""
    return max(log(w_max, alpha) if w_max > 1 else 0.0, 1.0)


def bound_shape(m: int, d: int, alpha: int, w_max: int) -> float:
    """Reference runtime shape alpha * m * log_alpha(w_max) * ln(max(alpha*m,
    alpha*d*w_max)), with the weight factor of ``_log_weight``."""
    return (alpha * m * _log_weight(alpha, w_max)
            * log(max(alpha * m, alpha * d * w_max)))


def contrast_bound(m: int, alpha: int, w_max: int) -> float:
    """Budget shape for the fast-vs-slow contrast experiment: with
    core = alpha * m * log_alpha(w_max), the bound is core * ln(core)."""
    core = alpha * m * _log_weight(alpha, w_max)
    return core * log(max(core, e))


def scaling_plan(trials: int = 12, base_seed: int = 20260821,
                 sizes: Sequence[int] = (64, 128, 256)) -> BenchPlan:
    """Canonical scaling-experiment plan: rls and ea on random edge-edit and
    weight-edit families at edit scales 1, 4 and 16, n = m/2, weights up to
    2^14, 8x bound_shape budget headroom, one well-separated seed block per
    cell."""
    cells = []
    alpha, w_max = 2, 2 ** 14
    for variant in ("E", "W"):
        for algorithm in ("rls", "ea"):
            for m in sizes:
                for d in (1, 4, 16):
                    budget = ceil(8 * bound_shape(m, d, alpha, w_max))
                    cells.append(BenchCell(
                        variant=variant, algorithm=algorithm, alpha=alpha,
                        trials=trials, budget=budget,
                        seed=base_seed + 1000 * len(cells),
                        kind="random", n=m // 2, m=m, d=d, w_max=w_max))
    return BenchPlan(tuple(cells))


@dataclass(frozen=True)
class ScalingCell:
    """Scaling statistics of one (variant, algorithm, D, alpha, wmax) group
    across its m values."""

    variant: str
    algorithm: str
    d_scale: int
    alpha: int
    wmax: int
    ms: tuple[int, ...]
    medians: tuple[float, ...]
    success_rates: tuple[float, ...]
    bounds: tuple[float, ...]
    ratios: tuple[float, ...]
    fit_constant: float       # least-squares constant over the ratios
    spread: float             # max ratio / min ratio
    within_band: bool         # spread <= 4
    super_bound_growth: bool  # ratios strictly increase across every m


def scaling_report(records: Sequence[BenchRecord]
                   ) -> tuple[ScalingCell, ...]:
    """Group rows by everything but m and compare median evaluations against
    bound_shape across m.

    Requires at least one group spanning >= 3 distinct m values; groups with
    fewer are dropped (a stray extra cell in the CSV is not data).  Medians
    are floored at one evaluation for the ratio statistics: a zero median
    (instances already solved by the carried-over values) has no log-scale
    ratio, and it cannot witness super-bound growth either way.
    """
    groups: dict[tuple, dict[int, list[BenchRecord]]] = {}
    for r in records:
        key = (r.variant, r.algorithm, r.d_scale, r.alpha, r.wmax)
        groups.setdefault(key, {}).setdefault(r.m, []).append(r)
    cells = []
    for key in sorted(groups):
        by_m = groups[key]
        if len(by_m) < 3:
            continue
        variant, algorithm, d_scale, alpha, wmax = key
        ms = tuple(sorted(by_m))
        medians = tuple(
            float(statistics.median([r.evaluations for r in by_m[m]]))
            for m in ms)
        rates = tuple(
            sum(r.success for r in by_m[m]) / len(by_m[m]) for m in ms)
        bounds = tuple(bound_shape(m, d_scale, alpha, wmax) for m in ms)
        ratios = tuple(max(med, 1.0) / b for med, b in zip(medians, bounds))
        fit = statistics.fmean(ratios)
        spread = max(ratios) / min(ratios)
        super_growth = all(b > a for a, b in zip(ratios, ratios[1:]))
        cells.append(ScalingCell(
            variant, algorithm, d_scale, alpha, wmax, ms, medians, rates,
            bounds, ratios, fit, spread, spread <= 4.0, super_growth))
    if not cells:
        raise ValueError(
            "scaling report needs >= 3 distinct m values for some "
            "(variant, algorithm, D, alpha, wmax) group")
    return tuple(cells)


def format_scaling_report(cells: Sequence[ScalingCell]) -> str:
    lines = []
    for c in cells:
        lines.append(f"variant={c.variant} algorithm={c.algorithm}"
                     f" D={c.d_scale} alpha={c.alpha}"
                     f" wmax={encode_wmax(c.wmax, c.alpha)}")
        for m, med, rate, b, r in zip(c.ms, c.medians, c.success_rates,
                                      c.bounds, c.ratios):
            lines.append(f"  m={m} median_evals={med:g} success={rate:.2f}"
                         f" bound={b:.1f} ratio={r:.4g}")
        lines.append(f"  fit_constant={c.fit_constant:.4g}"
                     f" spread={c.spread:.3g}"
                     f" within_factor_4={'yes' if c.within_band else 'no'}"
                     f" super_bound_growth="
                     f"{'yes' if c.super_bound_growth else 'no'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# run log (optional line-oriented trace for solve --log)
# ---------------------------------------------------------------------------


class RunLogger:
    """Streams one CSV-compatible line per evaluation: index, accepted, |I|,
    direction, sign after the step, and a decimal approximation of sum(Y)
    tracked incrementally from the changed values.  The decimal is
    recomputed only after a step that changed a value.  ``__call__`` runs
    once per evaluation: it reads a record in one unpack by position."""

    HEADER = "eval,accepted,i_size,direction,sign,sum_y"

    def __init__(self, fh: TextIO, instance: DynamicInstance,
                 alpha: int) -> None:
        self._write = fh.write
        self._alpha = canonicalize_alpha(alpha)
        # exact per-coordinate totals: int starts keep int totals
        rows = oracle.coefficient_rows(self._alpha, instance.y_init)
        self._total = [sum(row[k] for row in rows)
                       for k in range(self._alpha.basis_dim)]
        self._sum_text = f"{float_value(self._total, self._alpha):.6g}"
        fh.write(self.HEADER + "\n")

    def __call__(self, rec: TransitionRecord) -> None:
        i, accepted, direction, _before, sign, edges, changed, _v, _d = rec
        if changed:
            total = self._total
            for _e, old, new in changed:
                for k, (a, b) in enumerate(zip(old, new)):
                    total[k] += b - a
            self._sum_text = f"{float_value(total, self._alpha):.6g}"
        self._write(f"{i},{1 if accepted else 0},{len(edges)},{direction},"
                    f"{sign},{self._sum_text}\n")
