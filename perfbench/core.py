"""Loading the program, running one pass over a workload's trials, and the
order statistics the benchmark reports.

A *pass* runs every trial of a workload once, in order, on instances built
beforehand, with a sample of the reference kernel before each trial and
after the last.  A trial is timed from hook creation to the end of
``harness.verify_final`` (called only on reported successes, as ``dualvc
bench`` does), and fails when that check raises, when its deterministic row
differs from the expected one, or when an attached observer saw something
impossible.
"""

from __future__ import annotations

import importlib
import io
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = HERE / "golden"

#: The tail percentile leaves at least this many trials above it.
TAIL_MIN_ABOVE = 10


#: The reference kernel's duration at nominal machine speed.  Trial and
#: set-up times are reported at that speed (see ``at_nominal_speed``).
REFERENCE_MS = 2.5
REFERENCE_N = 2_000


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/dualvc`` to benchmark."""


def load_program() -> SimpleNamespace:
    """Import ``dualvc`` afresh from this checkout's ``src`` and return its
    modules.  Earlier imports are dropped first, so every call pays the
    full import."""
    if not (SRC / "dualvc" / "__init__.py").is_file():
        raise ProgramMissing(f"no dualvc package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "dualvc" or n.startswith("dualvc.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dualvc")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"dualvc was imported from {pkg.__file__}")
    mods = {n: sys.modules[f"dualvc.{n}"]
            for n in ("numeric", "graph", "dual", "oracle", "instances",
                      "heuristics", "harness")}
    return SimpleNamespace(**mods)


def build_instances(prog, trials) -> list:
    return [prog.harness.build_instance(cell, t) for cell, t, _ in trials]


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------


def reference_kernel() -> tuple:
    """Fixed pure-Python work that shares no code with ``dualvc``: integer
    arithmetic, small tuples and a dict, like the engines' inner loops."""
    counts: dict = {}
    x = 12345
    acc = (0, 0, 0, 0)
    for i in range(REFERENCE_N):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        step = (x & 255, (x >> 8) & 255, i, 1)
        acc = tuple(a + b for a, b in zip(acc, step))
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
    return acc


def reference_ms() -> float:
    """Wall time of one ``reference_kernel`` call, in milliseconds."""
    t0 = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - t0) * 1000.0


def at_nominal_speed(ms: float, ref_before: float, ref_after: float) -> float:
    """Scale a time measured between two reference samples to the nominal
    machine speed.

    On a shared machine the speed drifts by a fifth or more over minutes,
    and a slow spell can span a whole run.  The reference kernel
    slows down with it, while its work never changes, so the ratio of a
    trial's time to the kernel's time around it measures the program, not
    the machine.
    """
    return ms * REFERENCE_MS * 2.0 / (ref_before + ref_after)


# ---------------------------------------------------------------------------
# observers
# ---------------------------------------------------------------------------


class CountingHook:
    """Per-evaluation observer that counts acceptance branches, empty
    selections and demoted edges, and checks criterion 1: an accepted step
    never lowers the sign."""

    __slots__ = ("counts", "evaluations", "empty", "demotions", "sign_drops")

    def __init__(self) -> None:
        self.counts = [0] * 8   # index: feasible*4 + up*2 + accepted
        self.evaluations = 0
        self.empty = 0
        self.demotions = 0
        self.sign_drops = 0

    def __call__(self, rec) -> None:
        self.evaluations += 1
        self.counts[(rec.sign_before > 0) * 4 + (rec.direction > 0) * 2
                    + rec.accepted] += 1
        if not rec.edges:
            self.empty += 1
        if rec.demoted:
            self.demotions += len(rec.demoted)
        if rec.accepted and rec.sign_after < rec.sign_before:
            self.sign_drops += 1

    def branch_counts(self) -> dict:
        """``{branch: (accepted, rejected)}`` over the four branches."""
        out = {}
        for feasible, up, branch in ((1, 1, "feas_up"), (1, 0, "feas_down"),
                                     (0, 1, "infeas_up"),
                                     (0, 0, "infeas_down")):
            base = feasible * 4 + up * 2
            out[branch] = (self.counts[base + 1], self.counts[base])
        return out

    def merge(self, other: "CountingHook") -> None:
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.evaluations += other.evaluations
        self.empty += other.empty
        self.demotions += other.demotions
        self.sign_drops += other.sign_drops


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    rows: list = field(default_factory=list)
    trial_ms: list = field(default_factory=list)
    ref_ms: list = field(default_factory=list)
    wall_s: float = 0.0
    run_s: float = 0.0
    verify_s: float = 0.0
    evaluations: int = 0
    accepted: int = 0
    successes: int = 0
    exhausted: int = 0
    logger_evals: int = 0
    algo_run_s: dict = field(default_factory=dict)
    algo_evals: dict = field(default_factory=dict)
    counted: CountingHook = field(default_factory=CountingHook)
    failed: int = 0
    problems: list = field(default_factory=list)


def row_of(prog, cell, t, instance, result) -> str:
    """The deterministic CSV prefix ``harness.run_trial`` would record."""
    w_cap = instance.w_max if cell.kind == "hard" else cell.w_max
    return prog.harness.BenchRecord(
        cell.variant, cell.algorithm, cell.m, instance.d_scale, cell.alpha,
        w_cap, cell.seed + t, result.evaluations, result.success,
        0.0).row_prefix()


def run_pass(prog, trials, instances, expected=None, tracer=None,
             count_all=False) -> PassResult:
    """Run every trial once.

    ``expected`` holds one row per trial; a different row fails the trial.
    ``tracer`` (a ``tracing.Tracer``) opens one span per trial, and
    ``count_all`` attaches a ``CountingHook`` to every trial, not only to
    those whose workload asks for one.
    """
    h = prog.harness
    heur = prog.heuristics
    out = PassResult(algo_run_s=dict.fromkeys(heur.ALGORITHMS, 0.0),
                     algo_evals=dict.fromkeys(heur.ALGORITHMS, 0))
    start = time.perf_counter()
    for i, ((cell, t, kind), inst) in enumerate(zip(trials, instances)):
        out.ref_ms.append(reference_ms())
        with tracer.span("trial", trace=i) if tracer else nullcontext():
            t0 = time.perf_counter()
            logbuf = logger = counter = None
            if kind == "logger":
                logbuf = io.StringIO()
                logger = h.RunLogger(logbuf, inst, cell.alpha)
            if kind == "count" or count_all:
                counter = CountingHook()
            if logger and counter:
                def hook(rec, _a=logger, _b=counter):
                    _a(rec)
                    _b(rec)
            else:
                hook = logger or counter
            config = heur.RunConfig(cell.algorithm, cell.alpha, inst.w_max,
                                    cell.budget, cell.seed + t)
            result = heur.run(inst, config, hook)
            t1 = time.perf_counter()
            problem = None
            if result.success:
                try:
                    h.verify_final(inst, cell.alpha, result.final_coeffs)
                except RuntimeError as exc:
                    problem = f"verify_final: {exc}"
            t2 = time.perf_counter()

        row = row_of(prog, cell, t, inst, result)
        if expected is not None and row != expected[i]:
            problem = f"row {row!r} differs from expected {expected[i]!r}"
        if logger and logbuf.getvalue().count("\n") != result.evaluations + 1:
            problem = "RunLogger did not write one line per evaluation"
        if counter:
            if counter.evaluations != result.evaluations:
                problem = "hook saw a different number of evaluations"
            elif counter.sign_drops:
                problem = "an accepted step lowered the sign"
            out.counted.merge(counter)
        if problem:
            out.failed += 1
            out.problems.append(f"trial {i}: {problem}")

        out.rows.append(row)
        out.trial_ms.append((t2 - t0) * 1000.0)
        out.run_s += t1 - t0
        out.verify_s += t2 - t1
        out.evaluations += result.evaluations
        out.accepted += result.accepted
        out.successes += result.success
        out.exhausted += not result.success
        out.algo_run_s[cell.algorithm] += t1 - t0
        out.algo_evals[cell.algorithm] += result.evaluations
        if logger:
            out.logger_evals += result.evaluations
    out.ref_ms.append(reference_ms())
    out.wall_s = time.perf_counter() - start
    return out


# ---------------------------------------------------------------------------
# golden rows
# ---------------------------------------------------------------------------


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.csv"


def load_golden(workload: str) -> list:
    """Rows pinned for the workload's default seed (header line dropped)."""
    lines = golden_path(workload).read_text(encoding="utf-8").splitlines()
    return lines[1:]


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


def tail_percentile(n: int) -> tuple[int, int]:
    """Highest whole percentile ``p`` in 50..99 whose nearest-rank value
    leaves at least ``TAIL_MIN_ABOVE`` of ``n`` samples above it, with that
    count.  Below twice that many samples no such ``p`` exists and the
    median (``p = 50``) is returned with the count it leaves."""
    for p in range(99, 49, -1):
        above = n - ceil(p * n / 100)
        if above >= TAIL_MIN_ABOVE:
            return p, above
    return 50, n - ceil(n / 2)


def percentile(values, p: int) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(ceil(p * len(ordered) / 100), 1) - 1]


def nominal_trial_ms(p: PassResult) -> list:
    """The pass's trial times at nominal machine speed, each scaled by the
    reference samples taken just before and just after it."""
    return [at_nominal_speed(ms, p.ref_ms[i], p.ref_ms[i + 1])
            for i, ms in enumerate(p.trial_ms)]


def per_trial_medians(passes) -> list:
    """Each trial's median time (ms, at nominal speed) across passes."""
    return [statistics.median(ms)
            for ms in zip(*(nominal_trial_ms(p) for p in passes))]


def speed_factor(passes) -> float:
    """Machine speed relative to nominal over the passes (1 = nominal,
    below 1 = slower)."""
    return REFERENCE_MS / statistics.median(
        r for p in passes for r in p.ref_ms)
