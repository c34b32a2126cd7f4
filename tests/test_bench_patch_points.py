"""The benchmark under perfbench/ reads named parts of the program: its
tracer (perfbench/tracing.py) wraps named functions while it runs, and its
workloads (perfbench/workloads.py) build cells from harness names.  This
holds those patch points and names, so a deletion or rename under src/
fails here rather than in ``perfbench/run.py``."""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402
from tracing import SPANNED, Tracer  # noqa: E402

#: The modules perfbench's ``core.load_program`` hands the tracer.
MODULES = ("numeric", "graph", "dual", "oracle", "instances", "heuristics",
           "harness")


def attributes(prog):
    out = {(name, attr): value for name in MODULES
           for attr, value in vars(getattr(prog, name)).items()}
    out["harness", "RunLogger.__call__"] = prog.harness.RunLogger.__call__
    return out


def test_tracer_wraps_and_restores_every_patch_point():
    prog = SimpleNamespace(**{name: importlib.import_module(f"dualvc.{name}")
                              for name in MODULES})
    before = attributes(prog)
    with Tracer().installed(prog):
        inside = attributes(prog)
    after = attributes(prog)
    wrapped = {key for key, value in before.items()
               if inside[key] is not value}
    assert wrapped == {(mod, attr) for mod, attr, _name in SPANNED} | {
        ("heuristics", "sign_of_coeffs"), ("harness", "float_value"),
        ("harness", "RunLogger.__call__")}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_benchmark_workloads_build_against_this_source():
    """Every workload's trial list builds from this harness, and its first
    trial builds an instance and a run configuration."""
    harness = importlib.import_module("dualvc.harness")
    heuristics = importlib.import_module("dualvc.heuristics")
    for name in workloads.WORKLOADS:
        trials = workloads.trials_for(name, harness, workloads.DEFAULT_SEED)
        cell, t, _hook = trials[0]
        instance = harness.build_instance(cell, t)
        heuristics.RunConfig(cell.algorithm, cell.alpha, instance.w_max,
                             cell.budget, cell.seed + t)
