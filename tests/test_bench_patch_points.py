"""The benchmark's tracer (perfbench/tracing.py) wraps named functions of
the program while it runs.  This holds those patch points, so a deletion or
rename under src/ fails here rather than in ``perfbench/run.py``."""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
