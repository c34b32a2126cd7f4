"""Spans and kernel counters recorded from outside the program.

``Tracer.installed(prog)`` replaces public functions of the imported
``dualvc`` modules by wrappers for the duration of a ``with`` block and
restores them afterwards; nothing under ``src/`` changes.  Calls made once
per trial or per build get a span each (name, start, end, parent, and the
trial they belong to).  Kernels called once per evaluation -- the exact sign,
``float_value`` and ``RunLogger.__call__`` -- would make millions of spans,
so they are aggregated instead: a call count and total time, attached to the
span they ran inside.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

_ns = time.perf_counter_ns

#: (module attribute, span name) pairs wrapped with one span per call.
SPANNED = (
    ("harness", "build_instance", "harness.build_instance"),
    ("harness", "random_dynamic", "instances.random_dynamic"),
    ("instances", "apply_edit", "graph.apply_edit"),
    ("oracle", "validate_mfds_naive", "oracle.validate_mfds_naive"),
    ("heuristics", "run", "heuristics.run"),
    ("harness", "verify_final", "harness.verify_final"),
    ("dual", "extract_cover", "dual.extract_cover"),
)

KERNELS = ("numeric.sign.d1", "numeric.sign.d2", "numeric.sign.d4",
           "harness.float_value", "harness.RunLogger.__call__")


class _Span:
    __slots__ = ("tracer", "record", "kernels_at_start")

    def __init__(self, tracer: "Tracer", record: dict) -> None:
        self.tracer = tracer
        self.record = record
        self.kernels_at_start = None

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.kernels_at_start = [c[:] for c in t.kernels.values()]
        t.stack.append(self.record)
        self.record["start_ns"] = _ns()
        return self

    def __exit__(self, *exc) -> None:
        end = _ns()
        t = self.tracer
        rec = self.record
        rec["end_ns"] = end
        t.stack.pop()
        deltas = {}
        for (name, now), then in zip(t.kernels.items(),
                                     self.kernels_at_start):
            if now[0] != then[0]:
                deltas[name] = {"calls": now[0] - then[0],
                                "ns": now[1] - then[1]}
        if deltas:
            rec["kernels"] = deltas
        total = t.totals.setdefault((t.phase, rec["name"]), [0, 0])
        total[0] += 1
        total[1] += end - rec["start_ns"]


class Tracer:
    """In-memory span recorder with per-phase totals.

    ``phase`` labels what the spans belong to (``"setup"`` or ``"pass"``);
    ``totals[(phase, span name)]`` and ``kernel_totals[phase][kernel]`` are
    ``[calls, ns]`` pairs summed over that phase.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.kernels = {name: [0, 0] for name in KERNELS}
        self.totals: dict = {}
        self.kernel_totals: dict = {}
        self.phase = "setup"

    def span(self, name: str, trace=None) -> _Span:
        parent = self.stack[-1] if self.stack else None
        if trace is None and parent is not None:
            trace = parent["trace"]
        record = {"id": len(self.spans), "name": name, "trace": trace,
                  "parent": parent["id"] if parent else None,
                  "phase": self.phase}
        self.spans.append(record)
        return _Span(self, record)

    def set_phase(self, phase: str) -> None:
        """Start a new phase; kernel counts so far go to the old one."""
        acc = self.kernel_totals.setdefault(self.phase, {})
        for name, cell in self.kernels.items():
            got = acc.setdefault(name, [0, 0])
            got[0] += cell[0]
            got[1] += cell[1]
            cell[0] = cell[1] = 0
        self.phase = phase

    def total(self, phase: str, name: str) -> tuple[int, int]:
        calls, ns = self.totals.get((phase, name), (0, 0))
        return calls, ns

    def kernel_total(self, phase: str, name: str) -> tuple[int, int]:
        calls, ns = self.kernel_totals.get(phase, {}).get(name, (0, 0))
        return calls, ns

    # -- wrapping ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, cell: list, fn):
        def wrapper(*args):
            t0 = _ns()
            out = fn(*args)
            cell[1] += _ns() - t0
            cell[0] += 1
            return out
        return wrapper

    def _sign(self, fn):
        cells = {1: self.kernels["numeric.sign.d1"],
                 2: self.kernels["numeric.sign.d2"],
                 4: self.kernels["numeric.sign.d4"]}

        def sign_of_coeffs(coeffs, alpha):
            t0 = _ns()
            out = fn(coeffs, alpha)
            cell = cells[len(coeffs)]
            cell[1] += _ns() - t0
            cell[0] += 1
            return out
        return sign_of_coeffs

    @contextmanager
    def installed(self, prog):
        """Wrap the program's public functions while the block runs."""
        patches = [(getattr(prog, mod), attr, self._spanned(name,
                    getattr(getattr(prog, mod), attr)))
                   for mod, attr, name in SPANNED]
        patches.append((prog.heuristics, "sign_of_coeffs",
                        self._sign(prog.heuristics.sign_of_coeffs)))
        patches.append((prog.harness, "float_value", self._counted(
            self.kernels["harness.float_value"], prog.harness.float_value)))
        patches.append((prog.harness.RunLogger, "__call__", self._counted(
            self.kernels["harness.RunLogger.__call__"],
            prog.harness.RunLogger.__call__)))
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, wrapper in patches:
                setattr(obj, attr, wrapper)
            yield self
        finally:
            for obj, attr, original in saved:
                setattr(obj, attr, original)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)
