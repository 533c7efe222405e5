"""In-memory spans around calls into the qirb layers.

The traced run replaces public functions of the ``qirb`` modules with
wrappers that record one span per call: name, start, end, parent and a
few counters.  Modules import functions by name (``cli`` holds its own
``simulate_design``, ``pipeline`` its own ``simulate_result``), so a
wrapper is installed on every loaded ``qirb`` module that binds the
original function, not only on the module that defines it.  A traced
function that should run but records no call is reported as an error by
:func:`missing_calls`, so a caller the patching misses cannot pass as a
zero.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("sampler", "builder", "serialize", "pipeline", "simulator", "analysis", "theory", "cli")


def _gates(circuit) -> int:
    return circuit.oneq_gate_count() + circuit.cnot_count()


def _file_attrs(path: str) -> dict:
    return {"bytes": os.path.getsize(path), "file": os.path.basename(path)}


# (span name, defining module, counters taken from (args, kwargs, result)).
# The span name's first component is the layer.
TRACED = (
    ("sampler.sample_core_circuit", "qirb.sampler",
     lambda a, k, r: {"layers": len(r)}),
    ("builder.build_qirb_circuit", "qirb.builder",
     lambda a, k, r: {"gates": _gates(r), "mcms": r.m}),
    ("serialize.write_json", "qirb.serialize", lambda a, k, r: _file_attrs(a[0])),
    ("serialize.read_json", "qirb.serialize", lambda a, k, r: _file_attrs(a[0])),
    ("serialize.circuit_to_obj", "qirb.serialize", None),
    ("serialize.circuit_from_obj", "qirb.serialize", None),
    ("pipeline.build_design_circuits", "qirb.pipeline", None),
    ("pipeline.simulate_design", "qirb.pipeline", None),
    ("pipeline.decay_dataset_from_results", "qirb.pipeline", None),
    ("simulator.simulate_result", "qirb.simulator",
     lambda a, k, r: {"gate_shots": _gates(a[0]) * a[2], "count_keys": len(r.counts or ())}),
    ("analysis.bootstrap_decay", "qirb.analysis",
     lambda a, k, r: {"dropped": a[1] - len(r.bootstrap_samples)}),
    ("analysis.fit_decay", "qirb.analysis", None),
    ("theory.predict_r_omega", "qirb.theory", None),
    ("theory.exact_success_expectation", "qirb.theory", None),
)

# Called by the benchmark's output checks, not by any command.
CHECK_SPANS = frozenset({"theory.exact_success_expectation"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``begin``/``end`` nest through a parent stack.

    A span's counters are taken only when the tracer is uninstalled, so
    the counting (walking circuits, sizing files) lies outside every span,
    the enclosing ones included.
    """

    def __init__(self, on_call=None):
        self.on_call = on_call
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._pending: list[tuple[Span, object, tuple, dict, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.calls[name] = self.calls.get(name, 0) + 1
        return idx

    def end(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx, {"error": True})
                raise
            self.end(idx)
            if counters:
                self._pending.append((self.spans[idx], counters, args, kwargs, result))
            if self.on_call is not None:
                self.on_call(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every ``qirb`` module that binds it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for name, module, counters in TRACED:
            fname = name.split(".", 1)[1]
            original = getattr(sys.modules[module], fname)
            wrapper = self.wrap(name, original, counters)
            for mod_name, mod in sorted(sys.modules.items()):
                if mod_name != "qirb" and not mod_name.startswith("qirb."):
                    continue
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapper)
                    self._installed.append((mod, fname, original))

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._installed):
            setattr(mod, fname, original)
        self._installed.clear()
        for span, counters, args, kwargs, result in self._pending:
            span.attrs.update(counters(args, kwargs, result))
        self._pending.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def to_obj(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "attrs": s.attrs}
                for s in self.spans
            ],
            "self_s": layer_self_times(self.spans),
        }


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.duration - covered)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    totals = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, self_times(spans)):
        totals[s.layer] = totals.get(s.layer, 0.0) + t
    return totals


def missing_calls(calls: dict[str, int]) -> list[str]:
    """Traced functions the commands should call but that recorded no call."""
    return [name for name, _, _ in TRACED if name not in CHECK_SPANS and not calls.get(name)]
