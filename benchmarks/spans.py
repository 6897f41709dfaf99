"""Span tracing from outside the package.

``Tracer.install`` replaces public functions in the module namespaces where
their callers look them up (``cdanneal.harness.trotter_evolve``,
``cdanneal.simulator.cd_coefficients``, ...) with wrappers that record one
span per call: name, start, end, parent span and instance id.  Spans stay in
memory; ``write`` dumps them as JSON lines when the run ends.  ``uninstall``
puts the original functions back, so untraced rounds run the package as is.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    instance: str | None = None
    attrs: dict = field(default_factory=dict)


def _drive(position: int):
    """Span-name suffix taken from the Ansatz argument at ``position``."""

    def suffix(args, kwargs):
        ansatz = args[position] if len(args) > position else kwargs["ansatz"]
        return "." + ansatz.value

    return suffix


def _trotter_attrs(args, kwargs, report):
    return {
        "n": args[0].n,
        "steps": args[1].steps,
        "loop_s": report.wall_seconds,
        "exponentials": report.operator_applications,
    }


def _gap_attrs(args, kwargs, curve):
    return {"samples": len(curve.gaps)}


def _emit_attrs(args, kwargs, paths):
    return {"bytes": sum(p.stat().st_size for p in paths.values())}


# (module, attribute, span name, name suffix, result attributes, role)
# role "instance": the call starts a new problem instance (its args are n, seed);
# role "top": a call made by the benchmark itself, outside any instance.
HOOKS = (
    ("harness", "run_ensemble", "harness.run_ensemble", None, None, "top"),
    ("harness", "enhancement_metrics", "harness.enhancement_metrics", None, None, "top"),
    ("harness", "emit_report", "harness.emit_report", None, _emit_attrs, "top"),
    ("harness", "generate_instance", "problem.generate_instance", None, None, "instance"),
    ("problem", "generate_instance", "problem.generate_instance", None, None, "instance"),
    ("harness", "ground_state", "problem.ground_state", None, None, None),
    ("harness", "trotter_evolve", "simulator.trotter_evolve", _drive(2), _trotter_attrs, None),
    ("harness", "success_probability", "simulator.success_probability", None, None, None),
    ("spectrum", "gap_curve", "spectrum.gap_curve", _drive(2), _gap_attrs, None),
    ("simulator", "cd_terms", "gauge.cd_terms", None, None, None),
    ("simulator", "cd_coefficients", "gauge.cd_coefficients", _drive(1), None, None),
    ("gauge", "cd_terms", "gauge.cd_terms", None, None, None),
    ("gauge", "cd_coefficients", "gauge.cd_coefficients", _drive(1), None, None),
    ("spectrum", "instantaneous_spectrum", "spectrum.instantaneous_spectrum", None, None, None),
    ("spectrum", "assemble_hamiltonian", "gauge.assemble_hamiltonian", None, None, None),
    ("spectrum", "to_dense", "pauli.to_dense", None, None, None),
)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.instance: str | None = None
        self.originals: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    def install(self) -> None:
        for module_name, attr, name, suffix, attrs, role in HOOKS:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self.originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, suffix, attrs, role))

    def uninstall(self) -> None:
        while self.originals:
            module, attr, original = self.originals.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name, suffix, attrs, role):
        tracer = self

        def traced(*args, **kwargs):
            if role == "instance":
                tracer.instance = f"n{args[0]}-seed{args[1]}"
            elif role == "top":
                tracer.instance = None
            span = Span(
                name + (suffix(args, kwargs) if suffix else ""),
                time.perf_counter(),
                parent=tracer.stack[-1] if tracer.stack else -1,
                instance=tracer.instance,
            )
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, s in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": s.name,
                    "start": s.start - self.origin,
                    "end": s.end - self.origin,
                    "parent": s.parent,
                    "instance": s.instance,
                }
                if s.attrs:
                    record["attrs"] = s.attrs
                out.write(json.dumps(record) + "\n")
