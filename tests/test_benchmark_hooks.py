"""The traced benchmark run patches package functions by (module, attribute)."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_benchmark_hooks_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    for module_name, attribute, *_ in spans.HOOKS:
        module = importlib.import_module(f"cdanneal.{module_name}")
        assert callable(getattr(module, attribute, None)), f"cdanneal.{module_name}.{attribute}"
