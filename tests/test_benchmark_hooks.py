"""The traced benchmark run patches package functions by (module, attribute).

The benchmark under ``benchmarks/`` is frozen between its own revisions, so
the call shapes it relies on are pinned here: a refactor that moves them
fails this suite, not only the benchmark.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

#: What loading ``run.py`` writes into ``os.environ``.
RUN_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DRIVES = ("none", "local-y", "nc1", "two-local")


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve(monkeypatch):
    spans = load("spans", monkeypatch)
    for module_name, attribute, *_ in spans.HOOKS:
        module = importlib.import_module(f"cdanneal.{module_name}")
        assert callable(getattr(module, attribute, None)), f"cdanneal.{module_name}.{attribute}"


def test_benchmark_call_shapes(monkeypatch):
    # Loading run.py sets the BLAS thread variables; monkeypatch puts back
    # what was there, so later subprocesses do not inherit them.
    for var in RUN_ENV:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = load("run", monkeypatch)
    spans = load("spans", monkeypatch)
    pkg = run.load_package()
    monkeypatch.setattr(pkg.harness, "trotter_evolve", pkg.harness.trotter_evolve)

    evolutions = []
    run.capture_evolutions(pkg.harness, evolutions)
    tracer = spans.Tracer(vars(pkg))
    tracer.install()
    try:
        cfg = pkg.harness.ExperimentConfig(
            master_seed=3, n_values=(3, 4), instances_per_n=1, ansatz=DRIVES
        )
        records = pkg.harness.run_ensemble(cfg)
        inst = pkg.problem.generate_instance(4, records[1].seed)
        sched = pkg.schedule.Schedule(1.0, 20)
        nc1 = pkg.gauge.Ansatz.NC1
        curve = pkg.spectrum.gap_curve(inst, sched, nc1, 5)
        values = pkg.gauge.cd_coefficients(inst, nc1, 0.5, 1.0)
    finally:
        tracer.uninstall()

    assert len(curve.gaps) == 5 and len(values) == len(pkg.gauge.cd_terms(inst, nc1))
    assert [(n, drive) for n, drive, _ in evolutions] == [(n, d) for n in (3, 4) for d in DRIVES]
    assert all(len(norms) == 20 for *_, norms in evolutions)
    evolved = [s for s in tracer.spans if s.name.startswith("simulator.trotter_evolve.")]
    assert [s.name.rsplit(".", 1)[1] for s in evolved] == list(DRIVES) * 2
    assert [s.instance for s in evolved] == [f"n{r.n}-seed{r.seed}" for r in records for _ in DRIVES]
    assert [(s.attrs["n"], s.attrs["steps"]) for s in evolved] == [(3, 20)] * 4 + [(4, 20)] * 4
    names = {s.name for s in tracer.spans}
    assert {f"gauge.cd_coefficients.{d}" for d in DRIVES[1:]} <= names
    assert {"problem.ground_state", "spectrum.gap_curve.nc1", "harness.run_ensemble"} <= names
