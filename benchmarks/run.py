"""Benchmark cdanneal end to end (untraced) or per layer (traced).

    python3 benchmarks/run.py --workload desk-sweep --seed 1 --seconds 25 --trace 0

Runs whole rounds of one workload (see ``workloads.py``) in this single
process until the timed calls have taken ``--seconds``, checks every output
against independent computations, and prints one JSON object as its last
line: ``correct``, ``attempted`` and ``failed`` instances, and the metrics
listed in ``BENCHMARK.json``, end-to-end ones with ``--trace 0`` and
per-layer ones with ``--trace 1``.  The traced run also writes its spans to
``benchmarks/out/trace-<workload>-seed<seed>.jsonl``.  Diagnostics go to
standard error.
"""

from __future__ import annotations

import os

# One BLAS thread: the machine this was sized on has two cores, and a single
# thread keeps timings steady when the benchmark shares the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh processes started to time set-up, before and after the timed
#: rounds so that the median spans the run; the median is reported.
SETUP_PROBES = (2, 2)

#: CPUs this process may use.  Rounds and set-up probes take them in turn:
#: the scheduler keeps a busy process on one core for long stretches, and
#: on a shared machine the cores can differ in speed by 20% for minutes, so
#: a run that stays on one core reads fast or slow depending on where it
#: landed.  Taking the cores in turn gives every run the same mix.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def use_cpu(turn: int | None) -> None:
    """Pin this process (and children it starts) to one CPU, or release it with None."""
    if CPUS:
        os.sched_setaffinity(0, CPUS if turn is None else {CPUS[turn % len(CPUS)]})


#: Check samples every workload must have exercised (and self-tested).
REQUIRED_CHECKS = {
    "desk-sweep": {"ground", "probability", "norms", "entangling", "product-formula", "bytes", "ordering"},
    "two-local-sweep": {"ground", "probability", "norms", "entangling", "product-formula", "bytes", "coefficients", "action"},
    "gap-ensemble": {"gap-curve", "endpoints"},
}


def load_package() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    names = ("harness", "problem", "gauge", "simulator", "spectrum", "schedule")
    return SimpleNamespace(**{n: importlib.import_module(f"cdanneal.{n}") for n in names})


def prepare(name: str, seed: int):
    """Everything a run does before its first timed call."""
    pkg = load_package()
    import workloads

    out_dir = OUT / f"{name}-{os.getpid()}"
    if name == "desk-sweep":
        workload = workloads.Sweep(
            pkg, seed, out_dir, (4, 6, 8, 10, 12), ("none", "local-y", "nc1"), ordering=True
        )
    elif name == "two-local-sweep":
        workload = workloads.Sweep(
            pkg, seed, out_dir, (4, 6, 8), ("none", "nc1", "two-local"), ordering=False
        )
    else:
        workload = workloads.GapEnsemble(pkg, seed)
    return pkg, workload


def measure_setup(name: str, seed: int, probes: int) -> list[float]:
    """Wall times from starting a fresh interpreter to its first timed call."""
    times = []
    command = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", name, "--seed", str(seed)]
    for turn in range(probes):
        use_cpu(turn)
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        use_cpu(None)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
    return times


def capture_evolutions(harness, sink: list) -> None:
    """Keep each evolution's step norms, which run_ensemble does not return."""
    original = harness.trotter_evolve

    def evolve(inst, sched, ansatz, **kwargs):
        report = original(inst, sched, ansatz, **kwargs)
        sink.append((inst.n, ansatz.value, report.step_norms))
        return report

    harness.trotter_evolve = evolve


def run_rounds(workload, seconds: float, tracer, evolutions: list):
    """Run whole rounds until the timed calls reach ``seconds``.

    With a tracer, each round runs twice on the same inputs, once traced and
    once not, in alternating order; the outputs of the traced copy are
    checked and the time ratio of the two copies is the tracing overhead.
    """
    totals = defaultdict(float)
    counts = defaultdict(int)
    samples: dict[str, tuple] = {}
    index = 0
    # Rounds that fail at once would otherwise spin for long without adding
    # timed seconds; the wall-clock limit keeps such a run short.
    deadline = time.perf_counter() + 2 * seconds + 10
    while totals["traced"] + totals["untraced"] < seconds and time.perf_counter() < deadline:
        copies = [False] if tracer is None else [index % 2 == 1, index % 2 == 0]
        use_cpu(index)
        output = checked = None
        for traced in copies:
            evolutions.clear()
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                result = workload.run(index)
            except Exception:
                traceback.print_exc()
                result = None
            finally:
                totals["traced" if traced else "untraced"] += time.perf_counter() - start
                if traced:
                    tracer.uninstall()
            if result is None:
                output = None
                break
            if traced or tracer is None:
                output, checked = result, list(evolutions)
        size = workload.instances_per_round
        counts["attempted"] += size
        try:
            outcome = None if output is None else workload.check(index, output, checked, samples)
        except Exception:
            traceback.print_exc()
            outcome = None
        if outcome is None:
            counts["failed"] += size
        else:
            counts["failed"] += outcome.failed
            counts["excluded"] += outcome.excluded
            counts["done"] += outcome.instances - outcome.failed - outcome.excluded
            for message in outcome.messages:
                print(f"check failed: {message}", file=sys.stderr)
        index += 1
    use_cpu(None)
    return totals, counts, samples, index


def percentile_tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples above it (nearest rank).

    Needs 40 samples; with fewer the median is returned with percentile 50.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 40:
        return statistics.median(ordered), 50
    pct = max(q for q in range(50, 100) if count - -(-q * count // 100) >= 10)
    return ordered[-(-pct * count // 100) - 1], pct


def layer_metrics(tracer, instances: int, totals, counts) -> dict[str, float]:
    """Per-layer values from the spans; calls and self times are per traced instance."""
    own = tracer.self_times()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for span, seconds in zip(tracer.spans, own):
        for name in (span.name, span.name.rsplit(".", 1)[0]):
            calls[name] += 1
            self_s[name] += seconds
    per = max(instances, 1)
    values = {}
    for name in calls:
        values[f"{name}.calls"] = calls[name] / per
        values[f"{name}.self_s"] = self_s[name] / per

    steps = defaultdict(list)
    exponentials = 0
    evolve_s = 0.0
    samples_stored = 0
    emitted = 0
    extent: dict[str, list[float]] = {}
    for span in tracer.spans:
        attrs = span.attrs
        if span.name.startswith("simulator.trotter_evolve."):
            drive = span.name.rsplit(".", 1)[1]
            steps[f"simulator.step_ms.{drive}.n{attrs['n']}"].append(attrs["loop_s"] / attrs["steps"] * 1e3)
            exponentials += attrs["exponentials"]
            evolve_s += span.end - span.start
        samples_stored += attrs.get("samples", 0)
        emitted += attrs.get("bytes", 0)
        if span.instance is not None:
            lo, hi = extent.setdefault(span.instance, [span.start, span.end])
            extent[span.instance] = [min(lo, span.start), max(hi, span.end)]
    for name, per_step in steps.items():
        values[name] = statistics.median(per_step)
    values["simulator.exponentials"] = exponentials / per
    values["simulator.exponentials_per_s"] = exponentials / evolve_s if evolve_s else 0.0
    solves = calls["spectrum.instantaneous_spectrum"]
    values["spectrum.useful_solve_ratio"] = samples_stored / solves if solves else 0.0
    values["harness.emit_report.bytes"] = emitted / per
    instance_ms = [(hi - lo) * 1e3 for lo, hi in extent.values()]
    if instance_ms:
        values["harness.instance_ms.p50"] = statistics.median(instance_ms)
        values["harness.instance_ms.tail"], values["harness.instance_ms.tail_pct"] = percentile_tail(instance_ms)
    values["harness.instance_ms.samples"] = len(instance_ms)
    values["harness.excluded"] = counts["excluded"]
    if totals["untraced"]:
        values["trace.overhead_pct"] = (totals["traced"] / totals["untraced"] - 1.0) * 100.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(REQUIRED_CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cdanneal" / "__init__.py").is_file():
        print(f"error: no cdanneal sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 10**12:
        parser.error("--seed must lie in [0, 1e12)")

    if args.probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    setup_times = []
    if not args.trace:
        # The first start after the machine sat idle reads up to twice as
        # slow as the next ones (cold caches), so it is made and discarded.
        measure_setup(args.workload, args.seed, 1)
        setup_times = measure_setup(args.workload, args.seed, SETUP_PROBES[0])

    pkg, workload = prepare(args.workload, args.seed)
    import reference
    from spans import Tracer

    evolutions: list = []
    capture_evolutions(pkg.harness, evolutions)
    tracer = Tracer(vars(pkg)) if args.trace else None
    try:
        totals, counts, samples, rounds = run_rounds(workload, args.seconds, tracer, evolutions)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            run_fails = workload.finish(samples)
        except Exception as exc:
            traceback.print_exc()
            run_fails = [f"run-wide checks raised {exc!r}"]
    finally:
        workload.cleanup()
    if not args.trace:
        setup_times += measure_setup(args.workload, args.seed, SETUP_PROBES[1])

    missing = REQUIRED_CHECKS[args.workload] - set(samples)
    run_fails += [f"check {name} never ran" for name in sorted(missing)]
    run_fails += [f"check {name} accepted a perturbed value" for name in reference.self_test(samples)]
    for message in run_fails:
        print(f"check failed: {message}", file=sys.stderr)

    if args.trace:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        values = layer_metrics(tracer, counts["attempted"], totals, counts)
    else:
        values = {
            "instances_per_s": counts["done"] / totals["untraced"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
    print(
        f"{args.workload}: {rounds} rounds, {counts['attempted']} instances, "
        f"{counts['failed']} failed, {counts['excluded']} excluded, "
        f"timed {totals['untraced'] + totals['traced']:.2f} s",
        file=sys.stderr,
    )
    result = {
        "correct": not run_fails,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
