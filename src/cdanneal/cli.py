"""Command-line front end.

Subcommands: ``gen`` (write an instance file), ``run`` (single evolution),
``sweep`` (full ensemble pipeline), ``gap`` (gap curves), ``report``
(recompute summary from a records CSV), ``validate`` (oracle check table).

Exit codes: 0 success, 2 usage error, 3 resource cap, 4 numerical failure,
5 I/O failure.  All randomness flows from explicit seeds.  Every command runs
on one BLAS thread (see ``_one_blas_thread``).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path

from .errors import (
    IntegratorError,
    ParameterError,
    ResourceCapError,
    SingularGaugeError,
)
from .gauge import Ansatz
from .harness import (
    ExperimentConfig,
    _sorted_json,
    check_sweep_budget,
    emit_sweep,
    enhancement_metrics,
    records_from_csv,
    run_ensemble,
    summary_to_dict,
)
from .problem import (
    STATEVECTOR_CAP,
    generate_instance,
    ground_state,
    load_instance,
    read_text,
    save_instance,
)
from .schedule import Schedule
from .simulator import sample_shots, success_probability, trotter_evolve
from .spectrum import GAP_SAMPLES, _numpy_openblas, gap_curve
from .validate import run_validation_checks

#: Environment variable naming the default output directory.
OUTPUT_DIR_ENV = "CDANNEAL_OUTPUT_DIR"


def _one_blas_thread() -> None:
    """Run this process, and every process it starts, on one BLAS thread.

    numpy and scipy each bundle an OpenBLAS, and a second thread moves the
    last bits of some solves.  Dense spectra run on numpy's (see
    ``cdanneal.spectrum``); scipy's loads only with the first Lanczos solve
    or ODE reference.  Each library reads ``OPENBLAS_NUM_THREADS`` when it
    loads, and ``--jobs`` workers inherit the environment.  numpy's is
    loaded by the time a command runs, so its count is set through the
    function it exports.  A numpy build without that library keeps its own
    count.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    lib = _numpy_openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


def _default_output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdanneal",
        description="Digitized counterdiabatic evolution benchmarks for Ising spin glasses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate and save a random instance")
    gen.add_argument("--n", type=int, required=True, help="qubit count")
    gen.add_argument("--seed", type=int, required=True, help="generation seed")
    gen.add_argument("--out", type=Path, default=None, help="output JSON path")
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="evolve one instance and print P_s")
    run.add_argument("--instance", type=Path, required=True)
    run.add_argument("--T", type=float, default=1.0, dest="total_time")
    run.add_argument("--M", type=int, default=20, dest="trotter_steps")
    run.add_argument("--ansatz", default="none")
    run.add_argument("--shots", type=int, default=None)
    run.add_argument("--shot-seed", type=int, default=0)
    run.add_argument("--out", type=Path, default=None, help="optional record JSON path")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run the configured ensemble pipeline")
    sweep.add_argument("--config", type=Path, required=True)
    sweep.add_argument("--master-seed", type=int, default=None)
    sweep.add_argument("--n", type=int, action="append", default=None, dest="n_values")
    sweep.add_argument("--instances-per-n", type=int, default=None)
    sweep.add_argument("--total-time", type=float, default=None)
    sweep.add_argument("--trotter-steps", type=int, default=None)
    sweep.add_argument("--ansatz", action="append", default=None)
    sweep.add_argument("--shots", type=int, default=None)
    sweep.add_argument("--output-dir", default=None)
    sweep.add_argument("--jobs", type=int, default=None)
    sweep.add_argument("--compute-gaps", action="store_true", default=None)
    sweep.add_argument("--gap-samples", type=int, default=None)
    sweep.add_argument("--quiet", action="store_true")
    sweep.set_defaults(func=cmd_sweep)

    gap = sub.add_parser("gap", help="gap curve for an instance, CD vs baseline")
    gap.add_argument("--instance", type=Path, required=True)
    gap.add_argument("--T", type=float, default=1.0, dest="total_time")
    gap.add_argument("--ansatz", default="nc1")
    gap.add_argument("--samples", type=int, default=GAP_SAMPLES)
    gap.add_argument("--out", type=Path, default=None, help="output CSV path")
    gap.set_defaults(func=cmd_gap)

    report = sub.add_parser("report", help="recompute the summary from a records CSV")
    report.add_argument("--records", type=Path, required=True)
    report.add_argument("--out-dir", type=Path, default=None)
    report.set_defaults(func=cmd_report)

    validate = sub.add_parser("validate", help="run the oracle check table")
    validate.add_argument("--seed", type=int, default=20220301)
    validate.set_defaults(func=cmd_validate)

    return parser


def cmd_gen(args) -> int:
    if args.n > STATEVECTOR_CAP:
        raise ResourceCapError(
            f"n={args.n} exceeds the state-vector cap {STATEVECTOR_CAP}"
        )
    inst = generate_instance(args.n, args.seed)
    out = args.out or _default_output_dir() / f"instance-n{args.n}-s{args.seed}.json"
    save_instance(inst, out)
    truth = ground_state(inst)
    states = ", ".join(format(s, f"0{inst.n}b") for s in truth.states)
    print(f"wrote {out}")
    print(f"ground energy {truth.energy!r}")
    print(f"ground states [{states}] degenerate={str(truth.degenerate).lower()}")
    return 0


def cmd_run(args) -> int:
    # sample_shots checks these too, but only after the whole evolution.
    if args.shots is not None and (not 1 <= args.shots < 2**63 or args.shot_seed < 0):
        raise ParameterError(
            f"need --shots in [1, 2**63), --shot-seed >= 0, got {args.shots} and {args.shot_seed}"
        )
    inst = load_instance(args.instance)
    ansatz = Ansatz.parse(args.ansatz)
    sched = Schedule(args.total_time, args.trotter_steps)
    truth = ground_state(inst)
    report = trotter_evolve(inst, sched, ansatz)
    ps = success_probability(report.final_state, truth)
    if args.shots is not None:
        counts = sample_shots(report.final_state, args.shots, args.shot_seed)
    print(f"P_s {ps!r}")
    print(
        f"entangling exponentials {report.entangling_per_step}/step, "
        f"{report.entangling_total} total; singles {report.single_per_step}/step"
    )
    print(f"final norm {report.step_norms[-1]!r}")
    payload = {
        "instance": str(args.instance),
        "n": inst.n,
        "seed": inst.seed,
        "ansatz": ansatz.value,
        "total_time": args.total_time,
        "trotter_steps": args.trotter_steps,
        "P_s": ps,
        "entangling_per_step": report.entangling_per_step,
        "entangling_total": report.entangling_total,
        "single_per_step": report.single_per_step,
        "degenerate": truth.degenerate,
    }
    if args.shots is not None:
        estimate = sum(counts.get(s, 0) for s in truth.states) / args.shots
        payload["shots"] = args.shots
        payload["P_s_sampled"] = estimate
        print(f"sampled P_s {estimate!r} ({args.shots} shots)")
        top = sorted(counts.items(), key=lambda kv: -kv[1])[:8]
        for index, count in top:
            print(f"  {format(index, f'0{inst.n}b')}  {count}")
    if args.out is not None:
        Path(args.out).write_text(_sorted_json(payload))
        print(f"wrote {args.out}")
    return 0


def _print_avg_ps(n: int, data: dict) -> None:
    avg = ", ".join(
        f"{tag}={value:.4f}" for tag, value in data["avg_ps"].items() if value is not None
    )
    print(f"n={n}: avg P_s {avg}")


def cmd_sweep(args) -> int:
    # Every sweep flag's dest is the config field it overrides.
    names = (f.name for f in dataclasses.fields(ExperimentConfig))
    overrides = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    cfg = ExperimentConfig.from_dict(ExperimentConfig.from_file(args.config).to_dict() | overrides)

    progress = cost_progress = None
    if not args.quiet:
        total = len(cfg.n_values) * cfg.instances_per_n
        started = time.perf_counter()
        done = 0

        def progress(record):
            nonlocal done
            done += 1
            rate = done / max(time.perf_counter() - started, 1e-9)
            print(
                f"instance {record.instance_id} (n={record.n}) done, {done}/{total}, "
                f"{rate:.2f} instances/s, ETA {(total - done) / rate:.0f} s",
                file=sys.stderr,
            )
            for tag, (site, lam, step) in record.exclusions.items():
                where = "global coefficient" if site is None else f"site {site}"
                print(
                    f"  excluded {tag}: singular gauge at {where}, lam={lam}, step {step}",
                    file=sys.stderr,
                )

        def cost_progress(n, seed, k, total_jobs):
            print(f"cost sample n={n} seed={seed} done, {k}/{total_jobs}", file=sys.stderr)

    check_sweep_budget(cfg)
    records = run_ensemble(cfg, progress=progress)
    summary = enhancement_metrics(records)
    # An absolute output_dir replaces the default directory.
    out_dir = _default_output_dir() / cfg.output_dir
    paths = emit_sweep(summary, records, cfg, out_dir, progress=cost_progress)

    for n, data in sorted(summary.per_n.items()):
        _print_avg_ps(n, data)
        for tag, value in data["r_enh"].items():
            enh = data["p_enh_avg"][tag]
            enh_text = "n/a" if enh is None else f"{enh:.3f}"
            r_text = "n/a" if value is None else f"{value:.3f}"
            print(f"  {tag}: R_enh={r_text} P_enh_avg={enh_text}")
    print(f"report written to {out_dir}")
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}")
    return 0


def cmd_gap(args) -> int:
    inst = load_instance(args.instance)
    ansatz = Ansatz.parse(args.ansatz)
    sched = Schedule(args.total_time, max(args.samples - 1, 1))
    lines = ["t,lambda,gap,ansatz,instance_id"]
    for tag in (ansatz, Ansatz.NONE) if ansatz is not Ansatz.NONE else (Ansatz.NONE,):
        curve = gap_curve(inst, sched, tag, args.samples)
        lines.extend(
            f"{t!r},{lam!r},{gap!r},{tag.value},{inst.seed}"
            for t, lam, gap in zip(curve.times, curve.lams, curve.gaps)
        )
        print(f"{tag.value}: delta_min {curve.delta_min!r} at t={curve.argmin_time!r}")
    out = args.out or _default_output_dir() / f"gap-n{inst.n}-s{inst.seed}.csv"
    Path(out).write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_report(args) -> int:
    records, embedded_hash = records_from_csv(read_text(args.records))
    summary = enhancement_metrics(records)
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.records).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "summary.json"
    out.write_text(_sorted_json(summary_to_dict(summary, embedded_hash or "unknown")))
    for n, data in sorted(summary.per_n.items()):
        _print_avg_ps(n, data)
    print(f"wrote {out}")
    return 0


def cmd_validate(args) -> int:
    results = run_validation_checks(seed=args.seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name:<{width}}  {status}  {result.detail}")
        failures += 0 if result.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _one_blas_thread()
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except (SingularGaugeError, IntegratorError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
