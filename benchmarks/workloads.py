"""The benchmark's workloads: what one round runs and how its outputs are checked.

A round is the unit of timed work; every round of a workload makes the same
calls on fresh inputs drawn from (seed, round index).  ``run`` is the timed
part and goes through the package's public entry points only; ``check`` is
untimed and compares the outputs with the independent computations in
``reference``.  A check failure fails the instance it concerns.
"""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path

import reference as ref

TOTAL_TIME = 1.0
TROTTER_STEPS = 20

#: Rounds whose small instances get the dense product-formula and
#: least-squares checks (these cost more than the instance itself).
DENSE_CHECK_ROUNDS = 2
DENSE_CHECK_MAX_N = 6

#: Gauge parameters for the two-local coefficient check.
CHECK_LAMS = (0.25, 0.5, 0.75)
CHECK_RATE = 0.8


def round_seed(seed: int, index: int) -> int:
    return seed * 100_000 + index


@dataclasses.dataclass
class Outcome:
    """Per-round bookkeeping handed back to the timing loop in run.py."""

    instances: int
    failed: int = 0
    excluded: int = 0
    messages: list[str] = dataclasses.field(default_factory=list)


class Sweep:
    """run_ensemble -> enhancement_metrics -> emit_report, one instance per size per round."""

    def __init__(self, pkg, seed, out_dir: Path, sizes, drives, ordering: bool):
        self.pkg = pkg
        self.seed = seed
        self.sizes = sizes
        self.drives = drives
        self.ordering = ordering
        self.out_dir = out_dir
        self.instances_per_round = len(sizes)
        self.template = pkg.harness.ExperimentConfig(
            master_seed=round_seed(seed, 0),
            n_values=sizes,
            instances_per_n=1,
            total_time=TOTAL_TIME,
            trotter_steps=TROTTER_STEPS,
            ansatz=drives,
            shots=None,
            output_dir=str(out_dir / "a"),
            jobs=1,
            compute_gaps=False,
        )
        self.ps = {(n, d): [] for n in sizes for d in drives}
        self.first_files: dict[str, bytes] = {}

    def run(self, index: int, out_dir: str | None = None):
        harness = self.pkg.harness
        cfg = dataclasses.replace(self.template, master_seed=round_seed(self.seed, index))
        records = harness.run_ensemble(cfg)
        summary = harness.enhancement_metrics(records)
        paths = harness.emit_report(summary, records, cfg, out_dir or cfg.output_dir)
        return records, paths

    def check(self, index: int, output, evolutions, samples) -> Outcome:
        records, paths = output
        if index == 0:
            self.first_files = {k: paths[k].read_bytes() for k in ("records", "summary")}
        outcome = Outcome(instances=len(records))
        evolutions = iter(evolutions)
        for record in records:
            fails = self._check_record(index, record, evolutions, samples)
            if record.excluded:
                outcome.excluded += 1
            if fails:
                outcome.failed += 1
                outcome.messages += fails
            elif not record.excluded:
                for drive in self.drives:
                    self.ps[(record.n, drive)].append(record.ps[drive])
        return outcome

    def _check_record(self, index, record, evolutions, samples) -> list[str]:
        pkg = self.pkg
        label = f"round {index} n={record.n} seed={record.seed}"
        inst = pkg.problem.generate_instance(record.n, record.seed)
        energy = ref.energies(inst.n, inst.couplings, inst.fields)
        truth = pkg.problem.ground_state(inst)
        args = (label, truth.energy, truth.states, record.degenerate, energy)
        samples.setdefault("ground", args)
        fails = ref.check_ground(*args)
        manifold = ref.ground_manifold(energy)[1]
        dense = index < DENSE_CHECK_ROUNDS and record.n <= DENSE_CHECK_MAX_N
        for drive in self.drives:
            ps = record.ps[drive]
            if ps is None:
                continue
            tag = f"{label} {drive}"
            n, evolved, norms = next(evolutions)
            if (n, evolved) != (record.n, drive):
                return fails + [f"{tag}: evolution order mismatch ({n}, {evolved})"]
            samples.setdefault("probability", (tag, ps))
            samples.setdefault("norms", (tag, norms))
            args = (tag, record.entangling[drive], record.n, drive, TROTTER_STEPS)
            samples.setdefault("entangling", args)
            fails += ref.check_probability(tag, ps)
            fails += ref.check_norms(tag, norms)
            fails += ref.check_entangling(*args)
            if dense:
                fails += self._check_product_formula(tag, inst, drive, ps, manifold, samples)
        if dense and "two-local" in self.drives:
            fails += self._check_two_local(label, inst, samples)
        return fails

    def _check_product_formula(self, tag, inst, drive, ps, manifold, samples):
        gauge = self.pkg.gauge
        ansatz = gauge.Ansatz.parse(drive)
        model = ref.DenseModel(inst.n, inst.couplings, inst.fields)
        dt = TOTAL_TIME / TROTTER_STEPS

        def cd_values(k):
            t = min(k * dt, TOTAL_TIME)
            return gauge.cd_coefficients(
                inst, ansatz, ref.lam(t, TOTAL_TIME), ref.lam_dot(t, TOTAL_TIME)
            )

        psi = model.product_formula(drive, TOTAL_TIME, TROTTER_STEPS, cd_values)
        want = float(sum(abs(psi[b]) ** 2 for b in manifold))
        args = (f"{tag} dense product formula P_s", ps, want, 1e-10)
        samples.setdefault("product-formula", args)
        return ref.check_close(*args)

    def _check_two_local(self, label, inst, samples):
        gauge = self.pkg.gauge
        model = ref.DenseModel(inst.n, inst.couplings, inst.fields)
        fails = []
        for lam in CHECK_LAMS:
            tag = f"{label} lam={lam}"
            got = gauge.cd_coefficients(inst, gauge.Ansatz.TWO_LOCAL, lam, CHECK_RATE) / CHECK_RATE
            nc1_values = gauge.cd_coefficients(inst, gauge.Ansatz.NC1, lam, CHECK_RATE) / CHECK_RATE
            args = (f"{tag} two-local", got, ref.two_local_solve(model, lam))
            samples.setdefault("coefficients", args)
            fails += ref.check_coefficients(*args)
            H, dH = model.adiabatic(lam)
            args = (
                f"{tag} residual action",
                ref.action(dH, H, ref.operator(model, "two-local", got)),
                ref.action(dH, H, ref.operator(model, "nc1", nc1_values)),
            )
            samples.setdefault("action", args)
            fails += ref.check_action(*args)
        return fails

    def finish(self, samples) -> list[str]:
        """Run-wide checks: byte reproducibility and, for the desk sweep, P_s ordering."""
        _, paths = self.run(0, str(self.out_dir / "b"))
        fails = []
        for key, first in self.first_files.items():
            args = (f"{key} file of round 0", first, paths[key].read_bytes())
            samples.setdefault("bytes", args)
            fails += ref.check_bytes(*args)
        if self.ordering:
            order = ("nc1", "local-y", "none")
            for n in self.sizes:
                # At n=4 the nc1 and local-y means differ by ~0.03 with a
                # per-instance spread near 0.2, so a sample of a few dozen
                # cannot resolve their order; there only a significant
                # reversal fails.
                strict = n >= 6
                args = (f"n={n}", {d: self.ps[(n, d)] for d in order}, order, strict)
                if strict:
                    samples.setdefault("ordering", args)
                fails += ref.check_ordering(*args)
        return fails

    def cleanup(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


class GapEnsemble:
    """gap_curve with none and nc1 on one n=8 instance per round, as in the acceptance suite."""

    N = 8
    SAMPLES = 201

    def __init__(self, pkg, seed):
        self.pkg = pkg
        self.seed = seed
        self.instances_per_round = 1
        self.schedule = pkg.schedule.Schedule(TOTAL_TIME, TROTTER_STEPS)
        self.drives = {d: pkg.gauge.Ansatz.parse(d) for d in ("none", "nc1")}

    def run(self, index: int):
        pkg = self.pkg
        inst = pkg.problem.generate_instance(self.N, round_seed(self.seed, index))
        curves = {
            d: pkg.spectrum.gap_curve(inst, self.schedule, a, self.SAMPLES)
            for d, a in self.drives.items()
        }
        return inst, curves

    def check(self, index: int, output, evolutions, samples) -> Outcome:
        inst, curves = output
        label = f"round {index} n={inst.n} seed={inst.seed}"
        model = ref.DenseModel(inst.n, inst.couplings, inst.fields)
        mid = (self.SAMPLES - 1) // 2
        t_mid = TOTAL_TIME * mid / (self.SAMPLES - 1)
        lam, rate = ref.lam(t_mid, TOTAL_TIME), ref.lam_dot(t_mid, TOTAL_TIME)
        mid_gap = {"none": ref.bare_gap(model, lam), "nc1": ref.nc1_gap(model, lam, rate)}
        fails = []
        for drive, curve in curves.items():
            args = (f"{label} {drive}", curve.gaps, curve.delta_min, model.energy, mid, mid_gap[drive])
            samples.setdefault("gap-curve", args)
            fails += ref.check_gap_curve(*args)
        args = (f"{label} none/nc1", curves["none"].gaps, curves["nc1"].gaps)
        samples.setdefault("endpoints", args)
        fails += ref.check_endpoints_agree(*args)
        return Outcome(instances=1, failed=1 if fails else 0, messages=fails)

    def finish(self, samples) -> list[str]:
        return []

    def cleanup(self) -> None:
        pass
