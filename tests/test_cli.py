import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdanneal.cli as cli_mod
import cdanneal.gauge as gauge_mod
import cdanneal.harness as harness_mod
import cdanneal.simulator as simulator_mod
import cdanneal.spectrum as spectrum_mod
import cdanneal.validate as validate_mod
from cdanneal.cli import main
from cdanneal.errors import SingularGaugeError
from cdanneal.gauge import Ansatz, CompiledGauge, nc1_coefficient
from cdanneal.problem import ProblemInstance, generate_instance, instance_seed, save_instance
from cdanneal.simulator import DrivenHamiltonian
from cdanneal.validate import run_validation_checks


def run_cli(*argv):
    return main(list(argv))


def single_error_line(err):
    """The one line a failed command writes to stderr; no warning precedes it."""
    lines = err.splitlines()
    assert len(lines) == 1 and "Warning" not in lines[0], lines
    return lines[0]


# --------------------------------------------------------------- import


def package_env(**overrides):
    """This environment, with the package's source first on PYTHONPATH."""
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    paths = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), **overrides)


def fresh_modules(code):
    """What ``code`` prints when a fresh interpreter runs it."""
    result = subprocess.run(
        [sys.executable, "-c", code], env=package_env(), capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_cli_import_leaves_the_integrator_unloaded():
    # Only validation and the tests integrate, and only spectra and CD norms
    # solve eigenproblems, so starting the tool must not import any part of
    # scipy: each function that needs it imports it.
    code = (
        "import sys, cdanneal.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert fresh_modules(code) == "[]"


def test_import_leaves_the_process_pool_unloaded():
    # Only a sweep that starts worker processes needs the pool, and it
    # imports the pool when it starts one.
    code = (
        "import sys, cdanneal, cdanneal.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    assert fresh_modules(code) == "[]"


def test_dense_gaps_and_norms_load_no_scipy():
    # Up to the dense limit the spectra solve with the LAPACK numpy bundles:
    # a gap curve and a CD norm at n = 8 leave every part of scipy unloaded.
    if spectrum_mod._lapacke_evr() is None:
        pytest.skip("numpy bundles no OpenBLAS with LAPACKE dsyevr/zheevr")
    code = (
        "import sys\n"
        "from cdanneal import Ansatz, DrivenHamiltonian, Schedule, cd_norm, gap_curve\n"
        "from cdanneal import generate_instance, instance_seed\n"
        "inst = generate_instance(8, instance_seed(934, 0))\n"
        "for ansatz in Ansatz:\n"
        "    gap_curve(inst, Schedule(1.0, 20), ansatz, 5)\n"
        "hamiltonian = DrivenHamiltonian(inst, Ansatz.NC1)\n"
        "assert cd_norm(hamiltonian, hamiltonian.gauge.sources) > 0.0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert fresh_modules(code) == "[]"


# ------------------------------------------------------------------ gen


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("gen", "--n", "4", "--seed", "7", "--out", str(a)) == 0
    assert run_cli("gen", "--n", "4", "--seed", "7", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "ground energy" in out


def test_gen_single_site_empty_couplings(tmp_path):
    path = tmp_path / "one.json"
    assert run_cli("gen", "--n", "1", "--seed", "3", "--out", str(path)) == 0
    payload = json.loads(path.read_text())
    assert payload["J"] == []
    assert len(payload["h"]) == 1


def test_gen_cap_exit_code(tmp_path, capsys):
    code = run_cli("gen", "--n", "25", "--seed", "1", "--out", str(tmp_path / "x.json"))
    assert code == 3
    assert "cap" in capsys.readouterr().err


def test_gen_negative_seed_exit_code(tmp_path, capsys):
    assert run_cli("gen", "--n", "3", "--seed", "-1", "--out", str(tmp_path / "x.json")) == 2
    assert "seed" in single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "x.json").exists()


def test_gen_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CDANNEAL_OUTPUT_DIR", str(tmp_path))
    assert run_cli("gen", "--n", "3", "--seed", "5") == 0
    assert (tmp_path / "instance-n3-s5.json").exists()


# ------------------------------------------------------------------ run


def test_run_adiabatic_limit(tmp_path, capsys):
    instance = tmp_path / "single.json"
    save_instance(ProblemInstance(1, (), (1.0,), seed=0), instance)
    code = run_cli(
        "run", "--instance", str(instance), "--T", "50", "--M", "1000",
        "--ansatz", "none", "--out", str(tmp_path / "record.json"),
    )
    assert code == 0
    payload = json.loads((tmp_path / "record.json").read_text())
    assert payload["P_s"] >= 0.99
    assert "P_s" in capsys.readouterr().out


def test_run_cd_beats_baseline(tmp_path):
    instance = tmp_path / "six.json"
    assert run_cli("gen", "--n", "6", "--seed", "42", "--out", str(instance)) == 0
    results = {}
    for tag in ("none", "nc1"):
        record = tmp_path / f"{tag}.json"
        assert run_cli(
            "run", "--instance", str(instance), "--T", "1", "--M", "20",
            "--ansatz", tag, "--out", str(record),
        ) == 0
        results[tag] = json.loads(record.read_text())["P_s"]
    assert results["nc1"] > results["none"]


def test_run_local_y_fieldless_site(tmp_path):
    # A site with no field and no nonzero coupling carries no Y term, so its
    # vanishing denominator at lam = 1 must not abort the run.
    instance = tmp_path / "fieldless.json"
    save_instance(ProblemInstance(2, ((0, 1, 0.0),), (0.0, 0.7), 1), instance)
    assert run_cli("run", "--instance", str(instance), "--ansatz", "local-y") == 0


def test_run_over_memory_budget_exit_code(tmp_path, capsys, monkeypatch):
    instance = tmp_path / "inst.json"
    save_instance(generate_instance(10, 3), instance)
    monkeypatch.setattr(simulator_mod, "MEMORY_BUDGET", 1 << 16)
    code = run_cli("run", "--instance", str(instance), "--ansatz", "nc1")
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_run_with_shots(tmp_path, capsys):
    instance = tmp_path / "inst.json"
    assert run_cli("gen", "--n", "3", "--seed", "9", "--out", str(instance)) == 0
    code = run_cli(
        "run", "--instance", str(instance), "--ansatz", "local-y", "--shots", "5000"
    )
    assert code == 0
    assert "sampled P_s" in capsys.readouterr().out


def test_run_negative_shot_seed_exit_code(tmp_path, capsys):
    # Refused before anything is printed, P_s included.
    instance = tmp_path / "inst.json"
    save_instance(generate_instance(3, 9), instance)
    args = ("run", "--instance", str(instance), "--shots", "5", "--shot-seed", "-1")
    assert run_cli(*args) == 2
    captured = capsys.readouterr()
    assert "seed" in single_error_line(captured.err)
    assert captured.out == ""


def test_run_checks_shots_before_evolving(tmp_path, capsys, monkeypatch):
    def no_evolution(*args):
        raise AssertionError("evolved before checking the shots")

    monkeypatch.setattr(cli_mod, "trotter_evolve", no_evolution)
    instance = tmp_path / "inst.json"
    save_instance(generate_instance(3, 9), instance)
    for shots, seed in (("0", "0"), ("5", "-1")):
        args = ("run", "--instance", str(instance), "--shots", shots, "--shot-seed", seed)
        assert run_cli(*args) == 2
        captured = capsys.readouterr()
        assert "shot" in single_error_line(captured.err)
        assert captured.out == ""


def test_run_invalid_ansatz(tmp_path, capsys):
    instance = tmp_path / "inst.json"
    assert run_cli("gen", "--n", "3", "--seed", "9", "--out", str(instance)) == 0
    assert run_cli("run", "--instance", str(instance), "--ansatz", "bogus") == 2
    assert "ansatz" in capsys.readouterr().err


def test_run_missing_instance(tmp_path):
    assert run_cli("run", "--instance", str(tmp_path / "nope.json")) == 5


def test_run_malformed_instance(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("run", "--instance", str(path)) == 2
    path.write_text('{"n": 2, "seed": 0, "h": [0, 0], "J": [[0, 1, 1.0], [0, 1, 1.3]]}')
    assert run_cli("run", "--instance", str(path)) == 2
    # A non-integer index or count and a boolean value are refused, not truncated.
    for payload in (
        '{"n": 2, "seed": 0, "h": [0, 0], "J": [[0.9, 1, 1.0]]}',
        '{"n": 2.7, "seed": 0, "h": [0, 0], "J": [[0, 1, 1.0]]}',
        '{"n": 2, "seed": 0, "h": [0.5, true], "J": [[0, 1, 1.0]]}',
    ):
        path.write_text(payload)
        assert run_cli("run", "--instance", str(path)) == 2


def test_run_refuses_couplings_out_of_order(tmp_path, capsys):
    inst = generate_instance(4, instance_seed(912, 0))
    path = tmp_path / "reversed.json"
    save_instance(inst, path)
    payload = json.loads(path.read_text())
    payload["J"] = payload["J"][::-1]
    path.write_text(json.dumps(payload))
    assert run_cli("run", "--instance", str(path)) == 2
    assert "coupling (1,3) must come after (2,3)" in single_error_line(capsys.readouterr().err)


def test_run_non_finite_total_time(tmp_path, capsys):
    # T = 1e308 and 1e-310 are finite, but pi T and pi^2/4T overflow in the
    # schedule: both are refused as usage errors.
    instance = tmp_path / "inst.json"
    save_instance(generate_instance(3, 9), instance)
    for total_time in ("inf", "nan", "1e308", "1e-310"):
        assert run_cli("run", "--instance", str(instance), "--T", total_time) == 2
        assert "finite" in single_error_line(capsys.readouterr().err)
    # Energies that overflow are refused before the evolution, by the phase
    # bound, instead of printing P_s nan, and numpy warns of no overflow.
    save_instance(ProblemInstance(2, ((0, 1, 1e308),), (1e308, 1e308), seed=0), instance)
    assert run_cli("run", "--instance", str(instance)) == 4
    assert "max|E| = inf" in single_error_line(capsys.readouterr().err)


def test_tiny_total_time_overflows_coefficients_without_a_warning(tmp_path, capsys):
    # At T = 1.5e-308 the rate lam_dot is near the float range, and times a
    # CD coefficient it overflows to inf: the evolution refuses the angle and
    # the gap solve the operator, each on one stderr line.
    instance = tmp_path / "inst.json"
    save_instance(ProblemInstance(1, (), (1e-3,), seed=0), instance)
    args = ("--instance", str(instance), "--T", "1.5e-308")
    assert run_cli("run", *args, "--ansatz", "local-y") == 4
    assert "rotation rounding" in single_error_line(capsys.readouterr().err)
    save_instance(generate_instance(3, 9), instance)
    assert run_cli("gap", *args, "--ansatz", "nc1", "--out", str(tmp_path / "gap.csv")) == 4
    assert "non-finite" in single_error_line(capsys.readouterr().err)


def test_run_refuses_phases_without_information(tmp_path, capsys):
    # Every field and coupling 1e300: the energies are finite, but rounding
    # moves each step's phase by ~1e284 rad.  Every drive refuses it before
    # evolving, with no overflow warning; two-local's Gram blocks overflow
    # first.
    instance = tmp_path / "inst.json"
    instance.write_text(
        '{"n": 3, "seed": 1, "h": [1e300, 1e300, 1e300],'
        ' "J": [[0, 1, 1e300], [0, 2, 1e300], [1, 2, 1e300]]}'
    )
    for ansatz in Ansatz:
        assert run_cli("run", "--instance", str(instance), "--ansatz", ansatz.value) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        refusal = "Gram block" if ansatz is Ansatz.TWO_LOCAL else "phase rounding"
        assert refusal in single_error_line(captured.err)


def inflate_nc1_angles(monkeypatch):
    """Patch nc1's coefficient table so that its rotation angles carry no information."""
    real = DrivenHamiltonian.coefficients

    def inflated(self, lams, lam_dots):
        values = real(self, lams, lam_dots)
        return values * 1e12 if self.ansatz is Ansatz.NC1 else values

    monkeypatch.setattr(DrivenHamiltonian, "coefficients", inflated)


def test_run_refuses_rotation_angles_without_information(tmp_path, capsys, monkeypatch):
    instance = tmp_path / "inst.json"
    save_instance(generate_instance(3, 9), instance)
    inflate_nc1_angles(monkeypatch)
    assert run_cli("run", "--instance", str(instance), "--ansatz", "nc1") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rotation rounding" in single_error_line(captured.err)


def test_sweep_fails_on_rotation_angles_without_information(tmp_path, capsys, monkeypatch):
    # A failed evolution, not a singular gauge: the sweep stops with exit 4
    # and writes nothing, where an exclusion would have been recorded.
    inflate_nc1_angles(monkeypatch)
    config = tmp_path / "config.json"
    write_config(config)
    assert run_cli("sweep", "--config", str(config), "--quiet") == 4
    assert "rotation rounding" in single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_usage_error_exit_code():
    assert run_cli("run") == 2
    assert run_cli("frobnicate") == 2


# ------------------------------------------------------------------ sweep


def write_config(path, **overrides):
    payload = {
        "master_seed": 13,
        "n_values": [3],
        "instances_per_n": 2,
        "ansatz": ["none", "nc1"],
        "output_dir": str(path.parent / "out"),
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return payload


SWEEP_FILES = (
    "records.csv",
    "summary.json",
    "fig_avg_ps_vs_n.csv",
    "fig_ps_histogram.csv",
    "fig_enhancement_vs_n.csv",
    "fig_min_gap.csv",
    "config.json",
    "cost_report.csv",
)


def without_fields(config_json, *fields):
    """A written ``config.json`` without the lines of the named fields."""
    prefixes = tuple(f' "{field}": '.encode() for field in fields)
    return b"\n".join(
        line for line in config_json.split(b"\n") if not line.startswith(prefixes)
    )


def test_sweep_tiny_csv(tmp_path, capsys):
    config = tmp_path / "config.json"
    write_config(config, ansatz=["none"], output_dir=str(tmp_path / "out"))
    assert run_cli("sweep", "--config", str(config), "--quiet") == 0
    out = tmp_path / "out"
    rows = (out / "records.csv").read_text().splitlines()
    assert len(rows) == 4  # hash, header, two records x one ansatz
    stdout = capsys.readouterr().out
    assert "avg P_s" in stdout
    # The sweep names every file it wrote, and every CSV opens with the
    # config hash line of the records.
    assert sorted(p.name for p in out.iterdir()) == sorted(SWEEP_FILES)
    for name in SWEEP_FILES:
        assert f": {out / name}\n" in stdout
    for path in out.glob("*.csv"):
        assert path.read_text().splitlines()[0] == rows[0]


def test_sweep_repeatable_and_jobs_invariant(tmp_path, monkeypatch):
    # Every drive, and at n = 6 each Trotter step runs dozens of rotations.
    # The worker cap reads the CPU affinity; four CPUs let --jobs 2 and 3
    # start a pool on any machine.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    config = tmp_path / "config.json"
    for label, jobs in (("out1", "1"), ("out2", "1"), ("out3", "2"), ("out4", "3")):
        write_config(
            config,
            n_values=[3, 6],
            ansatz=["none", "local-y", "nc1"],
            output_dir=str(tmp_path / label),
        )
        assert run_cli("sweep", "--config", str(config), "--quiet", "--jobs", jobs) == 0
    for name in SWEEP_FILES:
        blobs = [(tmp_path / f"out{k}" / name).read_bytes() for k in (1, 2, 3, 4)]
        # output_dir and jobs are execution details outside the protocol
        # hash, so the emitted artifacts must be byte-identical
        if name == "config.json":
            blobs = [without_fields(blob, "jobs", "output_dir") for blob in blobs]
        assert blobs[0] == blobs[1] == blobs[2] == blobs[3]


def test_sweep_identical_at_any_blas_thread_count(tmp_path):
    # Each command sets one BLAS thread, whatever the environment asks for.
    # A second thread used to move delta_min of the two-local gap curve at
    # n = 8 in its last digits.
    config = tmp_path / "config.json"
    write_config(
        config,
        master_seed=99,
        n_values=[8],
        instances_per_n=1,
        ansatz=["none", "two-local"],
        compute_gaps=True,
        gap_samples=21,
    )
    for threads in ("1", "2"):
        out = str(tmp_path / f"threads{threads}")
        subprocess.run(
            [sys.executable, "-m", "cdanneal.cli", "sweep", "--config", str(config)]
            + ["--quiet", "--output-dir", out],
            env=package_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            check=True,
        )
    one, two = tmp_path / "threads1", tmp_path / "threads2"
    assert sorted(p.name for p in two.iterdir()) == sorted(SWEEP_FILES)
    for name in SWEEP_FILES:
        blobs = [(one / name).read_bytes(), (two / name).read_bytes()]
        if name == "config.json":
            blobs = [without_fields(blob, "output_dir") for blob in blobs]
        assert blobs[0] == blobs[1], name


def test_sweep_progress_reports_rate_and_exclusions(tmp_path, capsys, monkeypatch):
    real = harness_mod.trotter_evolve

    def singular_on_first(inst, sched, ansatz, **kwargs):
        if ansatz.value == "nc1" and inst.seed == first_seed:
            raise SingularGaugeError("synthetic", site=2, lam=0.375, value=0.0, step=7)
        return real(inst, sched, ansatz, **kwargs)

    first_seed = instance_seed(13, 0)
    monkeypatch.setattr(harness_mod, "trotter_evolve", singular_on_first)
    config = tmp_path / "config.json"
    write_config(config, output_dir=str(tmp_path / "quiet"))
    assert run_cli("sweep", "--config", str(config), "--quiet") == 0
    assert capsys.readouterr().err == ""
    write_config(config, output_dir=str(tmp_path / "loud"))
    assert run_cli("sweep", "--config", str(config)) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("instance 0 (n=3) done, 1/2, ")
    assert "instances/s, ETA " in lines[0]
    assert lines[1] == "  excluded nc1: singular gauge at site 2, lam=0.375, step 7"
    assert lines[2].startswith("instance 1 (n=3) done, 2/2, ")
    assert lines[2].endswith("ETA 0 s")
    # Then one line per cost task: the excluded instance 0 is sampled for
    # no drive, so that both drives are averaged over the same instances.
    assert lines[3:] == [f"cost sample n=3 seed={instance_seed(13, 1)} done, 1/1"]
    assert "instances/s" not in captured.out
    # The diagnostics reach stderr only: every emitted file is unchanged.
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    names = sorted(p.name for p in quiet.iterdir())
    assert "records.csv" in names
    for name in names:
        if name != "config.json":
            assert (quiet / name).read_bytes() == (loud / name).read_bytes()


def test_sweep_integer_total_time_is_the_float_protocol(tmp_path, monkeypatch):
    # "total_time": 1 and 1.0 are one protocol: one hash, the same bytes in
    # every file, config.json included.
    config = tmp_path / "config.json"
    for label, total_time in (("int", 1), ("float", 1.0)):
        monkeypatch.setenv("CDANNEAL_OUTPUT_DIR", str(tmp_path / label))
        write_config(config, output_dir="sweep", total_time=total_time)
        assert run_cli("sweep", "--config", str(config), "--quiet") == 0
    for name in SWEEP_FILES:
        blobs = [(tmp_path / label / "sweep" / name).read_bytes() for label in ("int", "float")]
        assert blobs[0] == blobs[1], name


def test_sweep_flag_overrides(tmp_path):
    config = tmp_path / "config.json"
    write_config(config, ansatz=["none"], output_dir=str(tmp_path / "out"))
    assert (
        run_cli(
            "sweep", "--config", str(config), "--quiet",
            "--instances-per-n", "1", "--n", "4",
        )
        == 0
    )
    written = json.loads((tmp_path / "out" / "config.json").read_text())
    assert written["instances_per_n"] == 1
    assert written["n_values"] == [4]


def test_sweep_reads_older_config_files(tmp_path, capsys):
    # Sweeps used to write "record_timings": false into config.json; such a
    # file sweeps to the same bytes as one without the key.  Timing capture
    # is gone: true is an unknown field, and so is the flag.
    config = tmp_path / "config.json"
    for label, extra in (("plain", {}), ("older", {"record_timings": False})):
        write_config(config, output_dir=str(tmp_path / label), **extra)
        assert run_cli("sweep", "--config", str(config), "--quiet") == 0
    plain, older = tmp_path / "plain", tmp_path / "older"
    names = sorted(p.name for p in plain.iterdir())
    assert "records.csv" in names and "config.json" in names
    for name in names:
        if name != "config.json":
            assert (plain / name).read_bytes() == (older / name).read_bytes()
    written = [json.loads((d / "config.json").read_text()) for d in (plain, older)]
    assert written[0] == dict(written[1], output_dir=str(plain))
    capsys.readouterr()
    write_config(config, output_dir=str(tmp_path / "timed"), record_timings=True)
    assert run_cli("sweep", "--config", str(config), "--quiet") == 2
    assert "record_timings" in single_error_line(capsys.readouterr().err)
    assert run_cli("sweep", "--config", str(config), "--record-timings") == 2
    assert not (tmp_path / "timed").exists()


def test_sweep_refuses_rows_over_budget_before_evolving(tmp_path, capsys, monkeypatch):
    # Two-local at n = 4 evolves within this budget, but the 10 operator
    # rows its cost report forms do not fit: the sweep exits 3 at once.
    # Once they fit, the dense 16 x 16 complex matrix that a CD norm at
    # n = 4 solves claims more than the rows, so the sweep runs at that.
    evolved = []
    real = harness_mod.trotter_evolve

    def counted(inst, sched, ansatz):
        evolved.append((inst.n, ansatz.value))
        return real(inst, sched, ansatz)

    monkeypatch.setattr(harness_mod, "trotter_evolve", counted)
    drive = DrivenHamiltonian(generate_instance(4, instance_seed(13, 0)), Ansatz.TWO_LOCAL)
    rows = drive._claimed + (16 * len(drive.row_masks) + 32) * 16
    dense = drive._claimed + 16 * 16 * 16
    config = tmp_path / "config.json"
    write_config(config, n_values=[3, 4], ansatz=["none", "two-local"])
    monkeypatch.setattr(simulator_mod, "MEMORY_BUDGET", rows - 1)
    assert run_cli("sweep", "--config", str(config), "--quiet") == 3
    assert "two-local drive at n=4 with 10 operator rows" in single_error_line(
        capsys.readouterr().err
    )
    assert evolved == []
    assert not (tmp_path / "out").exists()
    assert rows < dense
    monkeypatch.setattr(simulator_mod, "MEMORY_BUDGET", dense)
    assert run_cli("sweep", "--config", str(config), "--quiet") == 0
    assert len(evolved) == 8
    assert (tmp_path / "out" / "cost_report.csv").exists()


def test_sweep_bad_config_exit(tmp_path):
    config = tmp_path / "config.json"
    for payload in (
        {"unknown_field": 1},
        {"jobs": "4"},
        {"n_values": "4"},
        {"total_time": float("inf")},  # written as Infinity
    ):
        config.write_text(json.dumps(payload))
        assert run_cli("sweep", "--config", str(config)) == 2


def test_sweep_negative_master_seed_exit_code(tmp_path, capsys):
    config = tmp_path / "config.json"
    write_config(config, master_seed=-5)
    assert run_cli("sweep", "--config", str(config), "--quiet") == 2
    assert "master_seed" in single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_sweep_repeated_size_or_drive_writes_nothing(tmp_path, capsys):
    config = tmp_path / "config.json"
    write_config(config, n_values=[4], ansatz=["none"])
    for repeat in (("--n", "4", "--n", "4"), ("--ansatz", "nc1", "--ansatz", "nc1")):
        assert run_cli("sweep", "--config", str(config), "--quiet", *repeat) == 2
        assert "repeats" in single_error_line(capsys.readouterr().err)
        assert not (tmp_path / "out").exists()
    write_config(config, n_values=[4, 4], ansatz=["none", "none"])
    assert run_cli("sweep", "--config", str(config), "--quiet") == 2
    assert "repeats" in single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------------- gap


def test_gap_single_site(tmp_path):
    instance = tmp_path / "inst.json"
    save_instance(ProblemInstance(1, (), (1.0,), seed=4), instance)
    out = tmp_path / "gap.csv"
    code = run_cli(
        "gap", "--instance", str(instance), "--ansatz", "none",
        "--samples", "21", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,lambda,gap,ansatz,instance_id"
    assert len(lines) == 1 + 21
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[2]) - 2.0) <= 1e-9
    # Every row names its drive and, as its instance_id, the instance seed.
    assert {tuple(line.split(",")[3:]) for line in lines[1:]} == {("none", "4")}


def test_gap_pairs_baseline_and_endpoints(tmp_path):
    instance = tmp_path / "inst.json"
    assert run_cli("gen", "--n", "4", "--seed", "21", "--out", str(instance)) == 0
    out = tmp_path / "gap.csv"
    assert (
        run_cli(
            "gap", "--instance", str(instance), "--ansatz", "nc1",
            "--samples", "31", "--out", str(out),
        )
        == 0
    )
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 62
    by_tag = {}
    for line in lines:
        t, lam, gap, tag, _ = line.split(",")
        by_tag.setdefault(tag, []).append((float(t), float(gap)))
    assert set(by_tag) == {"nc1", "none"}
    for idx in (0, -1):
        assert abs(by_tag["nc1"][idx][1] - by_tag["none"][idx][1]) <= 1e-10


def test_gap_negative_instance_seed_exit_code(tmp_path, capsys):
    # An instance file must regenerate from its (n, seed), as gen writes it.
    instance = tmp_path / "inst.json"
    instance.write_text('{"n": 2, "seed": -3, "h": [0.5, 0.2], "J": [[0, 1, 1.0]]}')
    out = tmp_path / "gap.csv"
    assert run_cli("gap", "--instance", str(instance), "--samples", "5", "--out", str(out)) == 2
    assert "seed" in single_error_line(capsys.readouterr().err)
    assert not out.exists()


def test_gap_overflow_exit_codes(tmp_path, capsys):
    # An overflowing schedule is a usage error; overflowing energies, nc1
    # sums or two-local Gram blocks are a numerical failure.  None of them
    # ends in a traceback.
    instance = tmp_path / "inst.json"
    save_instance(generate_instance(3, 9), instance)
    for total_time in ("1e308", "1e-310"):
        args = ("gap", "--instance", str(instance), "--T", total_time, "--samples", "5")
        assert run_cli(*args, "--out", str(tmp_path / "gap.csv")) == 2
        assert "finite" in single_error_line(capsys.readouterr().err)
    pairs = ((0, 1), (0, 2), (1, 2))
    for inst, ansatz, refusal in (
        (ProblemInstance(2, ((0, 1, 1e308),), (1e308, 1e308), seed=0), "none", "non-finite"),
        (
            ProblemInstance(3, tuple((i, j, 1e77) for i, j in pairs), (1e77,) * 3, seed=0),
            "nc1",
            "non-finite",
        ),
        (
            ProblemInstance(3, tuple((i, j, 1e160) for i, j in pairs), (1e160,) * 3, seed=0),
            "two-local",
            "Gram block pp_a at n=3 is not finite",
        ),
    ):
        save_instance(inst, instance)
        args = ("gap", "--instance", str(instance), "--ansatz", ansatz, "--samples", "5")
        assert run_cli(*args, "--out", str(tmp_path / "gap.csv")) == 4
        assert refusal in single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "gap.csv").exists()


def test_gap_refuses_rows_over_budget_before_forming_energies(tmp_path, capsys, monkeypatch):
    # nc1 at n = 10 fits a budget of 90,112 bytes (its energies and five
    # state vectors), but every gap solve forms its 10 operator rows, which do not:
    # the command exits 3 before E is formed.
    formed = []
    form = ProblemInstance.energies.func

    def counted(inst):
        formed.append(inst.n)
        return form(inst)

    energies = functools.cached_property(counted)
    energies.__set_name__(ProblemInstance, "energies")
    monkeypatch.setattr(ProblemInstance, "energies", energies)
    instance = tmp_path / "inst.json"
    save_instance(generate_instance(10, 3), instance)
    monkeypatch.setattr(simulator_mod, "MEMORY_BUDGET", 90_112)
    out = tmp_path / "gap.csv"
    args = ("gap", "--instance", str(instance), "--ansatz", "nc1", "--samples", "5")
    assert run_cli(*args, "--out", str(out)) == 3
    assert "10 operator rows" in single_error_line(capsys.readouterr().err)
    assert formed == [] and not out.exists()


def test_gap_refuses_an_instance_above_the_cap(tmp_path, capsys, monkeypatch):
    # The rows of a gap solve at n = 21 would fit the budget, but no drive
    # is compiled above the state-vector cap: exit 3 before E is formed.
    formed = []
    form = ProblemInstance.energies.func

    def counted(inst):
        formed.append(inst.n)
        return form(inst)

    energies = functools.cached_property(counted)
    energies.__set_name__(ProblemInstance, "energies")
    monkeypatch.setattr(ProblemInstance, "energies", energies)
    instance = tmp_path / "inst.json"
    save_instance(generate_instance(21, 3), instance)
    out = tmp_path / "gap.csv"
    args = ("gap", "--instance", str(instance), "--ansatz", "nc1", "--samples", "5")
    assert run_cli(*args, "--out", str(out)) == 3
    assert "cap 20" in single_error_line(capsys.readouterr().err)
    assert formed == [] and not out.exists()


# ---------------------------------------------------------------- report


def test_report_recomputes_summary(tmp_path):
    config = tmp_path / "config.json"
    write_config(config, output_dir=str(tmp_path / "out"))
    assert run_cli("sweep", "--config", str(config), "--quiet") == 0
    sweep_summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    redone = tmp_path / "redone"
    assert (
        run_cli(
            "report", "--records", str(tmp_path / "out" / "records.csv"),
            "--out-dir", str(redone),
        )
        == 0
    )
    again = json.loads((redone / "summary.json").read_text())
    assert again == sweep_summary
    summaries = [d / "summary.json" for d in (tmp_path / "out", redone)]
    assert summaries[0].read_bytes() == summaries[1].read_bytes()


def test_report_refuses_contradicting_rows(tmp_path, capsys):
    # A row claiming another n and an exclusion for a recorded instance
    # would be merged into it; the report refuses it and writes nothing.
    config = tmp_path / "config.json"
    write_config(config, output_dir=str(tmp_path / "out"))
    assert run_cli("sweep", "--config", str(config), "--quiet") == 0
    records = tmp_path / "records.csv"
    lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
    fields = lines[2].split(",")
    fields[1], fields[4] = "6", "true"
    records.write_text("\n".join(lines + [",".join(fields)]) + "\n")
    capsys.readouterr()
    assert run_cli("report", "--records", str(records), "--out-dir", str(tmp_path / "r")) == 2
    assert f"line {len(lines) + 1}" in single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "r").exists()


def test_report_ignores_wall_ms(tmp_path):
    # Records written with timing capture hold nonzero wall_ms; the summary
    # recomputed from them is the one of the all-zero file, byte for byte.
    config = tmp_path / "config.json"
    write_config(config, output_dir=str(tmp_path / "out"))
    assert run_cli("sweep", "--config", str(config), "--quiet") == 0
    lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
    wall = lines[1].split(",").index("wall_ms")
    timed = lines[:2]
    for k, line in enumerate(lines[2:]):
        fields = line.split(",")
        assert fields[wall] == "0.0"
        fields[wall] = repr(3.25 + k)
        timed.append(",".join(fields))
    (tmp_path / "timed").mkdir()
    (tmp_path / "timed" / "records.csv").write_text("\n".join(timed) + "\n")
    summaries = []
    for label in ("out", "timed"):
        records, out = tmp_path / label / "records.csv", tmp_path / f"r-{label}"
        assert run_cli("report", "--records", str(records), "--out-dir", str(out)) == 0
        summaries.append((out / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]


def test_report_refuses_a_row_no_run_writes(tmp_path, capsys):
    # A NaN success probability would reach summary.json as NaN, which
    # strict JSON parsers reject; the report refuses its line instead.
    records = tmp_path / "records.csv"
    records.write_text(
        "# config_hash=x\n"
        "instance_id,n,seed,degenerate,excluded,ansatz,P_s,wall_ms,entangling_count,delta_min\n"
        "0,4,17,false,false,none,nan,0.0,120,\n"
    )
    assert run_cli("report", "--records", str(records), "--out-dir", str(tmp_path / "r")) == 2
    assert "line 3" in single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "r").exists()


def test_report_refuses_rows_of_no_instance_a_sweep_writes(tmp_path, capsys):
    # An empty P_s on an instance not excluded, or a negative instance id,
    # would be averaged as if a sweep had written it; the report refuses it.
    header = (
        "# config_hash=x\n"
        "instance_id,n,seed,degenerate,excluded,ansatz,P_s,wall_ms,entangling_count,delta_min\n"
    )
    for rows, line in (
        (["0,4,17,false,false,none,,0.0,120,"], 3),
        (["0,4,17,false,false,none,0.5,0.0,120,", "-5,4,18,false,false,none,0.25,0.0,120,"], 4),
    ):
        records = tmp_path / "records.csv"
        records.write_text(header + "\n".join(rows) + "\n")
        capsys.readouterr()
        assert run_cli("report", "--records", str(records), "--out-dir", str(tmp_path / "r")) == 2
        assert f"line {line}" in single_error_line(capsys.readouterr().err)
        assert not (tmp_path / "r").exists()


def test_report_missing_file(tmp_path):
    assert run_cli("report", "--records", str(tmp_path / "none.csv")) == 5


def test_report_quotes_a_long_line_by_its_start_and_length(tmp_path, capsys):
    # A 100,000-character header, or field, is quoted by its first 80
    # characters and its length, not echoed whole to stderr.
    header = "instance_id,n,seed,degenerate,excluded,ansatz,P_s,wall_ms,entangling_count,delta_min"
    records = tmp_path / "records.csv"
    for text, what in (
        ("[" * 100_000, "unexpected header"),
        (f"{header}\n0,4,17,false,false,none,{'9' * 100_000}x,0.0,120,\n", "malformed field"),
    ):
        records.write_text(text)
        assert run_cli("report", "--records", str(records), "--out-dir", str(tmp_path / "r")) == 2
        line = single_error_line(capsys.readouterr().err)
        assert what in line and "characters)" in line and len(line) < 250, line
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100_000], ids=["undecodable", "nested"])
@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--instance", "{}"),
        ("gap", "--instance", "{}", "--out", "{}.csv"),
        ("sweep", "--config", "{}", "--quiet"),
        ("report", "--records", "{}", "--out-dir", "{}.d"),
    ],
    ids=["run", "gap", "sweep", "report"],
)
def test_unreadable_input_files_exit_2(tmp_path, capsys, argv, content):
    # Bytes that do not decode, and JSON nested past the parser's recursion
    # limit, are usage errors on one line, not tracebacks.  The JSON readers
    # name the file; the records reader refuses the nested file's header.
    path = tmp_path / "input"
    path.write_bytes(content)
    assert run_cli(*(arg.format(path) for arg in argv)) == 2
    line = single_error_line(capsys.readouterr().err)
    assert line.startswith("error: ") and "Traceback" not in line
    assert str(path) in line or (argv[0], content[:1]) == ("report", b"[")
    assert [p.name for p in tmp_path.iterdir()] == ["input"]


def test_integers_past_what_their_field_holds_exit_2(tmp_path, capsys):
    # A field past the float range, JSON digits past the parser's limit and
    # shots past numpy's int64 counts are usage errors, not tracebacks.
    instance, config = tmp_path / "inst.json", tmp_path / "config.json"
    instance.write_text(json.dumps({"n": 1, "seed": 0, "h": [10**400], "J": []}))
    assert run_cli("run", "--instance", str(instance)) == 2
    assert "malformed instance file" in single_error_line(capsys.readouterr().err)
    save_instance(generate_instance(3, 9), instance)
    assert run_cli("run", "--instance", str(instance), "--shots", str(2**63)) == 2
    assert "--shots" in single_error_line(capsys.readouterr().err)
    for overrides, what in (({"total_time": 10**400}, "total_time"), ({"shots": 2**63}, "shots")):
        write_config(config, **overrides)
        assert run_cli("sweep", "--config", str(config), "--quiet") == 2
        assert what in single_error_line(capsys.readouterr().err)
    config.write_text('{"master_seed": 1' + "0" * 5000 + "}")
    assert run_cli("sweep", "--config", str(config), "--quiet") == 2
    assert "invalid JSON (Exceeds the limit" in single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------- validate


def test_validate_passes(capsys):
    assert run_cli("validate") == 0
    out = capsys.readouterr().out
    for name in (
        "pauli-identities",
        "local-y-oracle",
        "nc1-oracle",
        "trotter-scaling",
        "endpoint-gap-equality",
        "two-local-oracle",
        "closed-form-blocks",
        "compiled-table",
        "cd-non-stoquastic",
    ):
        assert name in out
    assert "FAIL" not in out


def test_validate_negative_seed_exit_code(capsys):
    assert run_cli("validate", "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert "seed" in single_error_line(captured.err)
    assert captured.out == ""


def test_validate_mutation_sensitivity(monkeypatch):
    # A sign flip in the closed-form coefficient must trip the oracle check.
    flipped = lambda inst, lam: -nc1_coefficient(inst, lam)
    monkeypatch.setattr(validate_mod, "nc1_coefficient", flipped)
    results = {r.name: r for r in run_validation_checks()}
    assert not results["nc1-oracle"].passed
    assert results["local-y-oracle"].passed


def test_validate_cd_non_stoquastic_mutation_sensitivity(monkeypatch):
    # With every CD coefficient zero, each drive is the stoquastic bare
    # interpolation, and the premise check must say so.
    real = gauge_mod.cd_coefficients
    monkeypatch.setattr(gauge_mod, "cd_coefficients", lambda *args: 0.0 * real(*args))
    results = {r.name: r for r in run_validation_checks()}
    assert not results["cd-non-stoquastic"].passed


def test_validate_two_local_mutation_sensitivity(monkeypatch):
    # A 1% scale on the compiled two-local solve must trip only its oracle.
    solve = CompiledGauge.solve_two_local

    def scaled(self, lam):
        solution = solve(self, lam)
        return dataclasses.replace(solution, coefficients=1.01 * solution.coefficients)

    monkeypatch.setattr(CompiledGauge, "solve_two_local", scaled)
    results = {r.name: r.passed for r in run_validation_checks()}
    assert all(type(passed) is bool for passed in results.values()), results
    assert results.pop("two-local-oracle") is False
    assert all(results.values()), results


def test_validate_two_local_runs_the_schur_solve_and_its_fallback(monkeypatch):
    # Five instances of each size n = 2-4 at five points each.  The
    # zero-field instance at n = 2 has a zero XY diagonal at lam = 1, which
    # the certificate rejects: the check must reach the full-Gram fallback
    # as well as the Schur solve.
    points = {"compiled": 0, "fallback": 0}
    solve, solve_normal = CompiledGauge._solve, gauge_mod._solve_normal
    inside = []

    def counted_solve(self, a, *rest):
        points["compiled"] += len(a)
        inside.append(a)
        try:
            return solve(self, a, *rest)
        finally:
            inside.pop()

    def counted_normal(*args):
        points["fallback"] += bool(inside)
        return solve_normal(*args)

    monkeypatch.setattr(CompiledGauge, "_solve", counted_solve)
    monkeypatch.setattr(gauge_mod, "_solve_normal", counted_normal)
    assert validate_mod._check_two_local(0).passed
    assert points == {"compiled": 75, "fallback": 1}


@pytest.mark.parametrize(
    "helper, oracle", [("_local_y", "local-y-oracle"), ("_nc1_alpha", "nc1-oracle")]
)
def test_validate_closed_form_blocks_mutation_sensitivity(monkeypatch, helper, oracle):
    # A 1% scale on a closed form must trip its own oracle and the
    # cross-check against the two-local blocks, and nothing else.
    closed_form = getattr(gauge_mod, helper)
    monkeypatch.setattr(gauge_mod, helper, lambda *args: 1.01 * closed_form(*args))
    results = {r.name: r.passed for r in run_validation_checks()}
    assert results.pop(oracle) is False
    assert results.pop("closed-form-blocks") is False
    assert all(results.values()), results


def test_validate_compiled_table_mutation_sensitivity(monkeypatch):
    # matvec and dense read the rows of operator_rows, the Trotter step
    # reads the fused plan.  A flipped first row corrupts the dense check
    # and the ODE reference that trotter-scaling integrates; nothing else
    # reads it.
    operator_rows = simulator_mod.DrivenHamiltonian.operator_rows

    def flipped(self, values):
        rows = operator_rows(self, values)
        rows[0] *= -1.0
        return rows

    monkeypatch.setattr(simulator_mod.DrivenHamiltonian, "operator_rows", flipped)
    results = {r.name: r.passed for r in run_validation_checks()}
    assert {name for name, passed in results.items() if not passed} == {
        "compiled-table",
        "trotter-scaling",
    }


def test_validate_step_plan_mutation_sensitivity(monkeypatch):
    # The first string of a plan, the mixer's X on its first site, rotates
    # by the opposite angle: every expanded term of its chunk that holds it
    # (odd subsets) changes sign.  The step stays unitary and is wrong from
    # that rotation on, so the step checks trip; the table checks and
    # unitarity do not.
    def flipped(n, x_masks, z_masks):
        plan = simulator_mod._StepPlan(n, x_masks, z_masks)
        arrays = list(plan.arrays)
        positions, terms = arrays[0]
        terms = terms.copy()
        terms[0, 1::2] *= -1
        arrays[0] = positions, terms
        plan.arrays = arrays
        return plan

    monkeypatch.setattr(simulator_mod, "_step_plan", flipped)
    results = {r.name: r.passed for r in run_validation_checks()}
    assert {name for name, passed in results.items() if not passed} == {
        "compiled-table",
        "trotter-scaling",
    }

    # The first stacked run at a nonzero offset acts one qubit higher in
    # the layout, on a window it does not own.  Only the compiled-table
    # step check reaches such a run (n = 6), and it trips.
    shifted_sizes = []

    def shifted(n, x_masks, z_masks):
        plan = simulator_mod._StepPlan(n, x_masks, z_masks)
        for index, (kind, *fields, offset) in enumerate(plan.ops):
            if kind == simulator_mod._STACKED and offset > 0:
                plan.ops[index] = (kind, *fields, offset - 1)
                shifted_sizes.append(n)
                break
        return plan

    monkeypatch.setattr(simulator_mod, "_step_plan", shifted)
    results = {r.name: r.passed for r in run_validation_checks()}
    assert shifted_sizes
    assert {name for name, passed in results.items() if not passed} == {"compiled-table"}
