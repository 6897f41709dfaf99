import dataclasses
import json

from cdanneal.cli import main
from cdanneal.gauge import CompiledGauge, nc1_coefficient
from cdanneal.problem import ProblemInstance, save_instance
from cdanneal.validate import run_validation_checks


def run_cli(*argv):
    return main(list(argv))


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


def test_run_with_shots(tmp_path, capsys):
    instance = tmp_path / "inst.json"
    assert run_cli("gen", "--n", "3", "--seed", "9", "--out", str(instance)) == 0
    code = run_cli(
        "run", "--instance", str(instance), "--ansatz", "local-y", "--shots", "5000"
    )
    assert code == 0
    assert "sampled P_s" in capsys.readouterr().out


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


def test_sweep_tiny_csv(tmp_path, capsys):
    config = tmp_path / "config.json"
    write_config(config, ansatz=["none"], output_dir=str(tmp_path / "out"))
    assert run_cli("sweep", "--config", str(config), "--quiet") == 0
    rows = (tmp_path / "out" / "records.csv").read_text().splitlines()
    assert len(rows) == 4  # hash, header, two records x one ansatz
    assert "avg P_s" in capsys.readouterr().out


def test_sweep_repeatable_and_jobs_invariant(tmp_path):
    config = tmp_path / "config.json"
    write_config(config, output_dir=str(tmp_path / "out1"))
    assert run_cli("sweep", "--config", str(config), "--quiet") == 0
    write_config(config, output_dir=str(tmp_path / "out2"))
    assert run_cli("sweep", "--config", str(config), "--quiet") == 0
    write_config(config, output_dir=str(tmp_path / "out3"))
    assert run_cli("sweep", "--config", str(config), "--quiet", "--jobs", "2") == 0
    names = [
        "records.csv",
        "summary.json",
        "fig_avg_ps_vs_n.csv",
        "fig_ps_histogram.csv",
        "fig_enhancement_vs_n.csv",
        "fig_min_gap.csv",
        "cost_report.csv",
    ]
    for name in names:
        one = (tmp_path / "out1" / name).read_bytes()
        two = (tmp_path / "out2" / name).read_bytes()
        three = (tmp_path / "out3" / name).read_bytes()
        # output_dir and jobs are execution details outside the protocol
        # hash, so the emitted artifacts must be byte-identical
        if name == "config.json":
            continue
        assert one == two == three


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


def test_sweep_bad_config_exit(tmp_path):
    config = tmp_path / "config.json"
    for payload in ({"unknown_field": 1}, {"jobs": "4"}, {"n_values": "4"}):
        config.write_text(json.dumps(payload))
        assert run_cli("sweep", "--config", str(config)) == 2


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


def test_report_missing_file(tmp_path):
    assert run_cli("report", "--records", str(tmp_path / "none.csv")) == 5


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
    ):
        assert name in out
    assert "FAIL" not in out


def test_validate_mutation_sensitivity():
    # A sign flip in the closed-form coefficient must trip the oracle check.
    flipped = lambda inst, lam: -nc1_coefficient(inst, lam)
    results = {r.name: r for r in run_validation_checks(nc1_fn=flipped)}
    assert not results["nc1-oracle"].passed
    assert results["local-y-oracle"].passed


def test_validate_two_local_mutation_sensitivity(monkeypatch):
    # A 1% scale on the compiled two-local solve must trip only its oracle.
    solve = CompiledGauge.solve_two_local

    def scaled(self, lam):
        solution = solve(self, lam)
        coefficients = {k: 1.01 * v for k, v in solution.coefficients.items()}
        return dataclasses.replace(solution, coefficients=coefficients)

    monkeypatch.setattr(CompiledGauge, "solve_two_local", scaled)
    results = {r.name: r.passed for r in run_validation_checks()}
    assert results.pop("two-local-oracle") is False
    assert all(results.values()), results
