import functools
import json

import numpy as np
import pytest

import cdanneal.harness as harness_mod
from cdanneal.errors import ParameterError, SingularGaugeError
from cdanneal.gauge import Ansatz, assemble_hamiltonian
from cdanneal.harness import (
    ExperimentConfig,
    RunRecord,
    cd_cost,
    config_hash,
    cost_report,
    emit_report,
    enhancement_metrics,
    records_from_csv,
    records_to_csv,
    run_ensemble,
    summary_to_dict,
)
from cdanneal.pauli import to_dense
from cdanneal.problem import ProblemInstance, generate_instance, instance_seed
from cdanneal.schedule import Schedule
from cdanneal.simulator import DrivenHamiltonian

TINY = dict(
    master_seed=7,
    n_values=(3,),
    instances_per_n=4,
    ansatz=("none", "local-y", "nc1"),
    output_dir="unused",
)


# ------------------------------------------------------------------- config


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(**TINY)
    path = tmp_path / "config.json"
    cfg.to_file(path)
    assert ExperimentConfig.from_file(path) == cfg
    assert config_hash(ExperimentConfig.from_file(path)) == config_hash(cfg)


def test_config_hash_is_pinned_and_reads_the_config_once(monkeypatch):
    # The hash of a fixed protocol is part of every emitted file; execution
    # details stay out of it, and one hash reads the config's fields once.
    calls = []
    to_dict = ExperimentConfig.to_dict

    def counted(cfg):
        calls.append(cfg)
        return to_dict(cfg)

    monkeypatch.setattr(ExperimentConfig, "to_dict", counted)
    assert config_hash(ExperimentConfig(**TINY)) == "38f0c574bf5dbea1"
    assert len(calls) == 1
    moved = dict(TINY, jobs=2, output_dir="elsewhere")
    assert config_hash(ExperimentConfig(**moved)) == "38f0c574bf5dbea1"


def test_config_rejects_unknown(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"master_seed": 1, "bogus": True}))
    with pytest.raises(ParameterError):
        ExperimentConfig.from_file(path)


def test_config_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig(instances_per_n=0)
    with pytest.raises(ParameterError):
        ExperimentConfig(n_values=(25,))
    with pytest.raises(ParameterError):
        ExperimentConfig(ansatz=("flux",))
    with pytest.raises(ParameterError):
        ExperimentConfig(jobs=0)
    with pytest.raises(ParameterError, match="master_seed"):
        ExperimentConfig(master_seed=-5)
    # The schedule's own checks: pi T overflows, and no Trotter step.
    with pytest.raises(ParameterError, match="finite"):
        ExperimentConfig(total_time=1e308)
    with pytest.raises(ParameterError):
        ExperimentConfig(trotter_steps=0)


def test_config_rejects_repeated_sizes_and_drives():
    # A repeated size would copy its records, seeds and all; a repeated
    # drive would evolve twice into one column.
    with pytest.raises(ParameterError, match="n_values repeats"):
        ExperimentConfig(n_values=(4, 4))
    with pytest.raises(ParameterError, match="ansatz repeats"):
        ExperimentConfig(ansatz=("none", "nc1", "none"))
    with pytest.raises(ParameterError):
        ExperimentConfig.from_dict({"n_values": [4, 4], "ansatz": ["none", "none"]})


def test_config_defaults_partial_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"master_seed": 9, "n_values": [3], "instances_per_n": 2}))
    cfg = ExperimentConfig.from_file(path)
    assert cfg.master_seed == 9
    assert cfg.trotter_steps == 20


# ------------------------------------------------------------ run_ensemble


def test_ensemble_single_record():
    cfg = ExperimentConfig(
        master_seed=3, n_values=(3,), instances_per_n=1, ansatz=("none",)
    )
    records = run_ensemble(cfg)
    assert len(records) == 1
    (record,) = records
    assert set(record.ps) == {"none"}
    assert 0.0 <= record.ps["none"] <= 1.0
    assert record.entangling["none"] == 3 * 20


def test_ensemble_deterministic_and_jobs_invariant():
    cfg = ExperimentConfig(**TINY)
    first = run_ensemble(cfg)
    second = run_ensemble(cfg)
    assert first == second
    parallel = run_ensemble(ExperimentConfig(**{**TINY, "jobs": 2}))
    for a, b in zip(first, parallel):
        assert a == RunRecord(**{**b.__dict__})


def test_ensemble_progress_callback():
    seen = []
    cfg = ExperimentConfig(
        master_seed=3, n_values=(3,), instances_per_n=2, ansatz=("none",)
    )
    run_ensemble(cfg, progress=seen.append)
    assert [r.instance_id for r in seen] == [0, 1]


def test_ensemble_records_exclusions(monkeypatch):
    real = harness_mod.trotter_evolve

    def sometimes_singular(inst, sched, ansatz, **kwargs):
        if ansatz.value == "nc1" and inst.seed % 2 == 0:
            raise SingularGaugeError("synthetic", lam=0.5, value=0.0)
        return real(inst, sched, ansatz, **kwargs)

    monkeypatch.setattr(harness_mod, "trotter_evolve", sometimes_singular)
    cfg = ExperimentConfig(**{**TINY, "instances_per_n": 6})
    records = run_ensemble(cfg)
    assert len(records) == 6
    excluded = [r for r in records if r.excluded]
    assert excluded, "expected at least one synthetic exclusion"
    for record in excluded:
        assert record.ps["nc1"] is None
        assert record.ps["none"] is not None
        assert record.exclusions == {"nc1": (None, 0.5, None)}
    assert all(not r.exclusions for r in records if not r.excluded)


def test_ensemble_shot_sampling_mode():
    cfg = ExperimentConfig(
        master_seed=3, n_values=(3,), instances_per_n=2, ansatz=("none",), shots=2000
    )
    records = run_ensemble(cfg)
    exact = run_ensemble(ExperimentConfig(**{**cfg.to_dict(), "shots": None}))
    for sampled, reference in zip(records, exact):
        assert sampled.ps["none"] == pytest.approx(reference.ps["none"], abs=0.08)
        assert sampled.ps["none"] * 2000 == pytest.approx(
            round(sampled.ps["none"] * 2000)
        )
    assert run_ensemble(cfg) == records


def test_ensemble_gap_mode():
    cfg = ExperimentConfig(
        master_seed=5,
        n_values=(3,),
        instances_per_n=2,
        ansatz=("none", "nc1"),
        compute_gaps=True,
        gap_samples=21,
    )
    records = run_ensemble(cfg)
    for record in records:
        assert set(record.delta_min) == {"none", "nc1"}
        assert all(v > 0.0 for v in record.delta_min.values())


# ------------------------------------------------------------------ metrics


def make_record(rid, n, ps, delta=None, excluded=False):
    tags = list(ps)
    return RunRecord(
        instance_id=rid,
        n=n,
        seed=1000 + rid,
        degenerate=False,
        excluded=excluded,
        ps=dict(ps),
        wall_ms={t: 0.0 for t in tags},
        entangling={t: 60 for t in tags},
        delta_min=dict(delta or {}),
    )


def test_metrics_tied_records():
    records = [make_record(i, 4, {"none": 0.4, "nc1": 0.4}) for i in range(3)]
    summary = enhancement_metrics(records)
    data = summary.per_n[4]
    assert data["r_enh"]["nc1"] == 0.0
    assert data["p_enh_avg"]["nc1"] == pytest.approx(1.0)


def test_metrics_single_record_arithmetic():
    summary = enhancement_metrics([make_record(0, 4, {"none": 0.2, "nc1": 0.6})])
    data = summary.per_n[4]
    assert data["p_enh_avg"]["nc1"] == pytest.approx(3.0)
    assert data["r_enh"]["nc1"] == 1.0


def test_metrics_zero_baseline_policy():
    records = [
        make_record(0, 4, {"none": 0.0, "nc1": 0.5}),
        make_record(1, 4, {"none": 0.25, "nc1": 0.5}),
    ]
    summary = enhancement_metrics(records)
    data = summary.per_n[4]
    # the zero-baseline record still counts as enhanced, but not in the mean
    assert data["r_enh"]["nc1"] == 1.0
    assert data["p_enh_avg"]["nc1"] == pytest.approx(2.0)
    assert data["zero_baseline"]["nc1"] == 1


def test_metrics_excluded_records_omitted():
    records = [
        make_record(0, 4, {"none": 0.2, "nc1": 0.4}),
        make_record(1, 4, {"none": None, "nc1": None}, excluded=True),
    ]
    summary = enhancement_metrics(records)
    data = summary.per_n[4]
    assert data["records"] == 2
    assert data["excluded"] == 1
    assert data["r_enh"]["nc1"] == 1.0


def test_metrics_gap_fraction():
    records = [
        make_record(0, 4, {"none": 0.2, "nc1": 0.4}, delta={"none": 0.5, "nc1": 0.7}),
        make_record(1, 4, {"none": 0.2, "nc1": 0.4}, delta={"none": 0.5, "nc1": 0.4}),
    ]
    summary = enhancement_metrics(records)
    assert summary.per_n[4]["gap_increase_fraction"]["nc1"] == pytest.approx(0.5)


def test_metrics_histograms():
    records = [make_record(i, 4, {"none": 0.015, "nc1": 0.995}) for i in range(5)]
    summary = enhancement_metrics(records)
    assert len(summary.histogram_edges) == 51
    assert summary.histograms[4]["none"][0] == 5
    assert summary.histograms[4]["nc1"][-1] == 5
    assert sum(summary.histograms[4]["none"]) == 5


# ---------------------------------------------------------------- CSV files


def test_records_csv_round_trip():
    cfg = ExperimentConfig(**TINY)
    records = run_ensemble(cfg)
    text = records_to_csv(records, config_hash(cfg))
    parsed, embedded = records_from_csv(text)
    assert parsed == records
    assert embedded == config_hash(cfg)
    assert records_to_csv(parsed, embedded) == text


def test_records_csv_exact_header():
    text = records_to_csv([], "beef")
    lines = text.splitlines()
    assert lines[0] == "# config_hash=beef"
    assert lines[1] == (
        "instance_id,n,seed,degenerate,excluded,ansatz,P_s,wall_ms,"
        "entangling_count,delta_min"
    )


def test_records_csv_rejects_malformed():
    with pytest.raises(ParameterError):
        records_from_csv("not,a,header\n")
    good = records_to_csv([], "x")
    with pytest.raises(ParameterError):
        records_from_csv(good + "1,2\n")
    row = ["0", "4", "17", "false", "false", "none", "0.5", "0.0", "120", ""]
    for field, value in ((6, "abc"), (2, "abc"), (8, "abc"), (3, "TRUE"), (4, "TRUE")):
        # P_s, seed, entangling_count, degenerate, excluded
        bad = row[:field] + [value] + row[field + 1:]
        with pytest.raises(ParameterError, match="line 3"):
            records_from_csv(good + ",".join(bad) + "\n")


def test_records_csv_rejects_contradicting_rows():
    # A row never silently overrides another: a repeated (instance_id,
    # ansatz) pair, or a row whose instance fields disagree with the first
    # row of its instance, is refused on its own line.
    good = records_to_csv([], "x")
    first = ["0", "4", "17", "false", "false", "none", "0.5", "0.0", "120", ""]
    other = first[:5] + ["nc1", "0.9", "0.0", "150", ""]
    parsed, _ = records_from_csv(good + ",".join(first) + "\n" + ",".join(other) + "\n")
    assert set(parsed[0].ps) == {"none", "nc1"}
    with pytest.raises(ParameterError, match="line 4.*repeats"):
        records_from_csv(good + ",".join(first) + "\n" + ",".join(first) + "\n")
    for field, value in ((1, "6"), (2, "18"), (3, "true"), (4, "true")):
        # n, seed, degenerate, excluded
        bad = other[:field] + [value] + other[field + 1:]
        with pytest.raises(ParameterError, match="line 4.*disagrees"):
            records_from_csv(good + ",".join(first) + "\n" + ",".join(bad) + "\n")


def test_metric_consistency_from_csv():
    cfg = ExperimentConfig(**TINY)
    records = run_ensemble(cfg)
    summary = enhancement_metrics(records)
    parsed, _ = records_from_csv(records_to_csv(records, "h"))
    again = enhancement_metrics(parsed)
    assert summary_to_dict(again, "h") == summary_to_dict(summary, "h")


def test_more_steps_never_hurt_beyond_trotter_scale():
    # Doubling the step count must not reduce mean success by more than the
    # discretization-error scale.
    means = {}
    for steps in (20, 40):
        cfg = ExperimentConfig(
            master_seed=17,
            n_values=(4,),
            instances_per_n=10,
            trotter_steps=steps,
            ansatz=("none", "nc1"),
        )
        summary = enhancement_metrics(run_ensemble(cfg))
        means[steps] = summary.per_n[4]["avg_ps"]
    for tag in ("none", "nc1"):
        assert means[40][tag] >= means[20][tag] - 0.05


# -------------------------------------------------------------- cost report


def test_cost_report_counts():
    cfg = ExperimentConfig(
        master_seed=11, n_values=(6,), instances_per_n=2, ansatz=("none", "local-y", "nc1")
    )
    records = run_ensemble(cfg)
    rows = {(r.n, r.ansatz): r for r in cost_report(records, cfg)}
    bare = rows[(6, "none")]
    driven = rows[(6, "nc1")]
    assert bare.entangling_per_step == 15
    assert bare.entangling_total == 15 * 20
    assert driven.entangling_per_step == 45
    assert driven.entangling_per_step <= 3 * bare.entangling_per_step
    # The bare drive carries no CD term; the two CD drives carry different ones.
    assert bare.cd_cost == 0.0
    assert driven.cd_cost > 0.0
    assert rows[(6, "local-y")].cd_cost > 0.0
    assert abs(driven.cd_cost - rows[(6, "local-y")].cd_cost) > 1e-3


@pytest.mark.parametrize(
    "n, ansatz", [(4, "none"), (4, "local-y"), (4, "nc1"), (4, "two-local"), (9, "nc1")]
)
def test_cd_cost_matches_dense_cd_norms(n, ansatz):
    # Each structured form (sum |beta_i|, one nc1 norm scaled per point, one
    # solve per point) against the dense spectral norm of the CD part of the
    # assembled Hamiltonian; n = 9 takes the Lanczos norm.
    inst = generate_instance(n, instance_seed(515, n))
    drive = Ansatz.parse(ansatz)
    sched = Schedule(1.0, 20)

    def cd_part(p):
        driven = assemble_hamiltonian(inst, p.lam, p.lam_dot, drive)
        return to_dense(driven - assemble_hamiltonian(inst, p.lam, 0.0, drive))

    expected = sum(sched.dt * np.linalg.norm(cd_part(p), 2) for p in sched.grid)
    got = cd_cost(DrivenHamiltonian(inst, drive), sched)
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-14)
    assert (got > 0.0) == (drive is not Ansatz.NONE)


def test_cost_report_skips_excluded_drives(monkeypatch):
    # Site 0's field is 1e-7 and it has no coupling, so its local-y
    # denominator 2((1 - lam)^2 + 1e-14 lam^2) drops below the floor as lam
    # nears 1.  The last grid point, t = T, has lam_dot = 0 and reads no
    # denominator; on a 40-step grid the point before it, step 39, is
    # singular.  The drive is excluded there, and the cost report must not
    # evaluate it there again.
    singular = ProblemInstance(2, ((0, 1, 0.0),), (1e-7, 0.7), seed=5)
    monkeypatch.setattr(harness_mod, "generate_instance", lambda n, seed: singular)
    cfg = ExperimentConfig(
        master_seed=11,
        n_values=(2,),
        instances_per_n=1,
        trotter_steps=40,
        ansatz=("none", "local-y", "nc1"),
    )
    records = run_ensemble(cfg)
    assert records[0].ps["local-y"] is None
    assert records[0].exclusions["local-y"][2] == 39
    rows = {r.ansatz: r for r in cost_report(records, cfg)}
    assert rows["local-y"].cd_cost is None
    assert rows["none"].cd_cost == 0.0
    assert rows["nc1"].cd_cost > 0.0


def test_energies_formed_once_per_task_and_cost_sample(monkeypatch):
    # The oracle, every evolution and every gap curve of a sweep task read
    # one E; the cost report regenerates each sampled instance once and
    # compiles every drive from it.
    formed = []
    form = ProblemInstance.energies.func

    def counted(inst):
        formed.append((inst.n, inst.seed))
        return form(inst)

    energies = functools.cached_property(counted)
    energies.__set_name__(ProblemInstance, "energies")
    monkeypatch.setattr(ProblemInstance, "energies", energies)
    cfg = ExperimentConfig(
        master_seed=17,
        n_values=(3, 4),
        instances_per_n=2,
        ansatz=("none", "nc1", "two-local"),
        compute_gaps=True,
        gap_samples=5,
    )
    records = run_ensemble(cfg)
    assert not any(r.excluded for r in records)
    assert formed == [(r.n, r.seed) for r in records]
    formed.clear()
    cost_report(records, cfg)
    assert formed == [(r.n, r.seed) for r in records]


def test_cost_report_entangling_total_is_largest_kept():
    # Instances with fewer nonzero couplings apply fewer entangling terms; the
    # row reports the largest count among the records that were not excluded.
    cfg = ExperimentConfig(master_seed=11, n_values=(4,), instances_per_n=3, ansatz=("none",))

    def record(index, count, excluded=False):
        return RunRecord(
            index, 4, index, False, excluded, {"none": 0.5}, {"none": 1.0}, {"none": count}, {}
        )

    records = [record(0, 5 * 20), record(1, 6 * 20), record(2, 9 * 20, excluded=True)]
    (row,) = cost_report(records, cfg)
    assert (row.entangling_per_step, row.entangling_total) == (6, 6 * 20)


# ------------------------------------------------------------- emit_report


def test_emit_report_files(tmp_path):
    cfg = ExperimentConfig(**{**TINY, "instances_per_n": 2})
    records = run_ensemble(cfg)
    summary = enhancement_metrics(records)
    paths = emit_report(summary, records, cfg, tmp_path)
    expected = {
        "records",
        "summary",
        "fig_avg_ps_vs_n",
        "fig_ps_histogram",
        "fig_enhancement_vs_n",
        "fig_min_gap",
    }
    assert set(paths) == expected
    for path in paths.values():
        assert path.exists()
        content = path.read_text()
        assert config_hash(cfg) in content
    payload = json.loads(paths["summary"].read_text())
    assert payload["config_hash"] == config_hash(cfg)
    assert payload["tool_version"]
    assert "3" in payload["per_n"]


def test_emit_report_empty_records(tmp_path):
    cfg = ExperimentConfig(**TINY)
    summary = enhancement_metrics([])
    paths = emit_report(summary, [], cfg, tmp_path)
    lines = paths["records"].read_text().splitlines()
    assert len(lines) == 2  # hash comment plus header only
    payload = json.loads(paths["summary"].read_text())
    assert payload["per_n"] == {}
