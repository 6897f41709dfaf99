import concurrent.futures
import dataclasses
import functools
import json
from types import SimpleNamespace

import numpy as np
import pytest

import cdanneal.gauge as gauge_mod
import cdanneal.harness as harness_mod
from cdanneal.errors import IntegratorError, ParameterError, SingularGaugeError
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
    # An integer total time is the same protocol as its float.
    assert config_hash(ExperimentConfig(**TINY, total_time=1)) == "38f0c574bf5dbea1"


def test_config_rejects_unknown(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"master_seed": 1, "bogus": True}))
    with pytest.raises(ParameterError):
        ExperimentConfig.from_file(path)
    # Older config files carry "record_timings": false, which reads as
    # absent; timing capture itself is gone, so true is an unknown field.
    assert ExperimentConfig.from_dict({"record_timings": False}) == ExperimentConfig()
    with pytest.raises(ParameterError, match="record_timings"):
        ExperimentConfig.from_dict({"record_timings": True})


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


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the process pool with one that records its size and chunks and maps serially.

    No worker process starts.  The sweep imports the pool class from
    concurrent.futures when it starts one, so it is replaced there.  Returns
    the started pool sizes and the chunk size of each map.
    """
    started = SimpleNamespace(sizes=[], chunks=[])

    class SerialPool:
        def __init__(self, max_workers):
            started.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            started.chunks.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return started


def test_ensemble_workers_capped_by_tasks_and_cpus(monkeypatch, recording_pool):
    # A fork pool starts every worker at the first submit, so --jobs N must
    # not reach the pool unbounded.
    started = recording_pool.sizes
    serial = run_ensemble(ExperimentConfig(**TINY))
    for jobs, cpus, expected in ((64, 2, [2]), (3, 8, [3]), (100_000, 8, [4]), (8, 1, [])):
        monkeypatch.setattr(
            harness_mod.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )
        started.clear()
        assert run_ensemble(ExperimentConfig(**{**TINY, "jobs": jobs})) == serial
        assert started == expected, (jobs, cpus)


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
    for field, value in (
        # P_s, seed, entangling_count, degenerate, excluded
        (6, "abc"), (2, "abc"), (8, "abc"), (3, "TRUE"), (4, "TRUE"),
        # A value no run can write: an unknown drive, n outside [1, 20], a
        # negative instance id, seed or count, P_s outside [0, 1] or empty
        # on an instance not excluded, a negative or infinite gap, and NaN
        # anywhere.
        (5, "bogus"), (1, "0"), (1, "-3"), (1, "21"), (0, "-5"), (2, "-1"), (8, "-7"),
        (6, ""),
        (6, "nan"), (6, "1.5"), (6, "-0.25"), (6, "inf"),
        (9, "-inf"), (9, "inf"), (9, "nan"), (9, "-0.5"), (7, "nan"), (7, "inf"),
    ):
        bad = row[:field] + [value] + row[field + 1:]
        with pytest.raises(ParameterError, match="line 3"):
            records_from_csv(good + ",".join(bad) + "\n")
    with pytest.raises(ParameterError, match="line 3"):
        records_from_csv(good + "0,-3,-1,false,false,bogus,0.5,nan,-7,\n")
    # P_s may exceed 1 by norm drift within the unitarity bound; any wall_ms
    # an older run wrote reads, and is dropped.
    edge = row[:6] + ["1.0000000005", "12.5"] + row[8:9] + ["0.0"]
    (record,), _ = records_from_csv(good + ",".join(edge) + "\n")
    assert record.ps == {"none": 1.0000000005} and record.delta_min == {"none": 0.0}
    # An excluded instance leaves the P_s of its singular drive empty.
    kept = row[:4] + ["true"] + row[5:]
    singular = kept[:5] + ["nc1", ""] + kept[7:8] + ["0", ""]
    (record,), _ = records_from_csv(good + ",".join(kept) + "\n" + ",".join(singular) + "\n")
    assert record.excluded and record.ps == {"none": 0.5, "nc1": None}


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


@pytest.mark.parametrize("n, ansatz", [(4, Ansatz.TWO_LOCAL), (6, Ansatz.LOCAL_Y)])
def test_cd_cost_is_the_same_in_any_chunks(monkeypatch, n, ansatz):
    # The cost reads the coefficients of the evolution's walk over the grid,
    # which solves each point alike however many points a chunk holds.
    inst = generate_instance(n, instance_seed(516, n))
    sched = Schedule(1.0, 20)
    whole = cd_cost(DrivenHamiltonian(inst, ansatz), sched)
    assert whole > 0.0
    for chunk in (1, 7, 20):
        monkeypatch.setattr(DrivenHamiltonian, "chunk_steps", chunk)
        assert cd_cost(DrivenHamiltonian(inst, ansatz), sched) == whole, chunk


def patch_local_y_at_grid_step_7(monkeypatch, broken):
    """Pass ``gauge._local_y``'s rows through ``broken(values, hit)`` at grid step 7 of 20.

    ``hit`` is the step's row among the points of the call.  Returns its lam.
    """
    singular = Schedule(1.0, 20).grid[6].lam
    closed_form = gauge_mod._local_y

    def patched(*args):
        hits = np.flatnonzero(args[-1] == singular)
        values = closed_form(*args)
        return broken(values, hits[0]) if len(hits) else values

    monkeypatch.setattr(gauge_mod, "_local_y", patched)
    return singular


@pytest.mark.parametrize("chunk", [20, 3])
def test_cd_cost_refuses_a_singular_point_naming_its_grid_step(monkeypatch, chunk):
    # The same refusal an evolution of the grid raises, with the same text.
    monkeypatch.setattr(DrivenHamiltonian, "chunk_steps", chunk)

    def singular_at(values, hit):
        raise SingularGaugeError(
            f"synthetic at lam={lam}", site=1, lam=lam, value=0.0, step=int(hit) + 1
        )

    lam = patch_local_y_at_grid_step_7(monkeypatch, singular_at)
    hamiltonian = DrivenHamiltonian(generate_instance(4, instance_seed(621, 0)), Ansatz.LOCAL_Y)
    with pytest.raises(SingularGaugeError) as err:
        cd_cost(hamiltonian, Schedule(1.0, 20))
    assert err.value.step == 7
    assert str(err.value) == f"synthetic at lam={lam} (aborted at grid step 7/20)"


@pytest.mark.parametrize("chunk", [20, 3])
def test_cd_cost_refuses_an_infinite_coefficient_naming_its_grid_step(monkeypatch, chunk):
    monkeypatch.setattr(DrivenHamiltonian, "chunk_steps", chunk)

    def infinite_at(values, hit):
        values[hit] = np.inf
        return values

    patch_local_y_at_grid_step_7(monkeypatch, infinite_at)
    hamiltonian = DrivenHamiltonian(generate_instance(4, instance_seed(621, 0)), Ansatz.LOCAL_Y)
    refused = r"rotation rounding .* = inf rad exceeds 1e-09 at grid step 7/20:"
    with pytest.raises(IntegratorError, match=refused):
        cd_cost(hamiltonian, Schedule(1.0, 20))


def test_cost_report_skips_excluded_drives(monkeypatch):
    # Site 0's field is 1e-7 and it has no coupling, so its local-y
    # denominator 2((1 - lam)^2 + 1e-14 lam^2) drops below the floor as lam
    # nears 1.  The last grid point, t = T, has lam_dot = 0 and reads no
    # denominator; on a 40-step grid the point before it, step 39, is
    # singular.  The drive is excluded there, and the cost report must not
    # evaluate it there again: it samples no drive of an excluded record.
    singular = ProblemInstance(2, ((0, 1, 0.0),), (1e-7, 0.7), seed=5)
    regular = generate_instance(2, instance_seed(11, 1))
    first = instance_seed(11, 0)
    monkeypatch.setattr(
        harness_mod, "generate_instance", lambda n, seed: singular if seed == first else regular
    )
    cfg = ExperimentConfig(
        master_seed=11,
        n_values=(2,),
        instances_per_n=2,
        trotter_steps=40,
        ansatz=("none", "local-y", "nc1"),
    )
    records = run_ensemble(cfg)
    assert records[0].ps["local-y"] is None
    assert records[0].exclusions["local-y"][2] == 39
    assert not records[1].excluded
    rows = {r.ansatz: r for r in cost_report(records[:1], cfg)}
    assert [rows[tag].cd_cost for tag in cfg.ansatz] == [None, None, None]
    # With a kept record beside it, every drive is averaged over that one.
    rows = {r.ansatz: r for r in cost_report(records, cfg)}
    sched = Schedule(cfg.total_time, cfg.trotter_steps)
    for tag in cfg.ansatz:
        expected = cd_cost(DrivenHamiltonian(regular, Ansatz.parse(tag)), sched)
        assert rows[tag].cd_cost == expected, tag
    assert rows["none"].cd_cost == 0.0 < rows["local-y"].cd_cost


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


def test_cost_report_runs_on_the_sweep_workers(monkeypatch, recording_pool):
    # Two sizes with one sample each: two cost tasks start a pool of two,
    # and the rows match the serial report.
    monkeypatch.setattr(harness_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = ExperimentConfig(**{**TINY, "n_values": (3, 4), "instances_per_n": 1})
    records = run_ensemble(cfg)
    serial = cost_report(records, cfg)
    assert recording_pool.sizes == []
    parallel = cost_report(records, dataclasses.replace(cfg, jobs=2))
    assert recording_pool.sizes == [2]
    assert parallel == serial


def test_task_runner_chunk_size(monkeypatch, recording_pool):
    # A desk-size sweep sends four tasks a chunk; a handful of long cost
    # tasks go one a chunk, so that they spread across the workers.
    monkeypatch.setattr(harness_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for count in (1000, 20, 5):
        tasks = list(range(-count, 0))
        assert list(harness_mod._map_in_order(abs, tasks, 2)) == [abs(t) for t in tasks]
    assert recording_pool.chunks == [4, 2, 1]


def test_cost_report_samples_the_first_kept_records(monkeypatch):
    # nc1 is excluded on instance 1 of 7, so the five samples of both drives
    # are instances 0 and 2-5: the sixth instance is sampled, the seventh is
    # not, and each sampled instance is generated once for all of its drives.
    cfg = ExperimentConfig(master_seed=41, n_values=(3,), ansatz=("none", "nc1"))
    seeds = [instance_seed(41, i) for i in range(7)]
    records = [
        RunRecord(i, 3, seed, False, i == 1, {"none": 0.5, "nc1": None if i == 1 else 0.6}, {}, {})
        for i, seed in enumerate(seeds)
    ]
    for record in records:
        record.entangling = {tag: 60 for tag, ps in record.ps.items() if ps is not None}
    generated = []
    real = harness_mod.generate_instance

    def counted(n, seed):
        generated.append(seed)
        return real(n, seed)

    monkeypatch.setattr(harness_mod, "generate_instance", counted)
    progress = []
    rows = {r.ansatz: r for r in cost_report(records, cfg, progress=lambda *a: progress.append(a))}
    kept = [seeds[i] for i in (0, 2, 3, 4, 5)]
    assert generated == kept
    assert progress == [(3, seed, k, 5) for k, seed in enumerate(kept, 1)]
    sched = Schedule(cfg.total_time, cfg.trotter_steps)
    expected = np.mean(
        [cd_cost(DrivenHamiltonian(real(3, seeds[i]), Ansatz.NC1), sched) for i in (0, 2, 3, 4, 5)]
    )
    assert rows["nc1"].cd_cost == float(expected)
    assert rows["none"].cd_cost == 0.0


def test_cost_report_entangling_total_is_largest_kept():
    # Instances with fewer nonzero couplings apply fewer entangling terms; the
    # row reports the largest count among the records that were not excluded.
    cfg = ExperimentConfig(master_seed=11, n_values=(4,), instances_per_n=3, ansatz=("none",))

    def record(index, count, excluded=False):
        return RunRecord(
            index, 4, index, False, excluded, {"none": 0.5}, {"none": count}, {}
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
