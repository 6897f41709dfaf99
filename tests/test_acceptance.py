"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The desk-scale ensemble (5 sizes x 200 instances x 3 drive choices)
is shared between the ordering and metrics criteria.
"""

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat

import numpy as np
import pytest

from cdanneal.cli import main as cli_main
from cdanneal.gauge import (
    Ansatz,
    adiabatic_pair,
    assemble_hamiltonian,
    local_y_coefficients,
    minimize_action,
    nc1_coefficient,
    nc1_operator,
)
from cdanneal.harness import ExperimentConfig, enhancement_metrics, run_ensemble
from cdanneal.pauli import PauliString, PauliSum, to_dense
from cdanneal.problem import ProblemInstance, generate_instance, instance_seed
from cdanneal.schedule import Schedule
from cdanneal.simulator import ode_reference, trotter_evolve
from cdanneal.spectrum import gap_curve

MASTER_SEED = 20220301
LAM_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS  {detail}")


@pytest.fixture(scope="module")
def desk_ensemble():
    cfg = ExperimentConfig(
        master_seed=MASTER_SEED,
        n_values=(4, 6, 8, 10, 12),
        instances_per_n=200,
        total_time=1.0,
        trotter_steps=20,
        ansatz=("none", "local-y", "nc1"),
        output_dir="unused",
    )
    records = run_ensemble(cfg)
    return cfg, records, enhancement_metrics(records)


@pytest.fixture(scope="module")
def gap_ensemble():
    # The 100 curves run in two worker processes, started fresh, that
    # inherit this process's environment and so the one BLAS thread
    # conftest.py sets; map returns them in task order.
    sched = Schedule(1.0, 20)
    drives = (Ansatz.NONE, Ansatz.NC1)
    instances = [generate_instance(8, instance_seed(MASTER_SEED, k)) for k in range(50)]
    tasks = [inst for inst in instances for _ in drives]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        curves = list(pool.map(gap_curve, tasks, repeat(sched), drives * len(instances)))
    return list(zip(curves[0::2], curves[1::2]))


def test_criterion_1_nc1_closed_form_equivalence():
    worst = 0.0
    for n in (2, 3, 4):
        for rep in range(50):
            inst = generate_instance(n, instance_seed(MASTER_SEED, 1000 * n + rep))
            for lam in LAM_GRID:
                H, dH = adiabatic_pair(inst, lam)
                basis_op = nc1_operator(H, dH)
                solved = minimize_action([basis_op], H, dH)
                deviation = abs(nc1_coefficient(inst, lam) - solved.coefficients[0])
                worst = max(worst, deviation)
    assert worst <= 1e-8
    report("1 (closed-form nested-commutator coefficient)", f"max deviation {worst:.2e}")


def test_criterion_2_local_y_closed_form_equivalence():
    single = ProblemInstance(1, (), (1.3,), seed=0)
    worst_single = 0.0
    for lam in LAM_GRID:
        H, dH = adiabatic_pair(single, lam)
        solved = minimize_action([PauliSum(1, {PauliString.single(1, 0, "Y"): 1.0})], H, dH)
        worst_single = max(
            worst_single,
            abs(local_y_coefficients(single, lam)[0] - solved.coefficients[0]),
        )
    assert worst_single <= 1e-10

    # Documented n >= 2 reading: the per-site formula equals the JOINT
    # least-squares minimizer over {Y_i} (the normal matrix is diagonal),
    # verified against the solver.
    worst_multi = 0.0
    for n in (2, 3):
        for rep in range(10):
            inst = generate_instance(n, instance_seed(MASTER_SEED, 2000 * n + rep))
            basis = [PauliSum(n, {PauliString.single(n, i, "Y"): 1.0}) for i in range(n)]
            for lam in LAM_GRID:
                H, dH = adiabatic_pair(inst, lam)
                solved = minimize_action(basis, H, dH)
                closed = local_y_coefficients(inst, lam)
                worst_multi = max(
                    worst_multi, float(np.abs(closed - solved.coefficients).max())
                )
    assert worst_multi <= 1e-10
    report(
        "2 (closed-form single-site Y coefficients)",
        f"n=1 deviation {worst_single:.2e}; joint-minimizer reading holds to "
        f"{worst_multi:.2e} at n=2,3",
    )


def test_criterion_3_trotter_convergence():
    ratios = []
    norm_drift = 0.0
    for rep in range(10):
        inst = generate_instance(4, instance_seed(MASTER_SEED, 3000 + rep))
        for ansatz in (Ansatz.NONE, Ansatz.LOCAL_Y, Ansatz.NC1):
            reference = ode_reference(inst, Schedule(1.0, 1), ansatz, 1e-11)
            errors = []
            for steps in (20, 40, 80):
                evolution = trotter_evolve(inst, Schedule(1.0, steps), ansatz)
                errors.append(float(np.linalg.norm(evolution.final_state - reference)))
                norm_drift = max(
                    norm_drift, max(abs(v - 1.0) for v in evolution.step_norms)
                )
            ratios.extend(errors[i] / errors[i + 1] for i in range(2))
    assert all(1.5 <= r <= 3.0 for r in ratios)
    assert norm_drift <= 1e-9
    report(
        "3 (first-order Trotter convergence)",
        f"{len(ratios)} halving ratios in [{min(ratios):.2f}, {max(ratios):.2f}]",
    )


def test_criterion_4_success_probability_ordering(desk_ensemble):
    _, _, summary = desk_ensemble
    sizes = sorted(summary.per_n)
    assert sizes == [4, 6, 8, 10, 12]
    bare_means = []
    for n in sizes:
        avg = summary.per_n[n]["avg_ps"]
        assert avg["nc1"] > avg["local-y"] > avg["none"]
        bare_means.append(avg["none"])
    assert all(a > b for a, b in zip(bare_means, bare_means[1:]))
    detail = "; ".join(
        f"n={n}: " + "/".join(f"{summary.per_n[n]['avg_ps'][t]:.4f}" for t in ("nc1", "local-y", "none"))
        for n in sizes
    )
    report("4 (mean success ordering nc1 > local-y > none)", detail)


def test_criterion_5_enhancement_metrics(desk_ensemble):
    _, _, summary = desk_ensemble
    for n in (8, 10):
        data = summary.per_n[n]
        assert data["r_enh"]["nc1"] >= 0.95
        assert 0.60 <= data["r_enh"]["local-y"] <= 0.90
        assert 2.0 <= data["p_enh_avg"]["local-y"] <= 4.0
    growth = [summary.per_n[n]["p_enh_avg"]["nc1"] for n in (8, 10, 12)]
    assert growth[0] < growth[-1]
    detail = (
        f"R_enh(nc1)={summary.per_n[8]['r_enh']['nc1']:.3f}/"
        f"{summary.per_n[10]['r_enh']['nc1']:.3f}, "
        f"R_enh(local-y)={summary.per_n[8]['r_enh']['local-y']:.3f}/"
        f"{summary.per_n[10]['r_enh']['local-y']:.3f}, "
        f"P_enh(local-y)={summary.per_n[8]['p_enh_avg']['local-y']:.2f}/"
        f"{summary.per_n[10]['p_enh_avg']['local-y']:.2f}, "
        f"P_enh(nc1) n=8..12: " + ", ".join(f"{g:.2f}" for g in growth)
    )
    report("5 (enhancement ratio and factor bands)", detail)


def test_criterion_6_gap_statistics(gap_ensemble):
    increased = sum(1 for bare, driven in gap_ensemble if driven.delta_min > bare.delta_min)
    fraction = increased / len(gap_ensemble)
    assert fraction > 0.5

    # property suite on a subsample: endpoint equality, Hermitian spectra,
    # Weyl continuity of the gap along the schedule
    sched = Schedule(1.0, 20)
    for k in range(5):
        inst = generate_instance(8, instance_seed(MASTER_SEED, k))
        bare, driven = gap_ensemble[k]
        assert abs(bare.gaps[0] - driven.gaps[0]) <= 1e-10
        assert abs(bare.gaps[-1] - driven.gaps[-1]) <= 1e-10
        previous = None
        for t in np.linspace(0.0, 1.0, 21):
            operator = assemble_hamiltonian(
                inst, sched.lam(t), sched.lam_dot(t), Ansatz.NC1
            )
            dense = to_dense(operator)
            assert np.abs(dense - dense.conj().T).max() <= 1e-10
            values = np.linalg.eigvalsh(dense)
            if previous is not None:
                shift = float(
                    np.abs(np.linalg.eigvalsh(to_dense(operator - previous[1]))).max()
                )
                assert np.abs(values - previous[0]).max() <= shift * (1 + 1e-9) + 1e-12
            previous = (values, operator)
    report(
        "6 (minimum-gap statistics at n=8)",
        f"gap increased on {increased}/{len(gap_ensemble)} instances "
        f"(fraction {fraction:.2f}); endpoint/Hermiticity/continuity checks hold",
    )


def test_criterion_7_unitarity_and_determinism(desk_ensemble, tmp_path_factory):
    cfg, records, _ = desk_ensemble
    # unitarity was asserted inside criterion 3 for every evolution it ran;
    # spot-check fresh evolutions across sizes and drives here
    drift = 0.0
    for n in (4, 8):
        inst = generate_instance(n, instance_seed(MASTER_SEED, 77))
        for ansatz in (Ansatz.NONE, Ansatz.LOCAL_Y, Ansatz.NC1):
            evolution = trotter_evolve(inst, Schedule(1.0, 20), ansatz)
            drift = max(drift, max(abs(v - 1.0) for v in evolution.step_norms))
    assert drift <= 1e-9

    out_root = tmp_path_factory.mktemp("determinism")
    config_path = out_root / "config.json"
    payload = {
        "master_seed": 11,
        "n_values": [4],
        "instances_per_n": 6,
        "ansatz": ["none", "nc1"],
        "output_dir": str(out_root / "a"),
    }
    config_path.write_text(json.dumps(payload))
    assert cli_main(["sweep", "--config", str(config_path), "--quiet"]) == 0
    payload["output_dir"] = str(out_root / "b")
    config_path.write_text(json.dumps(payload))
    assert cli_main(["sweep", "--config", str(config_path), "--quiet", "--jobs", "3"]) == 0
    blobs = []
    for sub in ("a", "b"):
        blobs.append((out_root / sub / "records.csv").read_bytes())
    assert blobs[0] == blobs[1]
    report(
        "7 (unitarity and determinism)",
        f"max |norm-1| {drift:.2e}; records byte-identical across invocations "
        f"and worker counts",
    )


def test_criterion_8_cost_accounting():
    sched = Schedule(1.0, 20)
    details = []
    for n in (4, 6):
        inst = generate_instance(n, instance_seed(MASTER_SEED, 5000 + n))
        pairs = n * (n - 1) // 2
        bare = trotter_evolve(inst, sched, Ansatz.NONE)
        assert bare.entangling_per_step == pairs
        driven = trotter_evolve(inst, sched, Ansatz.NC1)
        assert driven.entangling_per_step == 3 * pairs
        assert driven.single_per_step == bare.single_per_step + n
        details.append(f"n={n}: {pairs} vs {3 * pairs} entangling/step, +{n} singles")
    report("8 (structural cost accounting)", "; ".join(details))
