import math

import numpy as np
import pytest

import cdanneal.spectrum as spectrum_mod
from cdanneal.errors import ParameterError, ResourceCapError
from cdanneal.gauge import Ansatz, assemble_hamiltonian
from cdanneal.pauli import to_dense
from cdanneal.problem import (
    ProblemInstance,
    classical_energies,
    generate_instance,
    instance_seed,
)
from cdanneal.schedule import Schedule
from cdanneal.simulator import DrivenHamiltonian
from cdanneal.spectrum import (
    gap_curve,
    gap_rows,
    instantaneous_spectrum,
    operator_norm,
)


def test_spectrum_mixer_limit():
    inst = ProblemInstance(1, (), (0.3,), seed=0)
    eigenvalues = instantaneous_spectrum(inst, 0.0, 0.0, Ansatz.NONE, k=2)
    assert eigenvalues == pytest.approx([-1.0, 1.0])


def test_spectrum_half_way_single_site():
    inst = ProblemInstance(1, (), (1.0,), seed=0)
    eigenvalues = instantaneous_spectrum(inst, 0.5, 0.0, Ansatz.NONE, k=2)
    assert eigenvalues[1] - eigenvalues[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_spectrum_final_time_matches_classical_gap():
    for seed in range(4):
        inst = generate_instance(5, instance_seed(911, seed))
        energies = np.sort(np.unique(np.round(classical_energies(inst), 12)))
        for ansatz in (Ansatz.NONE, Ansatz.NC1):
            eigenvalues = instantaneous_spectrum(inst, 1.0, 0.0, ansatz, k=2)
            assert eigenvalues[1] - eigenvalues[0] == pytest.approx(
                energies[1] - energies[0], abs=1e-9
            )


def test_spectrum_caps_and_validation():
    # Above the dense cap the Lanczos path still serves the low end.
    big = generate_instance(15, 1)
    low = instantaneous_spectrum(big, 0.5, 0.0, Ansatz.NONE)
    assert low.shape == (2,) and low[0] <= low[1]
    # Rayleigh bound from the classical ground state, where <b|H|b> = lam E(b).
    assert low[0] <= 0.5 * classical_energies(big).min() + 1e-9
    with pytest.raises(ResourceCapError):
        instantaneous_spectrum(big, 0.5, 0.0, Ansatz.NONE, k=(1 << 15) - 1)
    inst = generate_instance(5, 1)
    with pytest.raises(ParameterError):
        instantaneous_spectrum(inst, 0.5, 0.0, Ansatz.NONE, k=0)
    with pytest.raises(ParameterError):
        instantaneous_spectrum(DrivenHamiltonian(inst, Ansatz.NC1), 0.5, 0.0, Ansatz.NONE)


def test_lanczos_path_matches_dense(monkeypatch):
    inst = generate_instance(5, instance_seed(912, 0))
    dense_values = instantaneous_spectrum(inst, 0.43, 0.8, Ansatz.NC1, k=3)
    monkeypatch.setattr(spectrum_mod, "_DENSE_DIAG_LIMIT", 2)
    lanczos_values = instantaneous_spectrum(inst, 0.43, 0.8, Ansatz.NC1, k=3)
    assert lanczos_values == pytest.approx(dense_values, abs=1e-8)


def test_operator_norm_matches_dense(monkeypatch):
    inst = generate_instance(4, instance_seed(913, 0))
    dense = to_dense(assemble_hamiltonian(inst, 0.6, 0.5, Ansatz.NC1))
    expected = float(np.abs(np.linalg.eigvalsh(dense)).max())
    hamiltonian = DrivenHamiltonian(inst, Ansatz.NC1)
    assert operator_norm(hamiltonian, 0.6, 0.5) == pytest.approx(expected, abs=1e-10)
    monkeypatch.setattr(spectrum_mod, "_DENSE_DIAG_LIMIT", 2)
    assert operator_norm(hamiltonian, 0.6, 0.5) == pytest.approx(expected, abs=1e-8)


def test_assembled_hamiltonians_hermitian():
    inst = generate_instance(4, instance_seed(914, 0))
    sched = Schedule(1.0, 20)
    for t in np.linspace(0.0, 1.0, 7):
        for ansatz in (Ansatz.NONE, Ansatz.LOCAL_Y, Ansatz.NC1):
            dense = to_dense(
                assemble_hamiltonian(inst, sched.lam(t), sched.lam_dot(t), ansatz)
            )
            assert np.abs(dense - dense.conj().T).max() <= 1e-10


def test_gap_curve_basic_contract():
    inst = ProblemInstance(1, (), (0.9,), seed=0)
    sched = Schedule(1.0, 20)
    curve = gap_curve(inst, sched, Ansatz.NONE, samples=41)
    assert len(curve.times) == 41
    assert curve.times[0] == 0.0 and curve.times[-1] == 1.0
    assert all(g >= 0.0 for g in curve.gaps)
    assert curve.gaps[0] == pytest.approx(2.0, abs=1e-9)
    assert curve.delta_min <= min(curve.gaps) + 1e-12
    assert 0.0 <= curve.argmin_time <= 1.0
    with pytest.raises(ParameterError):
        gap_curve(inst, sched, Ansatz.NONE, samples=1)


def test_gap_curve_endpoints_ansatz_independent():
    inst = generate_instance(4, instance_seed(915, 0))
    sched = Schedule(1.0, 20)
    curves = {
        ansatz: gap_curve(inst, sched, ansatz, samples=21, refine=False)
        for ansatz in (Ansatz.NONE, Ansatz.NC1, Ansatz.LOCAL_Y)
    }
    for ansatz in (Ansatz.NC1, Ansatz.LOCAL_Y):
        assert curves[ansatz].gaps[0] == pytest.approx(
            curves[Ansatz.NONE].gaps[0], abs=1e-10
        )
        assert curves[ansatz].gaps[-1] == pytest.approx(
            curves[Ansatz.NONE].gaps[-1], abs=1e-10
        )


def test_gap_curve_refinement_improves():
    inst = generate_instance(4, instance_seed(915, 1))
    sched = Schedule(1.0, 20)
    coarse = gap_curve(inst, sched, Ansatz.NONE, samples=21, refine=False)
    refined = gap_curve(inst, sched, Ansatz.NONE, samples=21, refine=True)
    assert refined.delta_min <= coarse.delta_min + 1e-15


def test_eigenvalue_continuity_weyl_bound():
    inst = generate_instance(4, instance_seed(916, 0))
    sched = Schedule(1.0, 20)
    times = np.linspace(0.0, 1.0, 41)
    previous = None
    for t in times:
        operator = assemble_hamiltonian(inst, sched.lam(t), sched.lam_dot(t), Ansatz.NC1)
        values = np.linalg.eigvalsh(to_dense(operator))
        if previous is not None:
            shift = float(np.abs(np.linalg.eigvalsh(to_dense(operator - previous[1]))).max())
            assert np.abs(values - previous[0]).max() <= shift * (1.0 + 1e-9) + 1e-12
        previous = (values, operator)


def test_gap_increase_fraction_small_sample():
    sched = Schedule(1.0, 20)
    increased = 0
    total = 10
    for k in range(total):
        inst = generate_instance(5, instance_seed(917, k))
        none = gap_curve(inst, sched, Ansatz.NONE, samples=51, refine=False).delta_min
        driven = gap_curve(inst, sched, Ansatz.NC1, samples=51, refine=False).delta_min
        increased += driven > none
    assert increased / total > 0.5


def test_gap_rows_format():
    inst = ProblemInstance(1, (), (0.5,), seed=42)
    curve = gap_curve(inst, Schedule(1.0, 10), Ansatz.NONE, samples=5, refine=False)
    rows = gap_rows(curve, Ansatz.NONE, instance_id=42)
    assert len(rows) == 5
    assert rows[0][3] == "none"
    assert rows[0][4] == 42
