import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cdanneal.errors import (
    DimensionMismatchError,
    ParameterError,
    ResourceCapError,
    SingularGaugeError,
)
from cdanneal import gauge
from cdanneal.gauge import Ansatz, assemble_hamiltonian, cd_coefficients, cd_terms
from cdanneal.pauli import PauliString, to_dense
from cdanneal.problem import (
    GroundTruth,
    ProblemInstance,
    generate_instance,
    ground_state,
    instance_seed,
)
from cdanneal.schedule import Schedule
from cdanneal.simulator import (
    DrivenHamiltonian,
    StateVector,
    apply_pauli_exponential,
    ode_reference,
    plus_state,
    sample_shots,
    success_probability,
    trotter_evolve,
)
from cdanneal.spectrum import gap_curve


def basis_state(n, index):
    amplitudes = np.zeros(1 << n, dtype=np.complex128)
    amplitudes[index] = 1.0
    return StateVector(n, amplitudes)


# ------------------------------------------------------------- plus_state


def test_plus_state_values():
    one = plus_state(1)
    assert np.allclose(one.amplitudes, [1 / math.sqrt(2)] * 2)
    two = plus_state(2)
    assert np.allclose(two.amplitudes, 0.5)
    assert plus_state(5).norm() == pytest.approx(1.0, abs=1e-15)


def test_plus_state_cap():
    with pytest.raises(ResourceCapError):
        plus_state(21)
    with pytest.raises(ParameterError):
        plus_state(0)


# ------------------------------------------------- Pauli-string exponential


def test_exponential_x_half_pi():
    state = apply_pauli_exponential(
        basis_state(1, 0), PauliString.from_label("X"), math.pi / 2
    )
    assert np.allclose(state.amplitudes, [0.0, -1j], atol=1e-12)


def test_exponential_diagonal_eigenstate():
    theta = 0.3
    state = apply_pauli_exponential(
        basis_state(2, 0), PauliString.from_label("ZZ"), theta
    )
    assert np.allclose(state.amplitudes[0], np.exp(-1j * theta))


def test_exponential_zero_angle_is_identity():
    rng = np.random.default_rng(0)
    amplitudes = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amplitudes /= np.linalg.norm(amplitudes)
    state = StateVector(3, amplitudes.copy())
    apply_pauli_exponential(state, PauliString.from_label("XYZ"), 0.0)
    assert np.allclose(state.amplitudes, amplitudes)


def test_exponential_matches_dense_expm():
    rng = np.random.default_rng(1)
    from scipy.linalg import expm

    for label in ("XY", "ZI", "YY", "XZ"):
        amplitudes = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amplitudes /= np.linalg.norm(amplitudes)
        theta = float(rng.uniform(-2, 2))
        state = StateVector(2, amplitudes.copy())
        apply_pauli_exponential(state, PauliString.from_label(label), theta)
        from cdanneal.pauli import PauliSum

        dense = to_dense(PauliSum.from_labels({label: 1.0}))
        expected = expm(-1j * theta * dense) @ amplitudes
        assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_exponential_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_pauli_exponential(basis_state(2, 0), PauliString.from_label("X"), 0.1)


# ------------------------------------------------------- DrivenHamiltonian

# Zero values exercise the dropped Z, ZZ and CD terms.  Nonzero values stay
# away from the 1e-12 scale at which PauliSum prunes the reference's terms.
_VALUES = st.one_of(st.just(0.0), st.floats(0.05, 2.0), st.floats(-2.0, -0.05))


@st.composite
def driven_points(draw):
    n = draw(st.integers(1, 6))
    fields = tuple(draw(_VALUES) for _ in range(n))
    couplings = tuple(
        (i, j, draw(_VALUES)) for i in range(n) for j in range(i + 1, n)
    )
    inst = ProblemInstance(n, couplings, fields, seed=0)
    ansatz = draw(st.sampled_from(list(Ansatz)))
    assume(ansatz is not Ansatz.TWO_LOCAL or n >= 2)
    lam = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)))
    lam_dot = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 3.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    return inst, ansatz, lam, lam_dot, seed


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return psi / np.linalg.norm(psi)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(driven_points())
def test_driven_hamiltonian_matches_reference(point):
    inst, ansatz, lam, lam_dot, seed = point
    try:
        reference = to_dense(assemble_hamiltonian(inst, lam, lam_dot, ansatz))
    except SingularGaugeError:
        assume(False)
    hamiltonian = DrivenHamiltonian(inst, ansatz)
    psi = random_state(inst.n, seed)
    assert np.abs(hamiltonian.dense(lam, lam_dot) - reference).max() <= 1e-12
    assert np.abs(hamiltonian.matvec(psi, lam, lam_dot) - reference @ psi).max() <= 1e-12

    # One step against the canonical-order product of single exponentials:
    # X by site, nonzero Z, nonzero ZZ, then CD.
    n, dt = inst.n, 0.3
    expected = StateVector(n, psi.copy())
    for i in range(n):
        apply_pauli_exponential(expected, PauliString.single(n, i, "X"), -dt * (1.0 - lam))
    for i, h in enumerate(inst.fields):
        if h != 0.0:
            apply_pauli_exponential(expected, PauliString.single(n, i, "Z"), dt * lam * h)
    for i, j, value in inst.couplings:
        if value != 0.0:
            zz = PauliString(n, 0, (1 << i) | (1 << j))
            apply_pauli_exponential(expected, zz, dt * lam * value)
    cd_values = cd_coefficients(inst, ansatz, lam, lam_dot)
    for string, value in zip(cd_terms(inst, ansatz), cd_values):
        apply_pauli_exponential(expected, string, dt * value)
    hamiltonian.step(psi, dt, lam, lam_dot)
    assert np.abs(psi - expected.amplitudes).max() <= 1e-12


# ---------------------------------------------------------- trotter_evolve


def test_trotter_pure_mixer_eigenstate():
    inst = ProblemInstance(3, (), (0.0, 0.0, 0.0), seed=0)
    report = trotter_evolve(inst, Schedule(1.0, 20), Ansatz.NONE)
    overlap = abs(np.vdot(plus_state(3).amplitudes, report.final_state.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_trotter_matches_ode_and_halving():
    inst = ProblemInstance(1, (), (1.0,), seed=0)
    reference = ode_reference(inst, Schedule(1.0, 1), Ansatz.NONE, 1e-11)
    deviations = {}
    for steps in (20, 40):
        final = trotter_evolve(inst, Schedule(1.0, steps), Ansatz.NONE).final_state
        deviations[steps] = float(
            np.linalg.norm(final.amplitudes - reference.amplitudes)
        )
    assert deviations[20] <= 0.05
    assert deviations[20] / deviations[40] == pytest.approx(2.0, abs=0.5)


def test_trotter_unitarity():
    for seed in range(3):
        inst = generate_instance(5, instance_seed(77, seed))
        for ansatz in (Ansatz.NONE, Ansatz.LOCAL_Y, Ansatz.NC1):
            report = trotter_evolve(inst, Schedule(1.0, 20), ansatz)
            assert max(abs(v - 1.0) for v in report.step_norms) <= 1e-9


def test_trotter_costs_counting():
    inst = generate_instance(4, instance_seed(78, 0))
    sched = Schedule(1.0, 20)
    none = trotter_evolve(inst, sched, Ansatz.NONE)
    assert none.entangling_per_step == 6
    assert none.entangling_total == 120
    assert none.single_per_step == 8  # X_i plus Z_i on every site
    nc1 = trotter_evolve(inst, sched, Ansatz.NC1)
    assert nc1.entangling_per_step == 18
    assert nc1.single_per_step == 12
    assert nc1.operator_applications == (18 + 12) * 20


def test_trotter_enhancement_short_schedule():
    # CD-driven runs must beat the bare interpolation on nearly all draws.
    sched = Schedule(1.0, 20)
    wins = 0
    total = 100
    for k in range(total):
        inst = generate_instance(4, instance_seed(1234, k))
        truth = ground_state(inst)
        bare = success_probability(
            trotter_evolve(inst, sched, Ansatz.NONE).final_state, truth
        )
        driven = success_probability(
            trotter_evolve(inst, sched, Ansatz.NC1).final_state, truth
        )
        wins += driven > bare
    assert wins >= 95


def test_trotter_singular_gauge_aborts_with_step():
    feeble = ProblemInstance(1, (), (1e-7,), seed=0)
    with pytest.raises(SingularGaugeError) as err:
        trotter_evolve(feeble, Schedule(1.0, 20), Ansatz.NC1)
    assert err.value.step == 1


def test_trotter_local_y_fieldless_site():
    # Site 0 has no field and no nonzero coupling, so it carries no Y term;
    # its local-y denominator vanishes at lam = 1 but is never divided by.
    inst = ProblemInstance(2, ((0, 1, 0.0),), (0.0, 0.7), seed=1)
    report = trotter_evolve(inst, Schedule(1.0, 20), Ansatz.LOCAL_Y)
    assert max(abs(v - 1.0) for v in report.step_norms) <= 1e-12


def test_gauge_compiled_once_per_instance(monkeypatch):
    counts = {"cd_terms": 0, "two_local": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(gauge, "cd_terms", counted("cd_terms", gauge.cd_terms))
    monkeypatch.setattr(
        gauge.CompiledGauge,
        "_compile_two_local",
        counted("two_local", gauge.CompiledGauge._compile_two_local),
    )
    inst = generate_instance(3, instance_seed(88, 0))
    sched = Schedule(1.0, 20)
    for ansatz in Ansatz:
        for run in (
            lambda: trotter_evolve(inst, sched, ansatz),
            lambda: gap_curve(inst, sched, ansatz, samples=5),
        ):
            counts.update(cd_terms=0, two_local=0)
            run()
            assert counts == {
                "cd_terms": 1,
                "two_local": int(ansatz is Ansatz.TWO_LOCAL),
            }, ansatz


# ------------------------------------------------------------ ode_reference


def test_ode_single_site_fine_product_oracle():
    # Midpoint product of 1e5 exact 2x2 exponentials as the reference.
    inst = ProblemInstance(1, (), (1.0,), seed=0)
    sched = Schedule(1.0, 1)
    steps = 100_000
    dt = sched.total_time / steps
    psi = plus_state(1).amplitudes.copy()
    for k in range(steps):
        lam = sched.lam((k + 0.5) * dt)
        a, b = lam * 1.0, -(1.0 - lam)  # h Z and mixer X weights
        r = math.hypot(a, b)
        c, s = math.cos(dt * r), math.sin(dt * r)
        z_part = a / r * psi * np.array([1.0, -1.0])
        x_part = b / r * psi[::-1]
        psi = c * psi - 1j * s * (z_part + x_part)
    reference = ode_reference(inst, sched, Ansatz.NONE, 1e-12)
    fidelity = abs(np.vdot(psi, reference.amplitudes)) ** 2
    assert fidelity >= 1.0 - 1e-8


def test_ode_norm_drift():
    inst = generate_instance(3, instance_seed(88, 0))
    for ansatz in (Ansatz.NONE, Ansatz.NC1):
        state = ode_reference(inst, Schedule(1.0, 1), ansatz, 1e-10)
        assert abs(state.norm() - 1.0) <= 1e-8


def test_trotter_first_order_convergence_sweep():
    inst = generate_instance(3, instance_seed(88, 1))
    for ansatz in (Ansatz.NONE, Ansatz.LOCAL_Y, Ansatz.NC1):
        reference = ode_reference(inst, Schedule(1.0, 1), ansatz, 1e-11)
        errors = []
        for steps in (20, 40, 80, 160):
            final = trotter_evolve(inst, Schedule(1.0, steps), ansatz).final_state
            errors.append(float(np.linalg.norm(final.amplitudes - reference.amplitudes)))
        for a, b in zip(errors, errors[1:]):
            assert 1.5 <= a / b <= 3.0


def test_adiabatic_limit_sanity():
    # Slow evolution on a comfortably gapped instance ends in the ground state.
    chosen = None
    for k in range(40):
        inst = generate_instance(4, instance_seed(555, k))
        curve = gap_curve(inst, Schedule(1.0, 20), Ansatz.NONE, samples=51, refine=False)
        if curve.delta_min > 0.5:
            chosen = inst
            break
    assert chosen is not None, "no well-gapped instance among the scanned seeds"
    truth = ground_state(chosen)
    final = trotter_evolve(chosen, Schedule(50.0, 1000), Ansatz.NONE).final_state
    assert success_probability(final, truth) >= 0.99


# ----------------------------------------------------- success_probability


def test_success_probability_examples():
    truth = GroundTruth(energy=0.0, states=(2,), degenerate=False)
    assert success_probability(basis_state(2, 2), truth) == pytest.approx(1.0)
    assert success_probability(plus_state(2), truth) == pytest.approx(0.25)
    pair = GroundTruth(energy=0.0, states=(0, 3), degenerate=True)
    assert success_probability(plus_state(2), pair) == pytest.approx(0.5)


def test_success_probability_global_phase_invariance():
    truth = GroundTruth(energy=0.0, states=(1,), degenerate=False)
    state = plus_state(2)
    rotated = StateVector(2, np.exp(1j * 0.7) * state.amplitudes)
    assert success_probability(rotated, truth) == pytest.approx(
        success_probability(state, truth)
    )


def test_success_probability_bad_index():
    truth = GroundTruth(energy=0.0, states=(9,), degenerate=False)
    with pytest.raises(DimensionMismatchError):
        success_probability(plus_state(2), truth)


# ------------------------------------------------------------- sample_shots


def test_shots_pure_state():
    counts = sample_shots(basis_state(2, 1), 500, seed=4)
    assert counts == {1: 500}


def test_shots_frequencies():
    counts = sample_shots(plus_state(1), 100_000, seed=5)
    for index in (0, 1):
        assert 0.494 <= counts[index] / 100_000 <= 0.506


def test_shots_deterministic():
    state = plus_state(3)
    assert sample_shots(state, 1000, seed=6) == sample_shots(state, 1000, seed=6)
    assert sample_shots(state, 1000, seed=6) != sample_shots(state, 1000, seed=7)


def test_shots_validation():
    with pytest.raises(ParameterError):
        sample_shots(plus_state(1), 0, seed=0)
