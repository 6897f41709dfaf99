import gc
import math
import weakref

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
from cdanneal import gauge, simulator
from cdanneal.gauge import Ansatz, assemble_hamiltonian, cd_coefficients, cd_terms
from cdanneal.pauli import PauliString, PauliSum, to_dense
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


def canonical_product(inst, ansatz, psi, dt, lam, lam_dot):
    """One step as the canonical-order product of single exponentials:
    X by site, nonzero Z, nonzero ZZ, then CD."""
    n = inst.n
    state = StateVector(n, psi.copy())
    for i in range(n):
        apply_pauli_exponential(state, PauliString.single(n, i, "X"), -dt * (1.0 - lam))
    for i, h in enumerate(inst.fields):
        if h != 0.0:
            apply_pauli_exponential(state, PauliString.single(n, i, "Z"), dt * lam * h)
    for i, j, value in inst.couplings:
        if value != 0.0:
            zz = PauliString(n, 0, (1 << i) | (1 << j))
            apply_pauli_exponential(state, zz, dt * lam * value)
    cd_values = cd_coefficients(inst, ansatz, lam, lam_dot)
    for string, value in zip(cd_terms(inst, ansatz), cd_values):
        apply_pauli_exponential(state, string, dt * value)
    return state.amplitudes


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

    # Steps at the drawn point and at lam_dot = 0, with a small step and
    # with one that takes the largest |theta| to 2.5 > pi/2, where cos
    # theta turns negative.
    for rate in (lam_dot, 0.0):
        largest = max(
            np.abs(hamiltonian.coefficients(lam, rate)).max(),
            lam * np.abs(inst.field_array()).max(initial=0.0),
            lam * max((abs(v) for _, _, v in inst.couplings), default=0.0),
        )
        for dt in (0.3, 2.5 / largest if largest > 0.0 else 2.5):
            expected = canonical_product(inst, ansatz, psi, dt, lam, rate)
            stepped = psi.copy()
            hamiltonian.step(stepped, dt, lam, rate)
            assert np.abs(stepped - expected).max() <= 1e-12


@pytest.mark.parametrize("ansatz", list(Ansatz))
@pytest.mark.parametrize("n", [2, 3, 5])
def test_trotter_evolve_matches_canonical_product(n, ansatz):
    inst = generate_instance(n, instance_seed(616, n))
    sched = Schedule(1.0, 8)
    expected = plus_state(n).amplitudes
    for point in sched.grid():
        expected = canonical_product(inst, ansatz, expected, sched.dt, point.lam, point.lam_dot)
    final = trotter_evolve(inst, sched, ansatz).final_state.amplitudes
    assert np.abs(final - expected).max() <= 1e-12


def test_step_rejects_vectors_it_cannot_update_in_place():
    hamiltonian = DrivenHamiltonian(generate_instance(3, instance_seed(617, 0)), Ansatz.NC1)
    for psi in (
        np.ones(8),
        np.ones(16, dtype=np.complex128)[::2],
        np.ones(4, dtype=np.complex128),
    ):
        with pytest.raises(ParameterError):
            hamiltonian.step(psi, 0.1, 0.5, 1.0)


@st.composite
def step_points(draw):
    n = draw(st.integers(1, 7))
    fields = tuple(draw(_VALUES) for _ in range(n))
    couplings = tuple(
        (i, j, draw(_VALUES)) for i in range(n) for j in range(i + 1, n)
    )
    inst = ProblemInstance(n, couplings, fields, seed=0)
    ansatz = draw(st.sampled_from(list(Ansatz)))
    assume(ansatz is not Ansatz.TWO_LOCAL or n >= 2)
    lam = draw(st.floats(0.01, 0.99))
    lam_dot = draw(st.one_of(st.just(0.0), st.floats(0.05, 3.0)))
    return inst, ansatz, lam, lam_dot, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(step_points())
def test_fused_step_matches_canonical_product(point):
    # Zero fields and couplings drop strings, which moves the run cuts; the
    # second step takes the largest |theta| to 2.5 > pi/2.
    inst, ansatz, lam, lam_dot, seed = point
    hamiltonian = DrivenHamiltonian(inst, ansatz)
    psi = random_state(inst.n, seed)
    largest = max(
        np.abs(hamiltonian.coefficients(lam, lam_dot)).max(),
        lam * np.abs(inst.field_array()).max(initial=0.0),
        lam * max((abs(v) for _, _, v in inst.couplings), default=0.0),
    )
    for dt in (0.3, 2.5 / largest):
        expected = canonical_product(inst, ansatz, psi, dt, lam, lam_dot)
        stepped = psi.copy()
        hamiltonian.step(stepped, dt, lam, lam_dot)
        assert np.abs(stepped - expected).max() <= 1e-12


@st.composite
def table_instances(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    fields = tuple(draw(_VALUES) for _ in range(n))
    couplings = tuple(
        (i, j, draw(_VALUES)) for i in range(n) for j in range(i + 1, n)
    )
    ansatz = draw(st.sampled_from(list(Ansatz)))
    assume(ansatz is not Ansatz.TWO_LOCAL or n >= 2)
    return ProblemInstance(n, couplings, fields, seed=0), ansatz


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(table_instances(max_n=6), st.integers(0, 2**32 - 1))
def test_operator_forms_reproduce_each_string(point, seed):
    # With one unit coefficient the operator forms are that string alone:
    # its dense matrix exactly, its matvec to rounding, and a real matrix
    # exactly when the string has an even Y count.
    inst, ansatz = point
    hamiltonian = DrivenHamiltonian(inst, ansatz)
    n = inst.n
    strings = [PauliString.single(n, i, "X") for i in range(n)] + cd_terms(inst, ansatz)
    assert len(hamiltonian.x_masks) == len(strings)
    psi = random_state(n, seed)
    for k, string in enumerate(strings):
        rows = hamiltonian.operator_rows(np.eye(len(strings))[k])
        matrix = hamiltonian.operator_dense(0.0, rows)
        assert np.array_equal(matrix, to_dense(PauliSum(n, {string: 1.0})))
        assert (matrix.dtype == np.float64) == (string.y_count % 2 == 0)
        assert np.abs(hamiltonian.operator_matvec(psi, 0.0, rows) - matrix @ psi).max() <= 1e-15


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(table_instances())
def test_step_plan_structure(point):
    inst, ansatz = point
    n = inst.n
    hamiltonian = DrivenHamiltonian(inst, ansatz)
    plan = hamiltonian.plan
    count = len(hamiltonian.x_masks)
    # Every string exactly once, in canonical order, in runs on at most
    # BLOCK_QUBITS qubits; one run ends where the phase goes.
    starts, stops, _ = zip(*plan.runs)
    assert starts == (0,) + stops[:-1] and stops[-1] == count
    assert n in stops
    for start, stop, sites in plan.runs:
        support = 0
        for x, z in zip(hamiltonian.x_masks[start:stop], hamiltonian.z_masks[start:stop]):
            support |= x | z
        assert sorted(sites) == [q for q in range(n) if support >> q & 1]
        assert len(sites) <= simulator.BLOCK_QUBITS
    # The weight factors of the expanded terms read each string's angle.
    _, factors, _ = plan.arrays
    assert set(factors[factors < 2 * count].ravel() % count) == set(range(count))
    # Replaying the operations: each run finds its qubits leading or
    # trailing, the phase follows the run that ends at n, and psi ends in
    # the natural layout, written last.
    natural = tuple(range(n - 1, -1, -1))
    layout, done, written = natural, 0, []
    for kind, source, target, item, member in plan.ops:
        if kind == simulator._GATHER:
            layout = tuple(layout[axis] for axis in plan.gathers[item])
        elif kind in (simulator._LEADING, simulator._TRAILING):
            start, stop, sites = plan.runs[done]
            window = slice(0, len(sites)) if kind == simulator._LEADING else slice(n - len(sites), n)
            assert layout[window] == sites
            assert plan.groups[item][3][member] == done
            done += 1
        elif kind == simulator._PHASE:
            assert plan.runs[done - 1][1] == n
            assert layout == tuple(natural[axis] for axis in plan.phase_axes)
        if kind != simulator._PHASE:
            assert source != target
            written.append(target)
    assert done == len(plan.runs)
    assert layout == natural and written[-1] == 0 and 0 not in written[:-1]
    # Instances with the same strings share the plan.
    assert DrivenHamiltonian(inst, ansatz).plan is plan


def test_hamiltonian_is_freed_without_the_cycle_collector():
    # The shared plan must not point back at a Hamiltonian: with no
    # reference cycle, dropping the last reference frees it and its arrays.
    hamiltonian = DrivenHamiltonian(generate_instance(5, instance_seed(619, 0)), Ansatz.NC1)
    psi = plus_state(5).amplitudes
    hamiltonian.step(psi, 0.1, 0.5, 1.0)
    hamiltonian.matvec(psi, 0.5, 1.0)
    freed = weakref.ref(hamiltonian)
    gc.disable()
    try:
        del hamiltonian
        assert freed() is None
    finally:
        gc.enable()


def test_memory_budget_refuses_before_allocating(monkeypatch):
    inst = generate_instance(10, instance_seed(618, 0))

    def no_energies(_inst):
        raise AssertionError("energies allocated before the budget check")

    monkeypatch.setattr(simulator, "MEMORY_BUDGET", 1 << 16)
    monkeypatch.setattr(simulator, "classical_energies", no_energies)
    for ansatz in Ansatz:
        with pytest.raises(ResourceCapError, match="budget"):
            DrivenHamiltonian(inst, ansatz)
    # nc1 at n = 10 (K = 4).  Its step plan: 20 gathers of 1024 intp
    # indices, and 532 expanded terms, each with four 8-byte factor indices
    # and a matrix: 16x16 in 2 complex and 27 real chunks of 16 terms, 8x8
    # in 4 real chunks of 16 terms, 4x4 in 1 complex chunk of 4 terms.  Then
    # the energies in two layouts, four state vectors (psi, two scratch
    # states and the phase), and the 10 rows of ``operator_rows``, one per X
    # mask, at 16 bytes an entry plus 24 for the temporaries that form them.
    plan = 20 * 8 * 1024 + 532 * 4 * 8
    plan += 16 * 256 * (2 * 16 + 27 * 8) + 4 * 16 * 64 * 8 + 4 * 16 * 16
    needed = plan + 1024 * (8 * 2 + 4 * 16 + 10 * (16 + 24))
    assert needed == 1_721_984
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", needed)
    with pytest.raises(AssertionError):
        DrivenHamiltonian(inst, Ansatz.NC1)
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", needed - 1)
    with pytest.raises(ResourceCapError):
        DrivenHamiltonian(inst, Ansatz.NC1)


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
        curve = gap_curve(inst, Schedule(1.0, 20), Ansatz.NONE, samples=51)
        if min(curve.gaps) > 0.5:
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
    with pytest.raises(ParameterError, match="seed"):
        sample_shots(plus_state(1), 5, seed=-1)
