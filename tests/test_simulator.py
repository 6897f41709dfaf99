import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cdanneal.errors import (
    DimensionMismatchError,
    IntegratorError,
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
    apply_pauli_exponential,
    ode_reference,
    plus_state,
    sample_shots,
    success_probability,
    trotter_evolve,
)
from cdanneal.spectrum import gap_curve


def basis_state(n, index):
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[index] = 1.0
    return psi


# ------------------------------------------------------------- plus_state


def test_plus_state_values():
    one = plus_state(1)
    assert np.allclose(one, [1 / math.sqrt(2)] * 2)
    two = plus_state(2)
    assert np.allclose(two, 0.5)
    assert np.linalg.norm(plus_state(5)) == pytest.approx(1.0, abs=1e-15)
    assert plus_state(5).dtype == np.complex128 and plus_state(5).flags.c_contiguous


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
    assert np.allclose(state, [0.0, -1j], atol=1e-12)


def test_exponential_diagonal_eigenstate():
    theta = 0.3
    state = apply_pauli_exponential(
        basis_state(2, 0), PauliString.from_label("ZZ"), theta
    )
    assert np.allclose(state[0], np.exp(-1j * theta))


def test_exponential_zero_angle_is_identity():
    rng = np.random.default_rng(0)
    amplitudes = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amplitudes /= np.linalg.norm(amplitudes)
    state = amplitudes.copy()
    apply_pauli_exponential(state, PauliString.from_label("XYZ"), 0.0)
    assert np.allclose(state, amplitudes)


def test_exponential_matches_dense_expm():
    rng = np.random.default_rng(1)
    from scipy.linalg import expm

    for label in ("XY", "ZI", "YY", "XZ"):
        amplitudes = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amplitudes /= np.linalg.norm(amplitudes)
        theta = float(rng.uniform(-2, 2))
        state = amplitudes.copy()
        apply_pauli_exponential(state, PauliString.from_label(label), theta)
        from cdanneal.pauli import PauliSum

        dense = to_dense(PauliSum.from_labels({label: 1.0}))
        expected = expm(-1j * theta * dense) @ amplitudes
        assert np.allclose(state, expected, atol=1e-12)


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
    state = psi.copy()
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
    return state


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
@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_trotter_evolve_matches_canonical_product(n, ansatz):
    inst = generate_instance(n, instance_seed(616, n))
    sched = Schedule(1.0, 8)
    expected = plus_state(n)
    for point in sched.grid:
        expected = canonical_product(inst, ansatz, expected, sched.dt, point.lam, point.lam_dot)
    final = trotter_evolve(inst, sched, ansatz).final_state
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


def scalar_rows(n, strings, values):
    """Each string's term +-values[k] (-i)**y_k, summed per X mask in string order from 0."""
    phases = (1.0, -1j, -1.0, 1j)
    weights = [v * phases[s.y_count % 4] for v, s in zip(values, strings)]
    zero = 0j
    if not any(w.imag for w in weights):
        weights, zero = [w.real for w in weights], 0.0
    rows = {}
    for string, weight in zip(strings, weights):
        row = rows.setdefault(string.x_mask, [zero] * (1 << n))
        for b in range(1 << n):
            odd = (string.z_mask & b).bit_count() % 2
            row[b] += -weight if odd else weight
    return np.array(list(rows.values()))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(table_instances(max_n=6), st.floats(0.01, 0.99), st.integers(0, 2**32 - 1))
def test_operator_rows_sum_each_string_in_order(point, lam, seed):
    # The rows are the scalar sums of the strings' terms, bit for bit and
    # sign bit for sign bit: at lam = 1, where the mixer weight is -0.0, at
    # lam_dot = 0 (real rows), at a CD point (complex rows for every CD
    # drive), and for a random vector with zeros.
    inst, ansatz = point
    hamiltonian = DrivenHamiltonian(inst, ansatz)
    n = inst.n
    strings = [PauliString.single(n, i, "X") for i in range(n)] + cd_terms(inst, ansatz)
    rng = np.random.default_rng(seed)
    vectors = [rng.standard_normal(len(strings)) * (rng.random(len(strings)) < 0.6)]
    for lam_, lam_dot in ((1.0, 0.0), (1.0, 0.7), (lam, 0.0), (lam, 1.3)):
        try:
            vectors.append(hamiltonian.coefficients(lam_, lam_dot))
        except SingularGaugeError:
            pass
    for values in vectors:
        rows = hamiltonian.operator_rows(values)
        expected = scalar_rows(n, strings, values.tolist())
        assert rows.dtype == expected.dtype
        assert rows.tobytes() == expected.tobytes()


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
    # The chunks read each string's angle exactly once; the position count
    # marks a padding slot.
    positions = np.concatenate([p.ravel() for p, _ in plan.arrays])
    assert sorted(positions[positions < count]) == list(range(count))
    # Replaying the operations: the frame op comes first, in place on psi,
    # each run finds exactly its qubits in a contiguous window at its
    # offset (the last qubits for a trailing run), the phase follows the
    # run that ends at n, and psi ends in the natural layout, written last
    # (by the phase, when it writes another buffer than it reads).
    natural = tuple(range(n - 1, -1, -1))
    assert plan.ops[0][:3] == (simulator._FRAME, 0, 0)
    assert [op[0] for op in plan.ops].count(simulator._FRAME) == 1
    layout, done, written = natural, 0, []
    for kind, source, target, item, member, offset in plan.ops:
        if kind == simulator._GATHER:
            layout = tuple(layout[axis] for axis in plan.gathers[item])
        elif kind in (simulator._STACKED, simulator._TRAILING):
            start, stop, sites = plan.runs[done]
            assert layout[offset : offset + len(sites)] == sites
            assert kind == simulator._STACKED or offset + len(sites) == n
            assert plan.groups[item][2][member] == done
            done += 1
        elif kind == simulator._PHASE:
            assert plan.runs[done - 1][1] == n
            assert layout == natural
        if kind != simulator._FRAME and (kind != simulator._PHASE or source != target):
            assert source != target
            written.append(target)
    assert done == len(plan.runs)
    assert layout == natural and written[-1] == 0 and 0 not in written[:-1]
    # Instances with the same strings share the plan.
    assert DrivenHamiltonian(inst, ansatz).plan is plan


def layout_at_phase(n, plan):
    """The qubit order of the state when ``plan`` applies its phase."""
    layout = tuple(range(n - 1, -1, -1))
    for kind, _, _, item, *_ in plan.ops:
        if kind == simulator._GATHER:
            layout = tuple(layout[axis] for axis in plan.gathers[item])
        elif kind == simulator._PHASE:
            return layout
    raise AssertionError("the plan applies no phase")


@pytest.mark.parametrize("ansatz", list(Ansatz))
def test_step_plans_apply_the_phase_in_natural_order(ansatz):
    # The phase multiplies by E as it is, in the natural qubit order; the
    # mixer runs that precede it must leave the state in that order at
    # every size.  Only the plans are built.
    for n in range(1 if ansatz is not Ansatz.TWO_LOCAL else 2, 21):
        strings = [PauliString.single(n, i, "X") for i in range(n)]
        strings += cd_terms(generate_instance(n, instance_seed(620, n)), ansatz)
        masks = tuple(s.x_mask for s in strings), tuple(s.z_mask for s in strings)
        plan = simulator._StepPlan(n, *masks)
        assert layout_at_phase(n, plan) == tuple(range(n - 1, -1, -1)), n


def test_step_plan_refuses_a_phase_out_of_natural_order():
    # Mixer X strings on sites 0, 2, 4, 6 first: that run is not contiguous
    # in the natural layout, and its gather leaves qubits 6, 4, 2, 0 in front
    # at n = 12, so the phase would read E in the wrong order.
    x_masks = tuple(1 << i for i in (0, 2, 4, 6, 1, 3, 5, 7, 8, 9, 10, 11))
    with pytest.raises(RuntimeError, match="natural layout"):
        simulator._StepPlan(12, x_masks, (0,) * 12)


@pytest.mark.parametrize("ansatz", list(Ansatz))
def test_every_run_of_a_step_is_real(ansatz):
    # The mixer runs in the frame Q = diag(1, i)**n as Z X, every CD string
    # has an odd Y count: every expanded term of every plan is real, held
    # exactly as int8, and every unitary is float64.  A string whose
    # generator would be complex is refused.
    rng = np.random.default_rng(626)
    for n in range(1 if ansatz is not Ansatz.TWO_LOCAL else 2, 11):
        plan = DrivenHamiltonian(generate_instance(n, instance_seed(626, n)), ansatz).plan
        assert all(terms.dtype == np.int8 for _, terms in plan.arrays), n
        thetas = rng.uniform(-2.0, 2.0, (3, len(plan.x_masks)))
        assert all(u.dtype == np.float64 for u in plan.unitaries(thetas)), n
    # X X after the mixer (even Y count), and a Y in the mixer's place.
    for masks in (((1, 2, 3), (0, 0, 0)), ((1, 2), (1, 0))):
        with pytest.raises(RuntimeError, match="complex generator"):
            simulator._StepPlan(2, *masks)


def float64_unitaries(plan, thetas):
    """The run unitaries per group, and the expanded terms, formed in dense float64.

    A copy of the formation that held every expanded term as a float64
    matrix: generators as dense matrices, chunk terms as their matrix
    products, four weight factors per term gathered from (cos, sin, 1, 0),
    and one product of weights and terms per (step, chunk) over all chunks
    of a group at once.
    """
    count = len(plan.x_masks)
    x_all = np.array(plan.x_masks, dtype=np.int64)
    z_all, signs = plan.generators
    signs = np.append(signs, 0.0)
    one, zero = 2 * count, 2 * count + 1
    factors, expansions = [], []
    for q, slots, runs in plan.groups:
        dim = 1 << q
        bits = 1 << np.arange(q - 1, -1, -1)
        position = np.full((len(runs), slots), count)
        x_local = np.zeros((len(runs), slots), dtype=np.int64)
        z_local = np.zeros_like(x_local)
        for b, r in enumerate(runs):
            start, stop, sites = plan.runs[r]
            sites = np.array(sites)
            position[b, : stop - start] = np.arange(start, stop)
            x_local[b, : stop - start] = ((x_all[start:stop, None] >> sites) & 1) @ bits
            z_local[b, : stop - start] = ((z_all[start:stop, None] >> sites) & 1) @ bits
        position, x_local, z_local = position.ravel(), x_local.ravel(), z_local.ravel()
        rows = np.arange(dim)
        values = signs[position][:, None] * (
            1.0 - 2.0 * (np.bitwise_count(z_local[:, None] & rows) % 2)
        )
        generators = np.zeros((len(position), dim, dim))
        generators[np.arange(len(position))[:, None], rows, rows ^ x_local[:, None]] = values
        width = min(slots, 4)
        chunks = generators.reshape(-1, width, dim, dim)
        terms = np.broadcast_to(np.eye(dim), (len(chunks), 1, dim, dim))
        for t in range(width):
            terms = np.concatenate([terms, chunks[:, t, None] @ terms], axis=1)
        expansions.append(terms.reshape(len(chunks), 1 << width, dim * dim))
        subsets = (np.arange(1 << width)[:, None] >> np.arange(width)) & 1
        position = position.reshape(-1, 1, width)
        factor = np.full((len(chunks), 1 << width, 4), one)
        factor[..., :width] = np.where(
            position == count, np.where(subsets, zero, one), position + count * subsets
        )
        factors.append(factor.reshape(-1, 4))
    factors = np.concatenate(factors)
    steps = len(thetas)
    unit = np.broadcast_to(np.array([1.0, 0.0]), (steps, 2))
    weights = np.concatenate((np.cos(thetas), np.sin(thetas), unit), axis=1)
    weights = weights[:, factors].prod(axis=2)
    result, offset = [], 0
    for (q, slots, runs), terms in zip(plan.groups, expansions):
        stop = offset + terms.shape[0] * terms.shape[1]
        rotations = weights[:, offset:stop].reshape(steps, len(terms), 1, -1) @ terms
        rotations = rotations.reshape(steps, len(runs), -1, 1 << q, 1 << q)
        while rotations.shape[2] > 1:
            rotations = rotations[:, :, 1::2] @ rotations[:, :, 0::2]
        result.append(rotations[:, :, 0])
        offset = stop
    return result, expansions


def assert_unitaries_match_float64_formation(plan, rng):
    _, expansions = float64_unitaries(plan, np.zeros((1, len(plan.x_masks))))
    for (_, terms), dense in zip(plan.arrays, expansions):
        assert terms.dtype == np.int8 and np.array_equal(terms, dense)
    for rows in (1, 7, 20):
        thetas = rng.uniform(-2.0, 2.0, (rows, len(plan.x_masks)))
        expected, _ = float64_unitaries(plan, thetas)
        formed = plan.unitaries(thetas)
        assert len(formed) == len(expected)
        for unitaries, reference in zip(formed, expected):
            assert unitaries.dtype == np.float64 and unitaries.shape == reference.shape
            assert unitaries.tobytes() == reference.tobytes()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(table_instances(), st.integers(0, 2**32 - 1))
def test_unitaries_bit_identical_to_float64_terms(point, seed):
    # Zero fields and couplings drop strings, so runs end short and chunks
    # hold padding slots; every table size forms the bits of dense float64
    # terms.
    inst, ansatz = point
    plan = DrivenHamiltonian(inst, ansatz).plan
    assert_unitaries_match_float64_formation(plan, np.random.default_rng(seed))


@pytest.mark.parametrize("ansatz", list(Ansatz))
def test_unitaries_bit_identical_to_float64_terms_at_every_size(ansatz):
    # Every size from 1 to 8, on generated instances and with half the
    # fields and a third of the couplings set to zero.
    rng = np.random.default_rng(629)
    for n in range(1 if ansatz is not Ansatz.TWO_LOCAL else 2, 9):
        inst = generate_instance(n, instance_seed(629, n))
        sparse = ProblemInstance(
            n,
            tuple((i, j, 0.0 if (i + j) % 3 == 0 else v) for i, j, v in inst.couplings),
            tuple(0.0 if i % 2 == 0 else h for i, h in enumerate(inst.fields)),
            seed=0,
        )
        for case in (inst, sparse):
            plan = DrivenHamiltonian(case, ansatz).plan
            assert_unitaries_match_float64_formation(plan, rng)


def test_desk_plans_hold_exact_int8_terms():
    # The 15 plans of the desk protocol (n = 4..12, none/local-y/nc1) hold
    # their terms as int8 entries in {-1, 0, 1}: 0.55 MiB of plan arrays
    # together, where float64 terms held 4.41 MiB.
    total = 0
    for n in (4, 6, 8, 10, 12):
        for ansatz in (Ansatz.NONE, Ansatz.LOCAL_Y, Ansatz.NC1):
            plan = DrivenHamiltonian(generate_instance(n, instance_seed(630, n)), ansatz).plan
            for positions, terms in plan.arrays:
                assert terms.dtype == np.int8
                assert set(np.unique(terms).tolist()) <= {-1, 0, 1}
                total += positions.nbytes + terms.nbytes
    assert total <= 0.6 * 2**20


def test_frame_vector_is_exact_and_read_only():
    for n in (1, 4, 9):
        frame = simulator._frame(n)
        turns = np.bitwise_count(np.arange(1 << n)) % 4
        assert np.array_equal(frame, np.array([1, -1j, -1, 1j])[turns])
        assert set(frame.tolist()) <= {1, -1, 1j, -1j}
        assert not frame.flags.writeable


@pytest.mark.parametrize("n", [1, 6, 9])
def test_phase_table_folds_in_the_frame_exactly(n):
    # Each entry of a kept table is exp(i s E_b) times i**popcount(b): the
    # cos and sin of its angle swapped and negated, with no rounding, and
    # the kept table equals a fresh one.
    inst = generate_instance(n, instance_seed(627, n))
    trotter_evolve(inst, Schedule(1.0, 20), Ansatz.NONE)
    scales, table = vars(inst)["phase_table"]
    assert np.array_equal(table, simulator._phase_table(inst.energies, scales))
    angles = np.multiply.outer(scales, inst.energies)
    cos, sin = np.cos(angles), np.sin(angles)
    turns = np.bitwise_count(np.arange(1 << n)) % 4
    assert np.array_equal(table.real, np.choose(turns, [cos, -sin, -cos, sin]))
    assert np.array_equal(table.imag, np.choose(turns, [sin, cos, -sin, -cos]))


def test_hamiltonian_is_freed_without_the_cycle_collector():
    # The shared plan must not point back at a Hamiltonian: with no
    # reference cycle, dropping the last reference frees it and its arrays.
    hamiltonian = DrivenHamiltonian(generate_instance(5, instance_seed(619, 0)), Ansatz.NC1)
    psi = plus_state(5)
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
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", 1 << 16)
    for ansatz in Ansatz:
        with pytest.raises(ResourceCapError, match="budget"):
            DrivenHamiltonian(inst, ansatz)
    assert "energies" not in vars(inst), "energies formed before the budget check"
    # nc1 at n = 10: the energies and five state vectors (psi, two scratch
    # states, the phase and the frame); the step plan is not charged.
    needed = 1024 * (8 + 5 * 16)
    assert needed == 90_112
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", needed - 1)
    with pytest.raises(ResourceCapError):
        DrivenHamiltonian(inst, Ansatz.NC1)
    assert "energies" not in vars(inst)
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", needed)
    assert DrivenHamiltonian(inst, Ansatz.NC1).energies is inst.energies


def test_operator_rows_are_charged_where_they_are_formed(monkeypatch):
    # An evolution forms no rows: nc1 at n = 10 is built and stepped within
    # the budget of the test above.  Its 10 rows of ``operator_rows``, one
    # per X mask, add 16 bytes an entry, and forming them 32 bytes per basis
    # state: the index, one string's parities and its term.
    inst = generate_instance(10, instance_seed(618, 0))
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", 90_112)
    hamiltonian = DrivenHamiltonian(inst, Ansatz.NC1)
    psi = plus_state(10)
    hamiltonian.step(psi, 0.1, 0.5, 1.0)
    values = hamiltonian.coefficients(0.5, 1.0)
    with pytest.raises(ResourceCapError, match="10 operator rows"):
        hamiltonian.operator_rows(values)
    with pytest.raises(ResourceCapError, match="budget"):
        hamiltonian.matvec(psi, 0.5, 1.0)
    needed = 90_112 + (10 * 16 + 32) * 1024
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", needed - 1)
    with pytest.raises(ResourceCapError, match="10 operator rows"):
        hamiltonian.operator_rows(values)
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", needed)
    assert hamiltonian.operator_rows(values).shape == (10, 1024)


@pytest.mark.parametrize("n", [10, 12])
def test_operator_rows_stay_within_their_charge(n):
    # Forming the rows holds no more than ``check_rows_budget`` charges
    # beyond the Hamiltonian's own bytes: 16 bytes a row entry and 32 per
    # basis state, for every drive, at a point with complex rows.  The
    # first call also forms the string phases, kept for later calls.
    inst = generate_instance(n, instance_seed(622, n))
    inst.energies
    for ansatz in Ansatz:
        hamiltonian = DrivenHamiltonian(inst, ansatz)
        values = hamiltonian.coefficients(0.4, 0.9)
        hamiltonian.operator_rows(values)
        tracemalloc.start()
        try:
            rows = hamiltonian.operator_rows(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.nbytes <= 16 * len(hamiltonian.row_masks) * (1 << n)
        assert peak <= rows.nbytes + 32 * (1 << n), (ansatz, peak - rows.nbytes)


def test_rows_budget_admits_two_local_up_to_18_qubits():
    # Arithmetic only, nothing is formed: two-local has n + n(n-1)/2 rows,
    # 171 at n = 18 (684 MiB, 714 MiB with the rest of its charge) and 190
    # at n = 19 (1,520 MiB, 1,580 MiB in all), which is refused.
    for n, fits in ((18, True), (19, False)):
        inst = ProblemInstance(n, (), (0.0,) * n, seed=0)
        hamiltonian = DrivenHamiltonian(inst, Ansatz.TWO_LOCAL)
        assert len(hamiltonian.row_masks) == n + n * (n - 1) // 2
        if fits:
            hamiltonian.check_rows_budget()
        else:
            with pytest.raises(ResourceCapError, match="190 operator rows needs 1580 MiB"):
                hamiltonian.check_rows_budget()
        assert "energies" not in vars(inst)


def test_dense_matrix_is_charged_before_it_is_allocated():
    # A complex matrix at n = 13 takes 1 GiB and a real one at n = 14 takes
    # 2 GiB: each is refused by the budget before the matrix exists.  (A
    # real one at n = 13, 512 MiB, fits the budget.)
    for n, ansatz, lam_dot in ((13, Ansatz.NC1, 1.0), (14, Ansatz.NONE, 0.0)):
        hamiltonian = DrivenHamiltonian(generate_instance(n, instance_seed(619, n)), ansatz)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match=f"dense matrix at n={n}"):
                hamiltonian.dense(0.5, lam_dot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak
        assert "energies" not in vars(hamiltonian.gauge.inst)


def test_compiling_a_drive_builds_no_pauli_string(monkeypatch):
    # Every drive compiles from the masks of _cd_masks alone.
    built = []
    check = PauliString.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(PauliString, "__post_init__", counted)
    assert PauliString(2, 1, 0) and len(built) == 1
    for n in (2, 5):
        inst = generate_instance(n, instance_seed(617, n))
        for ansatz in Ansatz:
            built.clear()
            hamiltonian = DrivenHamiltonian(inst, ansatz)
            assert built == [], ansatz
            assert len(hamiltonian.x_masks) == n + len(cd_terms(inst, ansatz))


# ---------------------------------------------------------- trotter_evolve


def test_trotter_pure_mixer_eigenstate():
    inst = ProblemInstance(3, (), (0.0, 0.0, 0.0), seed=0)
    report = trotter_evolve(inst, Schedule(1.0, 20), Ansatz.NONE)
    overlap = abs(np.vdot(plus_state(3), report.final_state))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_trotter_matches_ode_and_halving():
    inst = ProblemInstance(1, (), (1.0,), seed=0)
    reference = ode_reference(inst, Schedule(1.0, 1), Ansatz.NONE, 1e-11)
    deviations = {}
    for steps in (20, 40):
        final = trotter_evolve(inst, Schedule(1.0, steps), Ansatz.NONE).final_state
        deviations[steps] = float(np.linalg.norm(final - reference))
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


@pytest.mark.parametrize("chunk", [20, 3])
@pytest.mark.parametrize("helper", ["_local_y", "_nc1_alpha"])
def test_trotter_singular_point_mid_grid_aborts_with_its_step(monkeypatch, helper, chunk):
    # The chunk's coefficients are formed before its first step, yet a
    # singular point still names its own grid step, as a step-by-step
    # evolution did, also when it falls in a later chunk.
    monkeypatch.setattr(DrivenHamiltonian, "chunk_steps", chunk)
    sched = Schedule(1.0, 20)
    singular = sched.grid[6].lam
    closed_form = getattr(gauge, helper)

    def failing(*args):
        # The helpers take an array of points and name a singular one by
        # its 1-based index among them.
        hits = np.flatnonzero(args[-1] == singular)
        if len(hits):
            message = f"synthetic at lam={singular}"
            step = int(hits[0]) + 1
            raise SingularGaugeError(message, site=1, lam=singular, value=0.0, step=step)
        return closed_form(*args)

    monkeypatch.setattr(gauge, helper, failing)
    ansatz = Ansatz.LOCAL_Y if helper == "_local_y" else Ansatz.NC1
    with pytest.raises(SingularGaugeError) as err:
        trotter_evolve(generate_instance(4, instance_seed(621, 0)), sched, ansatz)
    assert err.value.step == 7
    assert (err.value.site, err.value.lam, err.value.value) == (1, singular, 0.0)
    assert str(err.value) == f"synthetic at lam={singular} (aborted at grid step 7/20)"


@pytest.mark.parametrize("chunk", [20, 3])
def test_trotter_non_finite_norm_mid_grid_stops_at_its_step(monkeypatch, chunk):
    # An infinite coefficient at grid step 7 leaves a NaN state from that
    # step on; the evolution reports step 7 whatever the chunk size.
    monkeypatch.setattr(DrivenHamiltonian, "chunk_steps", chunk)
    sched = Schedule(1.0, 20)
    closed_form = gauge._nc1_alpha
    overflowing = sched.grid[6].lam

    def overflowing_alpha(sums, lams):
        return np.where(lams == overflowing, math.inf, closed_form(sums, lams))

    monkeypatch.setattr(gauge, "_nc1_alpha", overflowing_alpha)
    with pytest.raises(IntegratorError, match=r"state norm nan after grid step 7/20$"):
        trotter_evolve(generate_instance(4, instance_seed(621, 0)), sched, Ansatz.NC1)


def test_trotter_refuses_phases_past_the_rounding_bound(monkeypatch):
    # One qubit, E = (h, -h): eps dt |h| just inside PHASE_TOLERANCE evolves,
    # just outside it is refused before the first step.
    sched = Schedule(1.0, 20)
    edge = simulator.PHASE_TOLERANCE / (np.finfo(float).eps * sched.dt)
    inside = trotter_evolve(ProblemInstance(1, (), (0.99 * edge,), seed=0), sched, Ansatz.NONE)
    assert inside.step_norms[-1] == pytest.approx(1.0, abs=1e-12)
    steps = []
    monkeypatch.setattr(DrivenHamiltonian, "steps", lambda self, *args: steps.append(args))
    for h in (1.01 * edge, 1e300):
        inst = ProblemInstance(1, (), (h,), seed=0)
        with pytest.raises(IntegratorError, match=r"phase rounding eps\*dt\*max\|E\| = .* rad"):
            trotter_evolve(inst, sched, Ansatz.NONE)
    assert steps == []


@pytest.mark.parametrize("ansatz", list(Ansatz))
def test_chunked_steps_bit_identical_to_single_steps(ansatz):
    # Steps prepared one at a time, all at once, or by trotter_evolve leave
    # the same final state, bit for bit.
    for n in (5, 9):
        inst = generate_instance(n, instance_seed(622, n))
        sched = Schedule(1.3, 20)
        _, lams, rates = np.array(sched.grid).T
        finals = []
        for chunk in (1, 7, sched.steps):
            hamiltonian = DrivenHamiltonian(inst, ansatz)
            hamiltonian.chunk_steps = chunk
            psi = plus_state(n)
            hamiltonian.steps(psi, sched.dt, lams, rates)
            finals.append(psi)
        stepped = plus_state(n)
        hamiltonian = DrivenHamiltonian(inst, ansatz)
        for point in sched.grid:
            hamiltonian.step(stepped, sched.dt, point.lam, point.lam_dot)
        finals += [stepped, trotter_evolve(inst, sched, ansatz).final_state]
        for final in finals[1:]:
            assert np.array_equal(final, finals[0]), (n, ansatz)


def test_chunk_steps_fit_one_percent_of_the_budget():
    # Each chunk's unitaries, its rows of the phase table with the angles
    # they are formed from (24 bytes an entry) and, for two-local, its
    # stacked normal equations stay within 1% of the budget; the default
    # 20-step grid is one chunk at the sizes the sweeps run.
    for ansatz in Ansatz:
        hamiltonian = DrivenHamiltonian(generate_instance(8, instance_seed(623, 0)), ansatz)
        per_step = hamiltonian.plan.step_bytes + hamiltonian.gauge.point_bytes + 24 * 2**8
        assert hamiltonian.chunk_steps * per_step <= simulator.MEMORY_BUDGET // 100
        assert hamiltonian.chunk_steps >= 20


@pytest.mark.parametrize("n", [2, 8, 12, 16, 20])
def test_chunk_steps_count_float64_chunk_sums(n):
    # Chunks are sized by the float64 sums a step forms, not by the int8
    # terms the plan stores: these are the chunk sizes of float64 terms.
    sizes = {
        2: (47934, 30504, 30504, 12427),
        8: (1048, 748, 223, 59),
        12: (102, 97, 56, 14),
        16: (6, 6, 6, 3),
        20: (1, 1, 1, 1),
    }
    inst = generate_instance(n, instance_seed(628, n))
    chunks = tuple(DrivenHamiltonian(inst, ansatz).chunk_steps for ansatz in Ansatz)
    assert chunks == sizes[n]


def count_phase_tables(monkeypatch):
    formed = []
    form = simulator._phase_table

    def counted(energies, scales):
        formed.append(len(scales))
        return form(energies, scales)

    monkeypatch.setattr(simulator, "_phase_table", counted)
    return formed


def test_drives_of_one_task_share_one_phase_table(monkeypatch):
    # The three drives of a sweep task step the same one-chunk grid on one
    # instance: the first forms the phase table and the others read it.
    from cdanneal.harness import ExperimentConfig, _run_task

    formed = count_phase_tables(monkeypatch)
    cfg = ExperimentConfig(n_values=(6,), ansatz=("none", "local-y", "nc1"), output_dir="unused")
    _run_task((cfg, 0, 6, 0))
    assert formed == [cfg.trotter_steps]


def test_kept_phase_table_gives_the_bits_of_a_fresh_one(monkeypatch):
    # A drive evolved after another drive of the same instance reads the
    # kept table and ends bit for bit where it ends on a fresh instance.  A
    # grid with other scales forms its own table, and so does every chunk
    # of a grid longer than one chunk, which the instance does not keep.
    formed = count_phase_tables(monkeypatch)
    n = 7
    inst = generate_instance(n, instance_seed(624, 0))
    for sched in (Schedule(1.0, 20), Schedule(1.3, 20), Schedule(1.0, 20)):
        for ansatz in Ansatz:
            shared = trotter_evolve(inst, sched, ansatz).final_state
            fresh = trotter_evolve(generate_instance(n, instance_seed(624, 0)), sched, ansatz)
            assert np.array_equal(shared, fresh.final_state), (sched, ansatz)
    # Per schedule: one table on the shared instance, one per fresh instance.
    assert formed == [20] * 3 * (1 + len(Ansatz))
    formed.clear()
    sched = Schedule(1.0, 20)
    _, lams, rates = np.array(sched.grid).T
    inst = generate_instance(n, instance_seed(624, 1))
    finals = []
    for chunk in (7, 20):
        hamiltonian = DrivenHamiltonian(inst, Ansatz.NC1)
        hamiltonian.chunk_steps = chunk
        psi = plus_state(n)
        hamiltonian.steps(psi, sched.dt, lams, rates)
        finals.append(psi)
        assert ("phase_table" in vars(inst)) == (chunk == 20)
    assert formed == [7, 7, 6, 20]
    assert np.array_equal(finals[0], finals[1])


@pytest.mark.parametrize(
    "ansatz, n, most", [(Ansatz.NC1, 12, 14), (Ansatz.NC1, 10, 11), (Ansatz.TWO_LOCAL, 8, 11)]
)
def test_step_plan_gathers_at_most(ansatz, n, most):
    # A gather lines up the next run's qubits behind its own, so that run
    # needs none: about half the gathers of one per run out of place.
    hamiltonian = DrivenHamiltonian(generate_instance(n, instance_seed(625, n)), ansatz)
    gathers = [op for op in hamiltonian.plan.ops if op[0] == simulator._GATHER]
    assert len(gathers) == len(hamiltonian.plan.gathers) <= most


def test_trotter_local_y_fieldless_site():
    # Site 0 has no field and no nonzero coupling, so it carries no Y term;
    # its local-y denominator vanishes at lam = 1 but is never divided by.
    inst = ProblemInstance(2, ((0, 1, 0.0),), (0.0, 0.7), seed=1)
    report = trotter_evolve(inst, Schedule(1.0, 20), Ansatz.LOCAL_Y)
    assert max(abs(v - 1.0) for v in report.step_norms) <= 1e-12


def test_gauge_compiled_once_per_instance(monkeypatch):
    # _cd_masks is the one source of the CD strings.
    counts = {"cd_masks": 0, "two_local": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(gauge, "_cd_masks", counted("cd_masks", gauge._cd_masks))
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
            counts.update(cd_masks=0, two_local=0)
            run()
            assert counts == {
                "cd_masks": 1,
                "two_local": int(ansatz is Ansatz.TWO_LOCAL),
            }, ansatz


# ------------------------------------------------------------ ode_reference


def test_ode_single_site_fine_product_oracle():
    # Midpoint product of 1e5 exact 2x2 exponentials as the reference.
    inst = ProblemInstance(1, (), (1.0,), seed=0)
    sched = Schedule(1.0, 1)
    steps = 100_000
    dt = sched.total_time / steps
    psi = plus_state(1)
    for k in range(steps):
        lam = sched.lam((k + 0.5) * dt)
        a, b = lam * 1.0, -(1.0 - lam)  # h Z and mixer X weights
        r = math.hypot(a, b)
        c, s = math.cos(dt * r), math.sin(dt * r)
        z_part = a / r * psi * np.array([1.0, -1.0])
        x_part = b / r * psi[::-1]
        psi = c * psi - 1j * s * (z_part + x_part)
    reference = ode_reference(inst, sched, Ansatz.NONE, 1e-12)
    fidelity = abs(np.vdot(psi, reference)) ** 2
    assert fidelity >= 1.0 - 1e-8


def test_ode_norm_drift():
    inst = generate_instance(3, instance_seed(88, 0))
    for ansatz in (Ansatz.NONE, Ansatz.NC1):
        state = ode_reference(inst, Schedule(1.0, 1), ansatz, 1e-10)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-8


def test_trotter_first_order_convergence_sweep():
    inst = generate_instance(3, instance_seed(88, 1))
    for ansatz in (Ansatz.NONE, Ansatz.LOCAL_Y, Ansatz.NC1):
        reference = ode_reference(inst, Schedule(1.0, 1), ansatz, 1e-11)
        errors = []
        for steps in (20, 40, 80, 160):
            final = trotter_evolve(inst, Schedule(1.0, steps), ansatz).final_state
            errors.append(float(np.linalg.norm(final - reference)))
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
    rotated = np.exp(1j * 0.7) * state
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
