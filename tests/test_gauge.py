import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdanneal.errors import ParameterError, SingularGaugeError
from cdanneal.gauge import (
    Ansatz,
    CompiledGauge,
    adiabatic_pair,
    assemble_hamiltonian,
    cd_coefficients,
    cd_terms,
    local_y_coefficients,
    minimize_action,
    nc1_coefficient,
    nc1_operator,
    two_local_basis,
)
from cdanneal.pauli import (
    PauliString,
    PauliSum,
    commutator,
    is_stoquastic,
    to_dense,
    trace_inner,
)
from cdanneal.problem import (
    ProblemInstance,
    generate_instance,
    instance_seed,
    mixer_hamiltonian,
    problem_hamiltonian,
)

LAM_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def single_site(n, i, axis):
    return PauliSum(n, {PauliString.single(n, i, axis): 1.0})


def cd_part(inst, ansatz, lam, lam_dot):
    """lam_dot * A(lam) as an operator sum: the driven minus the undriven Hamiltonian."""
    return assemble_hamiltonian(inst, lam, lam_dot, ansatz) - assemble_hamiltonian(
        inst, lam, 0.0, ansatz
    )


# ------------------------------------------------------ closed-form local Y


def test_local_y_single_site_values():
    inst = ProblemInstance(1, (), (1.0,), seed=0)
    assert local_y_coefficients(inst, 0.0) == pytest.approx([0.5])
    assert local_y_coefficients(inst, 1.0) == pytest.approx([0.5])


def test_local_y_zero_fields():
    inst = ProblemInstance(3, ((0, 1, 0.7), (0, 2, -0.2), (1, 2, 1.1)), (0.0, 0.0, 0.0), seed=0)
    assert np.allclose(local_y_coefficients(inst, 0.4), 0.0)


def test_local_y_matches_joint_minimization():
    # The n >= 2 reading: the joint least-squares over {Y_i} decouples per
    # site, so the closed form is the joint minimizer, not just a site-wise
    # approximation.  Checked against the solver at several sizes.
    worst = 0.0
    for n in (1, 2, 3, 4):
        for rep in range(3):
            inst = generate_instance(n, instance_seed(101, 10 * n + rep))
            basis = [single_site(n, i, "Y") for i in range(n)]
            for lam in LAM_GRID:
                H, dH = adiabatic_pair(inst, lam)
                solved = minimize_action(basis, H, dH)
                closed = local_y_coefficients(inst, lam)
                worst = max(worst, float(np.abs(closed - solved.coefficients).max()))
    assert worst <= 1e-10


def test_local_y_singularity():
    empty = ProblemInstance(1, (), (0.0,), seed=0)
    with pytest.raises(SingularGaugeError) as err:
        local_y_coefficients(empty, 1.0)
    assert err.value.site == 0


# ---------------------------------------------- closed-form NC1 coefficient


def test_nc1_single_site_values():
    inst = ProblemInstance(1, (), (1.0,), seed=0)
    assert nc1_coefficient(inst, 0.0) == pytest.approx(-0.25)
    assert nc1_coefficient(inst, 1.0) == pytest.approx(-0.25)


def test_nc1_matches_action_minimization():
    worst = 0.0
    for n in (2, 3, 4):
        for rep in range(4):
            inst = generate_instance(n, instance_seed(202, 10 * n + rep))
            for lam in LAM_GRID:
                H, dH = adiabatic_pair(inst, lam)
                solved = minimize_action([nc1_operator(H, dH)], H, dH)
                worst = max(
                    worst, abs(nc1_coefficient(inst, lam) - solved.coefficients[0])
                )
    assert worst <= 1e-8


def test_nc1_denominator_equals_normal_equation_diagonal():
    # Guard against transcription slips in the closed-form denominator: up to
    # the fixed factor 16 from the basis normalization, R must equal the
    # normal-equation diagonal <i[O,H], i[O,H]> for the nested-commutator op.
    for n in (2, 3, 4):
        inst = generate_instance(n, instance_seed(203, n))
        h2 = float(np.sum(inst.field_array() ** 2))
        j2 = sum(v * v for _, _, v in inst.couplings)
        for lam in LAM_GRID:
            H, dH = adiabatic_pair(inst, lam)
            image = 1j * commutator(nc1_operator(H, dH), H)
            gram_diag = trace_inner(image, image).real
            r_value = -0.25 * (h2 + 2.0 * j2) / nc1_coefficient(inst, lam)
            assert gram_diag == pytest.approx(16.0 * r_value, rel=1e-9)


def test_nc1_singularity():
    empty = ProblemInstance(2, ((0, 1, 0.0),), (0.0, 0.0), seed=0)
    with pytest.raises(SingularGaugeError) as err:
        nc1_coefficient(empty, 0.5)
    assert err.value.lam == 0.5


# ------------------------------------------------------ nested commutators


def test_nc_term_single_spin_oracle():
    # H = lam Z - (1 - lam) X, dH = Z + X: i[H, dH] = -2 Y at every lam.
    for lam in LAM_GRID:
        H = PauliSum.from_labels({"Z": lam, "X": -(1.0 - lam)})
        dH = PauliSum.from_labels({"Z": 1.0, "X": 1.0})
        term = nc1_operator(H, dH)
        assert term.approx_eq(PauliSum.from_labels({"Y": -2.0}))
        dense_h, dense_dh = to_dense(H), to_dense(dH)
        oracle = 1j * (dense_h @ dense_dh - dense_dh @ dense_h)
        assert np.allclose(to_dense(term), oracle)


def test_nc_term_operator_content():
    # First order on the full problem/mixer pair: only Y_i and the
    # symmetrized Y Z couplings appear, nothing else.
    for n in (2, 3, 4):
        inst = generate_instance(n, instance_seed(303, n))
        for lam in (0.2, 0.8):
            H, dH = adiabatic_pair(inst, lam)
            term = nc1_operator(H, dH)
            coupled = {(i, j): v for i, j, v in inst.couplings}
            for string, coeff in term:
                assert string.y_count == 1
                assert string.weight in (1, 2)
            # coefficients follow -2 (h_i Y_i + J_ij (YZ + ZY))
            for i in range(n):
                assert term.coefficient(PauliString.single(n, i, "Y")) == pytest.approx(
                    -2.0 * inst.fields[i]
                )
            for (i, j), value in coupled.items():
                yz = PauliString(n, 1 << i, (1 << i) | (1 << j))
                zy = PauliString(n, 1 << j, (1 << i) | (1 << j))
                assert term.coefficient(yz) == pytest.approx(-2.0 * value)
                assert term.coefficient(zy) == pytest.approx(-2.0 * value)
            dense_h, dense_dh = to_dense(H), to_dense(dH)
            oracle = 1j * (dense_h @ dense_dh - dense_dh @ dense_h)
            assert np.allclose(to_dense(term), oracle, atol=1e-12)


def test_nc_terms_commuting_input_empty():
    H = PauliSum.from_labels({"ZZ": 1.0})
    dH = PauliSum.from_labels({"ZI": 0.5, "IZ": -0.25})
    assert len(nc1_operator(H, dH)) == 0


def test_nc_terms_odd_y_count():
    inst = generate_instance(3, instance_seed(404, 1))
    H, dH = adiabatic_pair(inst, 0.37)
    term = nc1_operator(H, dH)
    assert len(term) > 0 and term.is_hermitian()
    assert all(s.y_count % 2 == 1 for s, _ in term)


def test_nc_terms_validation():
    inst = generate_instance(4, instance_seed(404, 2))
    H, dH = adiabatic_pair(inst, 0.5)
    with pytest.raises(ParameterError):
        nc1_operator(1j * H, dH)
    with pytest.raises(ParameterError):
        nc1_operator(H, 1j * dH)


# --------------------------------------------------------- action minimizer


def test_minimize_action_reproduces_local_y():
    inst = ProblemInstance(1, (), (0.8,), seed=0)
    for lam in LAM_GRID:
        H, dH = adiabatic_pair(inst, lam)
        solved = minimize_action([single_site(1, 0, "Y")], H, dH)
        assert solved.coefficients[0] == pytest.approx(
            local_y_coefficients(inst, lam)[0], abs=1e-10
        )
        assert solved.residual_action >= 0.0


def test_minimize_action_orthogonal_basis():
    # Diagonal basis element commutes with a diagonal H: zero coefficient,
    # residual equal to <dH, dH>.
    H = PauliSum.from_labels({"ZZ": 1.0})
    dH = PauliSum.from_labels({"ZI": 1.0, "IZ": 0.5})
    solved = minimize_action([PauliSum.from_labels({"ZI": 1.0})], H, dH)
    assert solved.coefficients[0] == 0.0
    assert solved.condition_warning
    assert solved.residual_action == pytest.approx(trace_inner(dH, dH).real)


def test_minimize_action_dense_scan_oracle():
    # Brute scan over the single coefficient confirms the solver minimum.
    inst = generate_instance(2, instance_seed(505, 3))
    lam = 0.5
    H, dH = adiabatic_pair(inst, lam)
    basis_op = nc1_operator(H, dH)
    solved = minimize_action([basis_op], H, dH)
    best = solved.coefficients[0]

    dense_h, dense_dh, dense_b = to_dense(H), to_dense(dH), to_dense(basis_op)

    def action(c):
        g = dense_dh + 1j * (c * dense_b @ dense_h - dense_h * 1.0 @ (c * dense_b))
        return float(np.trace(g @ g).real) / dense_h.shape[0]

    scan = np.linspace(best - 0.05, best + 0.05, 41)
    values = [action(c) for c in scan]
    assert values[20] == pytest.approx(min(values), abs=1e-12)
    assert solved.residual_action == pytest.approx(values[20], abs=1e-9)


def test_minimize_action_validation():
    H = PauliSum.from_labels({"Z": 1.0})
    with pytest.raises(ParameterError):
        minimize_action([], H, H)
    with pytest.raises(ParameterError):
        minimize_action([PauliSum.from_labels({"Y": 1j})], H, H)


# ------------------------------------------------------------ 2-local family


def test_two_local_residual_below_nc1():
    for n in (2, 3, 4):
        inst = generate_instance(n, instance_seed(606, n))
        for lam in (0.3, 0.5, 0.7):
            H, dH = adiabatic_pair(inst, lam)
            nc_res = minimize_action([nc1_operator(H, dH)], H, dH).residual_action
            solution = CompiledGauge(inst, Ansatz.TWO_LOCAL).solve_two_local(lam)
            assert solution.residual_action <= nc_res + 1e-10


def test_two_local_zero_fields_kill_single_sites():
    inst = ProblemInstance(2, ((0, 1, 0.9),), (0.0, 0.0), seed=0)
    solution = CompiledGauge(inst, Ansatz.TWO_LOCAL).solve_two_local(0.5)
    assert np.abs(solution.coefficients[:2]).max() <= 1e-10
    assert cd_part(inst, Ansatz.TWO_LOCAL, 0.5, 1.0).is_hermitian()


def test_two_local_property_sweep():
    count = 0
    for n in (2, 3, 4, 5, 6):
        for rep in range(20):
            inst = generate_instance(n, instance_seed(707, 100 * n + rep))
            solution = CompiledGauge(inst, Ansatz.TWO_LOCAL).solve_two_local(0.5)
            assert solution.coefficients.shape == (n * n,)
            assert np.all(np.isfinite(solution.coefficients))
            assert cd_part(inst, Ansatz.TWO_LOCAL, 0.5, 1.0).is_hermitian()
            assert solution.residual_action >= 0.0
            count += 1
    assert count == 100


_VALUES = st.one_of(st.just(0.0), st.floats(0.05, 2.0), st.floats(-2.0, -0.05))


@st.composite
def two_local_points(draw):
    n = draw(st.integers(2, 6))
    zero_fields, zero_couplings = draw(st.sampled_from(
        [(False, False), (True, False), (False, True), (True, True)]
    ))
    fields = tuple(0.0 if zero_fields else draw(_VALUES) for _ in range(n))
    couplings = tuple(
        (i, j, 0.0 if zero_couplings else draw(_VALUES))
        for i in range(n)
        for j in range(i + 1, n)
    )
    lam = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return ProblemInstance(n, couplings, fields, seed=0), lam


@settings(max_examples=60, deadline=None)
@given(two_local_points())
# 1 - lam = 1.1e-16 scales the whole H below PRUNE_TOLERANCE: both solves
# must treat it as the zero operator and flag the pseudo-inverse path.
@example((ProblemInstance(2, ((0, 1, 0.0),), (0.0, 0.0), seed=0), 0.9999999999999999))
def test_compiled_two_local_matches_minimize_action(point):
    # The compiled quadratic-in-lam solve against the general PauliSum solver;
    # all-zero fields or couplings exercise the pseudo-inverse path.
    inst, lam = point
    basis = two_local_basis(inst.n)
    solved = minimize_action(basis, *adiabatic_pair(inst, lam))
    compiled = CompiledGauge(inst, Ansatz.TWO_LOCAL).solve_two_local(lam)
    assert compiled.coefficients.shape == solved.coefficients.shape == (len(basis),)
    assert np.abs(compiled.coefficients - solved.coefficients).max() <= 1e-10
    assert abs(compiled.residual_action - solved.residual_action) <= 1e-10
    assert compiled.condition_warning == solved.condition_warning


def test_compiled_two_local_pseudo_inverse_path():
    # No fields and no couplings: H_p = 0, so every image vanishes at lam = 1.
    inst = ProblemInstance(3, ((0, 1, 0.0), (0, 2, 0.0), (1, 2, 0.0)), (0.0,) * 3, seed=0)
    compiled = CompiledGauge(inst, Ansatz.TWO_LOCAL).solve_two_local(1.0)
    assert compiled.condition_warning
    assert np.all(compiled.coefficients == 0.0)


def test_two_local_symmetry_forbidden_coefficient_is_zero():
    # Site 2 carries no field and no coupling, so its Y term has zero source;
    # near lam = 1 its Gram eigenvalue is 4e-10, and a rounding-level source
    # used to come out as a coefficient of -2e-9 (general solver) or -9e-9
    # (compiled solve).
    couplings = ((0, 1, 0.25), (0, 2, 0.0), (0, 3, 0.0), (1, 2, 0.0), (1, 3, 0.25), (2, 3, 0.0))
    inst = ProblemInstance(4, couplings, (0.0,) * 4, seed=0)
    lam = 0.99999
    basis = two_local_basis(inst.n)
    solved = minimize_action(basis, *adiabatic_pair(inst, lam))
    compiled = CompiledGauge(inst, Ansatz.TWO_LOCAL).solve_two_local(lam)
    for solution in (solved, compiled):
        assert abs(solution.coefficients[2]) <= 1e-15
    assert np.abs(compiled.coefficients - solved.coefficients).max() <= 1e-10


def test_certified_solve_matches_eigh_reference():
    # Generated instances never need the truncation: the Cholesky-certified
    # solve must agree with the eigendecomposition reference to rounding,
    # and neither flags a point.
    from cdanneal.gauge import _solve_certified, _solve_normal

    lams = np.linspace(0.0, 1.0, 41)
    for n in range(2, 9):
        for rep in range(2):
            inst = generate_instance(n, instance_seed(911, 10 * n + rep))
            gauge = CompiledGauge(inst, Ansatz.TWO_LOCAL)
            grams, sources = gauge.normal_equations(lams)
            fast, flags = _solve_certified(grams, sources)
            for k in range(len(lams)):
                reference, flag = _solve_normal(grams[k], sources[k])
                scale = np.abs(reference).max()
                assert np.abs(fast[k] - reference).max() <= 1e-12 * scale, (n, rep, lams[k])
                assert flags[k] == flag == False, (n, rep, lams[k])  # noqa: E712


def test_ill_conditioned_grams_take_the_eigh_path(monkeypatch):
    import cdanneal.gauge as gauge_mod

    calls = []
    reference = gauge_mod._solve_normal

    def counted(gram, source):
        calls.append(float(np.trace(gram)))
        return reference(gram, source)

    monkeypatch.setattr(gauge_mod, "_solve_normal", counted)
    # A whole generated grid is certified: no eigendecomposition.
    inst = generate_instance(6, instance_seed(912, 0))
    lams = np.linspace(0.0, 1.0, 21)
    cd_coefficients(inst, Ansatz.TWO_LOCAL, lams, np.ones(21))
    assert calls == []
    # The symmetry-forbidden direction near lam = 1 (smallest eigenvalue
    # 7e-10 of the mean) and the zero Gram matrix of H = 0 fail the check,
    # each in the middle of a stack whose other points pass it.
    couplings = ((0, 1, 0.25), (0, 2, 0.0), (0, 3, 0.0), (1, 2, 0.0), (1, 3, 0.25), (2, 3, 0.0))
    forbidden = ProblemInstance(4, couplings, (0.0,) * 4, seed=0)
    values = cd_coefficients(forbidden, Ansatz.TWO_LOCAL, np.array([0.5, 0.99999, 0.7]), np.ones(3))
    assert len(calls) == 1 and abs(values[1, 2]) <= 1e-15
    empty = ProblemInstance(3, ((0, 1, 0.0), (0, 2, 0.0), (1, 2, 0.0)), (0.0,) * 3, seed=0)
    calls.clear()
    cd_coefficients(empty, Ansatz.TWO_LOCAL, np.array([0.2, 1.0, 0.4]), np.ones(3))
    assert calls == [0.0]


@pytest.mark.parametrize("ansatz", [Ansatz.LOCAL_Y, Ansatz.NC1, Ansatz.TWO_LOCAL])
def test_array_cd_coefficients_equal_stacked_scalar_calls(ansatz):
    # Zero-rate points are exact zeros; the closed forms run point by point
    # and keep their bits, the two-local points share one stacked solve.
    for n in (2, 5, 8):
        inst = generate_instance(n, instance_seed(913, n))
        gauge = CompiledGauge(inst, ansatz)
        lams = np.append(np.linspace(0.0, 1.0, 11), [0.37, 1.0])
        rates = np.append(np.linspace(0.0, 2.0, 11), [0.0, 3.7e-32])
        table = cd_coefficients(gauge, ansatz, lams, rates)
        stacked = np.array(
            [cd_coefficients(gauge, ansatz, float(a), float(b)) for a, b in zip(lams, rates)]
        )
        assert table.shape == stacked.shape == (len(lams), len(gauge.terms))
        assert np.all(table[[0, 11]] == 0.0)
        if ansatz is Ansatz.TWO_LOCAL:
            assert np.abs(table - stacked).max() <= 1e-12 * np.abs(stacked).max()
        else:
            assert np.array_equal(table, stacked)
    with pytest.raises(ParameterError):
        cd_coefficients(gauge, ansatz, lams, rates[:-1])


def pauli_sum_two_local_blocks(inst):
    """The two-local action blocks from PauliSum commutators, as the oracle.

    Row 0 of the table is dH = H_p - H_x, then the images i[B_b, H_x] and
    i[B_b, H_p]; one column per Pauli string in order of first appearance.
    """
    n = inst.n
    basis = two_local_basis(n)
    mixer, problem = mixer_hamiltonian(n), problem_hamiltonian(inst)
    ops = (
        [problem - mixer]
        + [1j * commutator(op, mixer) for op in basis]
        + [1j * commutator(op, problem) for op in basis]
    )
    columns = {}
    rows, cols, values = [], [], []
    for row, op in enumerate(ops):
        for string, value in op:
            rows.append(row)
            cols.append(columns.setdefault(string, len(columns)))
            values.append(value.real)
    table = np.zeros((len(ops), len(columns)))
    table[rows, cols] = values
    source, image_x, image_p = table[0], table[1 : 1 + len(basis)], table[1 + len(basis) :]
    cross = image_x @ image_p.T
    return {
        "gram_xx": image_x @ image_x.T,
        "gram_xp": cross + cross.T,
        "gram_pp": image_p @ image_p.T,
        "source_x": image_x @ source,
        "source_p": image_p @ source,
        "norm_dh": float(source @ source),
    }


# Values at and around the 1e-12 prune tolerance (2e-12 and -1.8e-12 sum
# to an image entry below it), and pairs that cancel.
_COMPILE_VALUES = st.one_of(
    _VALUES,
    st.sampled_from([5e-13, -7e-13, 2e-12, -1.8e-12, 0.5, -0.5]),
    st.floats(-3.0, 3.0),
)


@st.composite
def two_local_instances(draw):
    n = draw(st.integers(2, 7))
    zero_fields, zero_couplings = draw(st.sampled_from(
        [(False, False), (True, False), (False, True), (True, True)]
    ))
    fields = tuple(0.0 if zero_fields else draw(_COMPILE_VALUES) for _ in range(n))
    couplings = tuple(
        (i, j, 0.0 if zero_couplings else draw(_COMPILE_VALUES))
        for i in range(n)
        for j in range(i + 1, n)
    )
    return ProblemInstance(n, couplings, fields, seed=0)


@settings(max_examples=80, deadline=None)
@given(two_local_instances())
@example(ProblemInstance(3, ((0, 1, 0.4), (0, 2, 0.0), (1, 2, -0.7)), (2e-12, -1.8e-12, 0.3), 0))
def test_compiled_two_local_blocks_match_pauli_sum_oracle(inst):
    # The array compile must give the oracle's blocks bit for bit.  In the
    # example, h_0 and h_1 meet in one X_0 X_1 image entry of 4e-13, which
    # the oracle prunes.
    gauge = CompiledGauge(inst, Ansatz.TWO_LOCAL)
    for name, expected in pauli_sum_two_local_blocks(inst).items():
        assert np.array_equal(getattr(gauge, name), expected), name


def test_compiled_two_local_blocks_match_on_generated_instances():
    for n in range(2, 9):
        for rep in range(3):
            inst = generate_instance(n, instance_seed(910, 10 * n + rep))
            gauge = CompiledGauge(inst, Ansatz.TWO_LOCAL)
            for name, expected in pauli_sum_two_local_blocks(inst).items():
                assert np.array_equal(getattr(gauge, name), expected), (n, rep, name)


def test_compiled_gauge_drive_mismatch():
    inst = generate_instance(3, instance_seed(909, 3))
    gauge = CompiledGauge(inst, Ansatz.NC1)
    with pytest.raises(ParameterError):
        cd_coefficients(gauge, Ansatz.TWO_LOCAL, 0.5, 1.0)
    with pytest.raises(ParameterError):
        gauge.solve_two_local(0.5)


def test_compiled_closed_forms_bit_identical():
    # The compiled sums must reproduce the stateless closed forms exactly.
    for n in (1, 2, 5):
        inst = generate_instance(n, instance_seed(909, 10 + n))
        local_y = CompiledGauge(inst, Ansatz.LOCAL_Y)
        nc1 = CompiledGauge(inst, Ansatz.NC1)
        for lam, lam_dot in ((0.0, 0.3), (0.37, 1.2), (1.0, 0.8)):
            beta = local_y_coefficients(inst, lam)
            got = cd_coefficients(local_y, Ansatz.LOCAL_Y, lam, lam_dot)
            assert np.array_equal(got, lam_dot * beta)
            alpha = nc1_coefficient(inst, lam)
            sources = list(inst.fields) + [v for _, _, v in inst.couplings for _ in (0, 1)]
            got = cd_coefficients(nc1, Ansatz.NC1, lam, lam_dot)
            assert np.array_equal(got, [-2.0 * lam_dot * alpha * v for v in sources])


def test_local_y_skips_sites_without_term():
    # Site 0 has no field and no nonzero coupling, so it carries no Y term and
    # its denominator, which vanishes at lam = 1, is never divided by.
    inst = ProblemInstance(2, ((0, 1, 0.0),), (0.0, 0.7), seed=1)
    assert cd_terms(inst, Ansatz.LOCAL_Y) == [PauliString.single(2, 1, "Y")]
    values = cd_coefficients(inst, Ansatz.LOCAL_Y, 1.0, 1.0)
    assert values == pytest.approx(local_y_coefficients(
        ProblemInstance(1, (), (0.7,), seed=1), 1.0
    ))


def test_two_local_needs_two_sites():
    with pytest.raises(ParameterError):
        two_local_basis(1)
    with pytest.raises(ParameterError, match="n >= 2"):
        CompiledGauge(ProblemInstance(1, (), (0.5,), seed=0), Ansatz.TWO_LOCAL)


def test_action_monotone_in_basis_size():
    inst = generate_instance(3, instance_seed(808, 0))
    lam = 0.45
    H, dH = adiabatic_pair(inst, lam)
    basis = two_local_basis(3)
    n_y = 3
    n_zy = 3
    nested = [basis[:n_y], basis[: n_y + n_zy], basis]
    residuals = [minimize_action(b, H, dH).residual_action for b in nested]
    assert residuals[0] >= residuals[1] - 1e-12
    assert residuals[1] >= residuals[2] - 1e-12


def test_exact_gauge_single_site_improvement():
    inst = ProblemInstance(1, (), (1.3,), seed=0)
    for lam in (0.25, 0.5, 0.75):
        H, dH = adiabatic_pair(inst, lam)
        solved = minimize_action([single_site(1, 0, "Y")], H, dH)
        at_zero = trace_inner(dH, dH).real
        assert solved.residual_action < at_zero


# ----------------------------------------------------- CD operator assembly


def test_cd_part_none_empty():
    inst = generate_instance(3, 1)
    assert len(cd_part(inst, Ansatz.NONE, 0.5, 1.0)) == 0
    assert cd_terms(inst, Ansatz.NONE) == []


def test_cd_part_hermitian_and_nonstoquastic():
    inst = generate_instance(3, instance_seed(909, 0))
    for ansatz in (Ansatz.LOCAL_Y, Ansatz.NC1, Ansatz.TWO_LOCAL):
        operator = cd_part(inst, ansatz, 0.5, 1.7)
        assert operator.is_hermitian()
        assert len(operator) > 0
        assert not is_stoquastic(operator)
        assert all(s.y_count % 2 == 1 for s, _ in operator)


def test_cd_coefficients_zero_rate_short_circuit():
    # Singular closed forms must not matter when the rate vanishes.
    empty = ProblemInstance(2, ((0, 1, 1.0),), (0.5, -0.5), seed=0)
    values = cd_coefficients(empty, Ansatz.NC1, 0.5, 0.0)
    assert np.allclose(values, 0.0)
    assert len(values) == len(cd_terms(empty, Ansatz.NC1))


def test_cd_terms_align_with_coefficients():
    inst = generate_instance(4, instance_seed(909, 1))
    for ansatz in (Ansatz.LOCAL_Y, Ansatz.NC1, Ansatz.TWO_LOCAL):
        strings = cd_terms(inst, ansatz)
        values = cd_coefficients(inst, ansatz, 0.4, 0.9)
        assert len(strings) == len(values)


def test_nc1_operator_matches_eq5_structure():
    inst = generate_instance(3, instance_seed(909, 2))
    lam, lam_dot = 0.6, 1.1
    alpha = nc1_coefficient(inst, lam)
    operator = cd_part(inst, Ansatz.NC1, lam, lam_dot)
    for i in range(3):
        expected = -2.0 * lam_dot * alpha * inst.fields[i]
        assert operator.coefficient(PauliString.single(3, i, "Y")) == pytest.approx(expected)
    for i, j, value in inst.couplings:
        yz = PauliString(3, 1 << i, (1 << i) | (1 << j))
        assert operator.coefficient(yz) == pytest.approx(-2.0 * lam_dot * alpha * value)


# ------------------------------------------------------- driven Hamiltonian


def test_assemble_limits():
    inst = generate_instance(3, instance_seed(1010, 0))
    for ansatz in Ansatz:
        assert assemble_hamiltonian(inst, 1.0, 0.0, ansatz).approx_eq(
            problem_hamiltonian(inst)
        )
        assert assemble_hamiltonian(inst, 0.0, 0.0, ansatz).approx_eq(
            mixer_hamiltonian(3)
        )


def test_assemble_zero_rate_ansatz_independent():
    inst = generate_instance(3, instance_seed(1010, 1))
    reference = assemble_hamiltonian(inst, 0.37, 0.0, Ansatz.NONE)
    for ansatz in Ansatz:
        assert assemble_hamiltonian(inst, 0.37, 0.0, ansatz).approx_eq(reference)


def test_assemble_nc1_single_site_dense_oracle():
    inst = ProblemInstance(1, (), (1.0,), seed=0)
    lam, lam_dot = 0.5, 0.9
    alpha = nc1_coefficient(inst, lam)
    assembled = assemble_hamiltonian(inst, lam, lam_dot, Ansatz.NC1)
    expected = (
        to_dense(PauliSum.from_labels({"X": -(1.0 - lam)}))
        + lam * to_dense(PauliSum.from_labels({"Z": 1.0}))
        + (-2.0 * lam_dot * alpha) * to_dense(PauliSum.from_labels({"Y": 1.0}))
    )
    assert np.allclose(to_dense(assembled), expected)


def test_assemble_domain():
    inst = generate_instance(2, 5)
    with pytest.raises(ParameterError):
        assemble_hamiltonian(inst, 1.5, 0.0, Ansatz.NONE)


def test_ansatz_parse():
    assert Ansatz.parse("nc1") is Ansatz.NC1
    assert Ansatz.parse("local-y") is Ansatz.LOCAL_Y
    with pytest.raises(ParameterError):
        Ansatz.parse("bogus")
