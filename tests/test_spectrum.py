import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

import cdanneal.spectrum as spectrum_mod
from cdanneal.errors import IntegratorError, ParameterError, SingularGaugeError
from cdanneal.gauge import Ansatz, assemble_hamiltonian, cd_coefficients
from cdanneal.pauli import to_dense
from cdanneal.problem import (
    ProblemInstance,
    generate_instance,
    instance_seed,
)
from cdanneal.schedule import Schedule
from cdanneal.simulator import DrivenHamiltonian
from cdanneal.spectrum import (
    cd_norm,
    gap_curve,
    instantaneous_spectrum,
)


def cd_dense_norm(inst, ansatz, lam, lam_dot):
    """Spectral norm of lam_dot * A(lam), the driven minus the undriven Hamiltonian."""
    cd_part = assemble_hamiltonian(inst, lam, lam_dot, ansatz) - assemble_hamiltonian(
        inst, lam, 0.0, ansatz
    )
    return float(np.abs(np.linalg.eigvalsh(to_dense(cd_part))).max())


def test_spectrum_mixer_limit():
    inst = ProblemInstance(1, (), (0.3,), seed=0)
    eigenvalues = instantaneous_spectrum(DrivenHamiltonian(inst, Ansatz.NONE), 0.0, 0.0)
    assert eigenvalues == pytest.approx([-1.0, 1.0])


def test_spectrum_half_way_single_site():
    inst = ProblemInstance(1, (), (1.0,), seed=0)
    eigenvalues = instantaneous_spectrum(DrivenHamiltonian(inst, Ansatz.NONE), 0.5, 0.0)
    assert eigenvalues[1] - eigenvalues[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_spectrum_final_time_matches_classical_gap():
    for seed in range(4):
        inst = generate_instance(5, instance_seed(911, seed))
        energies = np.sort(np.unique(np.round(inst.energies, 12)))
        for ansatz in (Ansatz.NONE, Ansatz.NC1):
            hamiltonian = DrivenHamiltonian(inst, ansatz)
            eigenvalues = instantaneous_spectrum(hamiltonian, 1.0, 0.0)
            assert eigenvalues[1] - eigenvalues[0] == pytest.approx(
                energies[1] - energies[0], abs=1e-9
            )


def test_spectrum_caps_and_validation():
    # Above the dense cap the Lanczos path still serves the low end.
    big = generate_instance(15, 1)
    hamiltonian = DrivenHamiltonian(big, Ansatz.NONE)
    low = instantaneous_spectrum(hamiltonian, 0.5, 0.0)
    assert low.shape == (2,) and low[0] <= low[1]
    # Rayleigh bound from the classical ground state, where <b|H|b> = lam E(b).
    assert low[0] <= 0.5 * big.energies.min() + 1e-9


# Nonzero values stay away from the 1e-12 scale at which PauliSum prunes the
# reference's terms; zeros exercise dropped Z, ZZ and CD terms.
_VALUES = st.one_of(st.just(0.0), st.floats(0.05, 2.0), st.floats(-2.0, -0.05))


@st.composite
def spectral_points(draw):
    n = draw(st.integers(1, 7))
    fields = tuple(draw(_VALUES) for _ in range(n))
    couplings = tuple((i, j, draw(_VALUES)) for i in range(n) for j in range(i + 1, n))
    inst = ProblemInstance(n, couplings, fields, seed=0)
    ansatz = draw(st.sampled_from(list(Ansatz)))
    assume(ansatz is not Ansatz.TWO_LOCAL or n >= 2)
    lam = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)))
    lam_dot = draw(st.one_of(st.just(0.0), st.floats(0.05, 3.0)))
    return inst, ansatz, lam, lam_dot


@settings(max_examples=60, deadline=None)
@given(spectral_points())
def test_dense_solves_match_reference(point):
    inst, ansatz, lam, lam_dot = point
    try:
        reference = np.linalg.eigvalsh(to_dense(assemble_hamiltonian(inst, lam, lam_dot, ansatz)))
    except SingularGaugeError:
        assume(False)
    hamiltonian = DrivenHamiltonian(inst, ansatz)
    low = instantaneous_spectrum(hamiltonian, lam, lam_dot)
    assert np.abs(low - reference[:2]).max() <= 1e-10
    full = np.linalg.eigvalsh(hamiltonian.dense(lam, lam_dot))
    assert np.abs(full - reference).max() <= 1e-10
    cd_values = cd_coefficients(inst, ansatz, lam, lam_dot)
    norm = cd_norm(hamiltonian, cd_values)
    assert norm == pytest.approx(cd_dense_norm(inst, ansatz, lam, lam_dot), abs=1e-10)
    # Real exactly when no CD string carries weight.
    driven = cd_values.any()
    assert hamiltonian.dense(lam, lam_dot).dtype == (np.complex128 if driven else np.float64)


def _flip_sector_lows(inst, lam):
    """Two lowest eigenvalues of the bare H(lam) in each global spin-flip sector.

    On a zero-field instance E(b) = E(~b), and in the basis
    (|r> +- |~r>)/sqrt(2) with r < 2**(n-1), X_i for i < n-1 maps r to
    r ^ 2**i while X_{n-1} maps r to +-(r ^ (2**(n-1) - 1)).
    """
    n = inst.n
    half = 1 << (n - 1)
    reps = np.arange(half)
    energies = inst.energies[:half]
    lows = []
    for sign in (1.0, -1.0):
        mat = np.diag(lam * energies)
        for i in range(n - 1):
            mat[reps, reps ^ (1 << i)] -= 1.0 - lam
        mat[reps, reps ^ (half - 1)] -= sign * (1.0 - lam)
        lows.append(np.linalg.eigvalsh(mat)[:2])
    return np.sort(np.concatenate(lows))[:2]


def test_lanczos_sees_both_flip_sectors():
    # A zero-field instance commutes with the global spin flip; a start
    # vector confined to one sector misses the other one's levels.
    n = 12
    rng = np.random.default_rng(918)
    couplings = tuple(
        (i, j, float(rng.standard_normal())) for i in range(n) for j in range(i + 1, n)
    )
    inst = ProblemInstance(n, couplings, (0.0,) * n, seed=0)
    hamiltonian = DrivenHamiltonian(inst, Ansatz.NONE)
    assert n > spectrum_mod._DENSE_LIMIT
    end = instantaneous_spectrum(hamiltonian, 1.0, 0.0)
    assert end == pytest.approx(np.sort(inst.energies)[:2], abs=1e-9)
    mid = instantaneous_spectrum(hamiltonian, 0.5, 0.0)
    assert mid == pytest.approx(_flip_sector_lows(inst, 0.5), abs=1e-9)


def test_lanczos_path_matches_dense(monkeypatch):
    # none runs real symmetric Lanczos, nc1 complex Hermitian.
    inst = generate_instance(5, instance_seed(912, 0))
    hamiltonians = [DrivenHamiltonian(inst, ansatz) for ansatz in (Ansatz.NONE, Ansatz.NC1)]
    dense_values = [instantaneous_spectrum(h, 0.43, 0.8) for h in hamiltonians]
    monkeypatch.setattr(spectrum_mod, "_DENSE_LIMIT", 2)
    for hamiltonian, expected in zip(hamiltonians, dense_values):
        lanczos_values = instantaneous_spectrum(hamiltonian, 0.43, 0.8)
        assert lanczos_values == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("ansatz", list(Ansatz))
def test_spectrum_above_the_dense_limit_matches_dense(ansatz):
    # n = 9 is the smallest size that runs Lanczos; a mid-schedule point
    # (complex rows for the CD drives) and a lam_dot = 0 point (real rows).
    n = 9
    assert n == spectrum_mod._DENSE_LIMIT + 1
    inst = generate_instance(n, instance_seed(919, 0))
    hamiltonian = DrivenHamiltonian(inst, ansatz)
    sched = Schedule(1.0, 20)
    for lam, lam_dot in ((sched.lam(0.5), sched.lam_dot(0.5)), (0.7, 0.0)):
        rows = hamiltonian.operator_rows(hamiltonian.coefficients(lam, lam_dot))
        expected = eigh(
            hamiltonian.operator_dense(lam, rows), eigvals_only=True, subset_by_index=(0, 1)
        )
        low = instantaneous_spectrum(hamiltonian, lam, lam_dot)
        assert np.abs(low - expected).max() <= 1e-11


def test_one_size_rule_for_gaps_and_norms(monkeypatch):
    # Gap and CD norm go dense at the limit and Lanczos one qubit above it.
    built = []
    operator_dense = DrivenHamiltonian.operator_dense

    def spied(self, diagonal, rows):
        built.append(self.n)
        return operator_dense(self, diagonal, rows)

    monkeypatch.setattr(DrivenHamiltonian, "operator_dense", spied)
    limit = spectrum_mod._DENSE_LIMIT
    assert limit == 8
    for n, dense_solves in ((limit, 1), (limit + 1, 0)):
        hamiltonian = DrivenHamiltonian(generate_instance(n, instance_seed(920, n)), Ansatz.NC1)
        for solve in (
            lambda: instantaneous_spectrum(hamiltonian, 0.4, 0.9),
            lambda: cd_norm(hamiltonian, hamiltonian.gauge.sources),
        ):
            built.clear()
            solve()
            assert built == [n] * dense_solves


def test_cd_norm_matches_dense(monkeypatch):
    inst = generate_instance(4, instance_seed(913, 0))
    cases = [
        (
            DrivenHamiltonian(inst, ansatz),
            cd_coefficients(inst, ansatz, 0.6, 0.5),
            cd_dense_norm(inst, ansatz, 0.6, 0.5),
        )
        for ansatz in (Ansatz.NC1, Ansatz.TWO_LOCAL)
    ]
    for hamiltonian, values, expected in cases:
        assert cd_norm(hamiltonian, values) == pytest.approx(expected, abs=1e-10)
    monkeypatch.setattr(spectrum_mod, "_DENSE_LIMIT", 2)
    for hamiltonian, values, expected in cases:
        assert cd_norm(hamiltonian, values) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("n", [9, 10])
def test_cd_norm_lanczos_above_crossover(n):
    # From n = 9 on the norm is a Lanczos solve.
    assert n > spectrum_mod._DENSE_LIMIT
    inst = generate_instance(n, instance_seed(914, n))
    for ansatz in (Ansatz.NC1, Ansatz.TWO_LOCAL):
        hamiltonian = DrivenHamiltonian(inst, ansatz)
        values = cd_coefficients(inst, ansatz, 0.55, 0.9)
        expected = cd_dense_norm(inst, ansatz, 0.55, 0.9)
        assert cd_norm(hamiltonian, values) == pytest.approx(expected, rel=1e-10)


def test_cd_norm_of_zero_coefficients_on_lanczos_path():
    # A two-local solve can return all-zero coefficients; above the dense
    # limit that must read 0, not start Lanczos on the zero operator.
    hamiltonian = DrivenHamiltonian(generate_instance(9, instance_seed(915, 0)), Ansatz.NC1)
    assert cd_norm(hamiltonian, np.zeros(len(hamiltonian.gauge.x_masks))) == 0.0


def test_lanczos_forms_the_rows_once_per_solve(monkeypatch):
    # The rows are formed before the solve; each of its many products only
    # reads them.
    calls = {"rows": 0, "products": 0}
    operator_rows = DrivenHamiltonian.operator_rows
    operator_matvec = DrivenHamiltonian.operator_matvec

    def counted_rows(self, values):
        calls["rows"] += 1
        return operator_rows(self, values)

    def counted_matvec(self, psi, diagonal, rows):
        calls["products"] += 1
        return operator_matvec(self, psi, diagonal, rows)

    monkeypatch.setattr(DrivenHamiltonian, "operator_rows", counted_rows)
    monkeypatch.setattr(DrivenHamiltonian, "operator_matvec", counted_matvec)
    hamiltonian = DrivenHamiltonian(generate_instance(9, instance_seed(916, 0)), Ansatz.NC1)
    assert cd_norm(hamiltonian, hamiltonian.gauge.sources) > 0.0
    assert calls["rows"] == 1
    assert calls["products"] > 10


@pytest.mark.parametrize("n", [4, 9])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_cd_norm_refuses_non_finite_values(n, bad):
    # Checked before any solver sees the matrix, dense (n = 4) or Lanczos
    # (n = 9): LAPACK reached through raw pointers checks for no inf.
    hamiltonian = DrivenHamiltonian(generate_instance(n, instance_seed(932, n)), Ansatz.NC1)
    values = hamiltonian.gauge.sources.copy()
    values[1] = bad
    with pytest.raises(IntegratorError, match="non-finite"):
        cd_norm(hamiltonian, values)


def _numpy_lapack():
    evr = spectrum_mod._lapacke_evr()
    if evr is None:
        pytest.skip("numpy bundles no OpenBLAS with LAPACKE dsyevr/zheevr")
    return evr


@pytest.fixture
def fresh_lapack_binding():
    """Rebinds LAPACK after the test, whatever locator the test left patched."""
    spectrum_mod._lapacke_evr.cache_clear()
    yield
    spectrum_mod._lapacke_evr.cache_clear()


@pytest.mark.parametrize("ansatz", list(Ansatz))
def test_dense_solves_identical_through_numpy_and_scipy(ansatz, monkeypatch, fresh_lapack_binding):
    # numpy's LAPACK, the scipy fallback (locator forced to None) and
    # scipy's eigh(driver="evr") itself agree byte for byte: n = 1-8, real
    # rows (lam_dot = 0) and complex rows, the gap's "SA" k = 2 and the
    # norm's "LA" k = 1.
    _numpy_lapack()
    solves = []
    evr_eigenvalues = spectrum_mod._evr_eigenvalues

    def counted(*args):
        solves.append(args[1].dtype)
        return evr_eigenvalues(*args)

    monkeypatch.setattr(spectrum_mod, "_evr_eigenvalues", counted)
    cases = []
    for n in range(2 if ansatz is Ansatz.TWO_LOCAL else 1, spectrum_mod._DENSE_LIMIT + 1):
        hamiltonian = DrivenHamiltonian(generate_instance(n, instance_seed(933, n)), ansatz)
        for lam, lam_dot in ((0.35, 0.0), (0.35, 1.2), (0.8, 2.1)):
            values = hamiltonian.coefficients(lam, lam_dot)
            for k, which in ((2, "SA"), (1, "LA")):
                cases.append((hamiltonian, lam, values, k, which))
    numpy_path = [spectrum_mod._eigenvalues(*case).tobytes() for case in cases]
    assert len(solves) == len(cases)
    dtypes = {np.dtype(np.float64)} if ansatz is Ansatz.NONE else {np.dtype(np.complex128)}
    assert set(solves) == dtypes | {np.dtype(np.float64)}

    monkeypatch.setattr(spectrum_mod, "_numpy_openblas", lambda: None)
    spectrum_mod._lapacke_evr.cache_clear()
    solves.clear()
    fallback = [spectrum_mod._eigenvalues(*case).tobytes() for case in cases]
    assert solves == []
    assert fallback == numpy_path
    for (hamiltonian, lam, values, k, which), got in zip(cases, numpy_path):
        dim = 1 << hamiltonian.n
        subset = (0, k - 1) if which == "SA" else (dim - k, dim - 1)
        matrix = hamiltonian.operator_dense(lam, hamiltonian.operator_rows(values))
        expected = eigh(matrix, eigvals_only=True, subset_by_index=subset, driver="evr")
        assert expected.tobytes() == got


def test_numpy_lapack_checks_its_matrix_before_the_call():
    evr = _numpy_lapack()
    good = np.diag([3.0, 1.0, 2.0])
    assert spectrum_mod._evr_eigenvalues(evr, good.copy(), (0, 1)).tolist() == [1.0, 2.0]
    read_only = good.copy()
    read_only.flags.writeable = False
    for matrix in (
        good.astype(np.float32),
        np.zeros((4, 4))[:, ::2][:2],  # square but not contiguous
        np.zeros((2, 3)),
        read_only,
    ):
        with pytest.raises(ParameterError):
            spectrum_mod._evr_eigenvalues(evr, matrix, (0, 0))
    # LAPACK refuses an index range past the matrix with a nonzero info.
    with pytest.raises(IntegratorError, match="info=-11"):
        spectrum_mod._evr_eigenvalues(evr, good.copy(), (2, 3))


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
        ansatz: gap_curve(inst, sched, ansatz, samples=21)
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
    curve = gap_curve(inst, sched, Ansatz.NONE, samples=21)
    assert curve.delta_min <= min(curve.gaps)


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
        none = min(gap_curve(inst, sched, Ansatz.NONE, samples=51).gaps)
        driven = min(gap_curve(inst, sched, Ansatz.NC1, samples=51).gaps)
        increased += driven > none
    assert increased / total > 0.5
