"""Instantaneous spectra of the driven Hamiltonian and minimum-gap curves.

Every solve reads ``DrivenHamiltonian.operator_rows``, H = diag(lam E) +
sum_x diag(d_x) X^x, formed once per solve, in the rows' own dtype: real
symmetric wherever the CD coefficients vanish (always for ``none``, and at
lam_dot = 0 for every drive), complex Hermitian elsewhere.  A row or a
diagonal entry that is not finite raises ``IntegratorError`` before any
solver sees it.  Up to ``_DENSE_LIMIT`` qubits LAPACK's MRRR solver
(``?syevr``/``?heevr``) returns only the wanted eigenvalues of the dense
matrix.  It runs from the OpenBLAS that numpy bundles, reached through
``ctypes``, on the C-ordered matrix read as column-major with ``uplo='L'``:
no copy is made.  The matrix is exactly Hermitian, so LAPACK reads H^T =
conj(H), whose arithmetic mirrors H's exactly: the eigenvalues are those of
scipy's ``eigh(..., driver="evr")`` bit for bit.  Where numpy bundles no
OpenBLAS, or it lacks those routines, the dense solve is that ``eigh``.
Above the limit ARPACK's Lanczos runs on the matvec.  scipy is imported by
the solver that needs it, so importing the package, running only
evolutions, or solving gaps and CD norms up to the limit on numpy's
OpenBLAS never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .errors import IntegratorError, ParameterError
from .gauge import Ansatz
from .problem import ProblemInstance
from .schedule import Schedule
from .simulator import DrivenHamiltonian

# Not called here; benchmarks/spans.py patches these names on this module.
from .gauge import assemble_hamiltonian  # noqa: F401
from .pauli import to_dense  # noqa: F401

#: Up to this qubit count every solve is dense, above it Lanczos.  One BLAS
#: thread, ms per gap solve over the four drives, dense against Lanczos:
#: 2.7-9.8 against 7.9-29.9 at n = 8, 15.9-67.4 against 10.0-27.2 at n = 9,
#: 106-423 against 12-88 at n = 10.  CD norms cross there too, bar nc1 at 8.
_DENSE_LIMIT = 8

#: Default number of uniform time samples for gap curves.
GAP_SAMPLES = 201


@dataclass(frozen=True)
class GapCurve:
    """Gap samples along the schedule plus the refined minimum."""

    times: tuple[float, ...]
    lams: tuple[float, ...]
    gaps: tuple[float, ...]
    delta_min: float
    argmin_time: float


def instantaneous_spectrum(
    hamiltonian: DrivenHamiltonian, lam: float, lam_dot: float
) -> np.ndarray:
    """The two lowest eigenvalues of the compiled driven Hamiltonian, ascending.

    A coefficient or classical energy that overflowed to inf or NaN raises
    ``IntegratorError`` (see ``_eigenvalues``).
    """
    return _eigenvalues(hamiltonian, lam, hamiltonian.coefficients(lam, lam_dot), 2, "SA")


def cd_norm(hamiltonian: DrivenHamiltonian, cd_values: np.ndarray) -> float:
    """Spectral norm of sum_j cd_values[j] P_j over the drive's CD strings.

    Every CD string has an odd Y count, so the sum is iK with K real and
    antisymmetric: its spectrum is symmetric about 0, so the top is the norm.
    A non-finite value or energy raises ``IntegratorError`` (see ``_eigenvalues``).
    """
    if not np.any(cd_values):
        return 0.0  # Lanczos cannot start on the zero operator.
    values = np.concatenate([np.zeros(hamiltonian.n), cd_values])
    return float(_eigenvalues(hamiltonian, 0.0, values, 1, "LA")[0])


def _eigenvalues(
    hamiltonian: DrivenHamiltonian, diagonal: float, values: np.ndarray, k: int, which: str
) -> np.ndarray:
    """The k lowest ("SA") or highest ("LA") eigenvalues of H, ascending.

    H = diagonal E + sum_k values[k] P_k over the Hamiltonian's off-diagonal
    strings.  An operator row or diagonal entry that is not finite raises
    ``IntegratorError``: no solver takes such a matrix.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # refused below, not warned of
        rows = hamiltonian.operator_rows(values)
        finite = np.isfinite(rows).all() and np.isfinite(diagonal * hamiltonian.energies).all()
    if not finite:
        raise IntegratorError(
            f"non-finite coefficient or energy in the n={hamiltonian.n} operator"
            f" with diagonal {diagonal} E"
        )
    dim = 1 << hamiltonian.n
    if hamiltonian.n <= _DENSE_LIMIT:
        matrix = hamiltonian.operator_dense(diagonal, rows)
        subset = (0, k - 1) if which == "SA" else (dim - k, dim - 1)
        evr = _lapacke_evr()
        if evr is None:
            from scipy.linalg import eigh

            return eigh(matrix, eigvals_only=True, subset_by_index=subset, driver="evr")
        return _evr_eigenvalues(evr, matrix, subset)
    from scipy.sparse.linalg import LinearOperator, eigsh

    def matvec(v: np.ndarray) -> np.ndarray:
        psi = np.asarray(v, dtype=rows.dtype).reshape(-1)
        return hamiltonian.operator_matvec(psi, diagonal, rows)

    linop = LinearOperator((dim, dim), matvec=matvec, dtype=rows.dtype)
    # A fixed-seed start keeps the iteration, and hence emitted files,
    # bit-reproducible across runs.  It must be random: on a zero-field
    # instance H commutes with the global spin flip, and a symmetric start
    # such as the uniform vector never sees the odd sector.
    v0 = np.random.default_rng(0).standard_normal(dim)
    return np.sort(eigsh(linop, k=k, which=which, v0=v0, return_eigenvectors=False))


@cache
def _numpy_openblas():
    """The OpenBLAS numpy bundles, as a ``ctypes.CDLL``; None where it bundles none.

    numpy loaded the library on import, so opening it again loads nothing.
    Its symbols carry the ``scipy_`` prefix and, for 64-bit integers, the
    ``64_`` suffix.
    """
    import ctypes

    for path in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"):
        return ctypes.CDLL(str(path))
    return None


@cache
def _lapacke_evr():
    """LAPACKE ``dsyevr`` and ``zheevr`` of ``_numpy_openblas`` by matrix dtype, or None.

    None where numpy bundles no OpenBLAS or it lacks either routine.
    Both take (layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol,
    m, w, z, ldz, isuppz) with 64-bit integers and return ``info``.
    """
    import ctypes

    lib = _numpy_openblas()
    names = {np.dtype(np.float64): "dsyevr", np.dtype(np.complex128): "zheevr"}
    try:
        routines = {dtype: getattr(lib, f"scipy_LAPACKE_{name}64_") for dtype, name in names.items()}
    except AttributeError:  # no library (None has no such attribute), or no such symbol
        return None
    i64, double, pointer = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    for routine in routines.values():
        routine.argtypes = (
            [ctypes.c_int] + [ctypes.c_char] * 3 + [i64, pointer, i64]
            + [double, double, i64, i64, double]
            + [ctypes.POINTER(i64), pointer, pointer, i64, pointer]
        )
        routine.restype = i64
    return routines


#: LAPACKE's ``LAPACK_COL_MAJOR`` matrix layout.
_COL_MAJOR = 102


def _evr_eigenvalues(evr: dict, matrix: np.ndarray, subset: tuple[int, int]) -> np.ndarray:
    """Eigenvalues subset[0]..subset[1] of a Hermitian matrix, ascending, by LAPACK's evr.

    ``matrix`` must be a writeable, C-contiguous square float64 or
    complex128 array, and holds garbage afterwards: LAPACK reduces it in
    place.  Read as column-major with ``uplo='L'`` it is H^T = conj(H), the
    exact mirror of what scipy passes (H, copied to Fortran order).
    """
    import ctypes

    dim = len(matrix)
    routine = evr.get(matrix.dtype)
    flags = matrix.flags
    if routine is None or matrix.shape != (dim, dim) or not (flags.c_contiguous and flags.writeable):
        raise ParameterError(
            f"evr needs a writeable C-contiguous square float64 or complex128 matrix,"
            f" got {matrix.dtype} {matrix.shape}"
        )
    values = np.empty(dim)
    unused_z = np.empty(1, dtype=matrix.dtype)  # jobz='N' reads no eigenvectors
    unused_support = np.empty(2 * dim, dtype=np.int64)
    found = ctypes.c_int64()
    # jobz='N', range='I' with 1-based bounds (vl and vu unread), uplo='L' and
    # abstol 0, as scipy passes them.
    info = routine(
        _COL_MAJOR, b"N", b"I", b"L", dim, matrix.ctypes.data, dim, 0.0, 0.0,
        subset[0] + 1, subset[1] + 1, 0.0, ctypes.byref(found), values.ctypes.data,
        unused_z.ctypes.data, 1, unused_support.ctypes.data,
    )
    wanted = subset[1] - subset[0] + 1
    if info != 0 or found.value != wanted:
        raise IntegratorError(
            f"LAPACK evr at dim={dim} returned info={info} with {found.value} of {wanted} eigenvalues"
        )
    return values[:wanted]


def gap_curve(
    inst: ProblemInstance,
    sched: Schedule,
    ansatz: Ansatz,
    samples: int = GAP_SAMPLES,
) -> GapCurve:
    """|E1 - E0| on a uniform time grid including both endpoints.

    The reported minimum is refined by a golden-section search within one
    grid step of the grid argmin, so ``delta_min`` is at most the smallest
    stored gap; the stored curve keeps exactly ``samples`` uniform points.
    Every solve forms the drive's operator rows, so rows above
    ``MEMORY_BUDGET`` are refused before the energies are formed.
    """
    if samples < 2:
        raise ParameterError(f"need at least 2 samples, got {samples}")
    hamiltonian = DrivenHamiltonian(inst, ansatz)
    hamiltonian.check_rows_budget()

    def gap_at(t: float) -> float:
        low = instantaneous_spectrum(hamiltonian, sched.lam(t), sched.lam_dot(t))
        return float(low[1] - low[0])

    times = np.linspace(0.0, sched.total_time, samples)
    gaps = np.array([gap_at(t) for t in times])
    grid_arg = int(np.argmin(gaps))
    delta_min = float(gaps[grid_arg])
    argmin_time = float(times[grid_arg])
    lo = float(times[max(grid_arg - 1, 0)])
    hi = float(times[min(grid_arg + 1, samples - 1)])
    t_star, g_star = _golden_section(gap_at, lo, hi, tol=sched.total_time * 1e-6)
    if g_star < delta_min:
        delta_min, argmin_time = g_star, t_star

    return GapCurve(
        times=tuple(float(t) for t in times),
        lams=tuple(sched.lam(float(t)) for t in times),
        gaps=tuple(float(g) for g in gaps),
        delta_min=delta_min,
        argmin_time=argmin_time,
    )


def _golden_section(fn, lo: float, hi: float, tol: float, max_iter: int = 80):
    """Minimize a unimodal-ish scalar function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    best_t, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
        if fc < best_f:
            best_t, best_f = c, fc
        if fd < best_f:
            best_t, best_f = d, fd
    return best_t, best_f
