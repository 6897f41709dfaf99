"""Instantaneous spectra of the driven Hamiltonian and minimum-gap curves.

Every solve reads ``DrivenHamiltonian.operator_rows``, H = diag(lam E) +
sum_x diag(d_x) X^x, formed once per solve, in the rows' own dtype: real
symmetric wherever the CD coefficients vanish (always for ``none``, and at
lam_dot = 0 for every drive), complex Hermitian elsewhere.  Up to
``_DENSE_LIMIT`` qubits LAPACK's MRRR solver (``evr``) returns only the wanted
eigenvalues of the dense matrix; above it ARPACK's Lanczos runs on the matvec.
scipy is imported by the solver, so importing the package, or running only
evolutions, never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    ``IntegratorError``: no solver takes such a matrix.
    """
    values = hamiltonian.coefficients(lam, lam_dot)
    if not (np.isfinite(values).all() and np.isfinite(hamiltonian.energies).all()):
        raise IntegratorError(f"non-finite coefficient or energy at lam={lam}, lam_dot={lam_dot}")
    return _eigenvalues(hamiltonian, lam, hamiltonian.operator_rows(values), 2, "SA")


def cd_norm(hamiltonian: DrivenHamiltonian, cd_values: np.ndarray) -> float:
    """Spectral norm of sum_j cd_values[j] P_j over the drive's CD strings.

    Every CD string has an odd Y count, so the sum is iK with K real and
    antisymmetric: its spectrum is symmetric about 0, so the top is the norm.
    """
    if not np.any(cd_values):
        return 0.0  # Lanczos cannot start on the zero operator.
    rows = hamiltonian.operator_rows(np.concatenate([np.zeros(hamiltonian.n), cd_values]))
    return float(_eigenvalues(hamiltonian, 0.0, rows, 1, "LA")[0])


def _eigenvalues(
    hamiltonian: DrivenHamiltonian, diagonal: float, rows: np.ndarray, k: int, which: str
) -> np.ndarray:
    """The k lowest ("SA") or highest ("LA") eigenvalues of diagonal E + rows, ascending."""
    dim = 1 << hamiltonian.n
    if hamiltonian.n <= _DENSE_LIMIT:
        from scipy.linalg import eigh

        matrix = hamiltonian.operator_dense(diagonal, rows)
        subset = (0, k - 1) if which == "SA" else (dim - k, dim - 1)
        return eigh(matrix, eigvals_only=True, subset_by_index=subset, driver="evr")
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
