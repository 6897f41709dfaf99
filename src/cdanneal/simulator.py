"""Dense state-vector engine for digitized driven evolutions.

The Trotter engine, the ODE reference and the spectra all read the driven
Hamiltonian from one ``DrivenHamiltonian`` compiled per (instance, drive).
Its diagonal problem part is the classical energy vector E, so a Trotter
step applies all Z and ZZ terms as the single phase exp(-i dt lam E).  The
mixer and CD terms are off-diagonal Pauli strings applied exactly: every
string P is an involution, so exp(-i theta P) = cos(theta) I - i sin(theta) P,
and -i P acting on a state is an index XOR permutation, a +-1 sign pattern
and a constant phase in {+-1, +-i}.  A permutation depends only on the
string's X mask and a sign pattern only on its Z mask, so the compiled
table holds one row per distinct mask, shared by the strings.  Each
rotation gathers the permuted state, multiplies it by the sign row, and
updates the state in place with BLAS ``zdscal`` (cos theta) and ``zaxpy``
(sin theta times the phase).  No gate decomposition happens here;
circuit-level costs are tracked symbolically, one exponential per Pauli
term, in the evolution report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg.blas import zaxpy, zdscal

from .errors import (
    DimensionMismatchError,
    IntegratorError,
    ParameterError,
    ResourceCapError,
    SingularGaugeError,
)
from .gauge import Ansatz, CompiledGauge, cd_coefficients
from .pauli import DENSE_CAP, PauliString, string_amplitudes
from .problem import STATEVECTOR_CAP, GroundTruth, ProblemInstance, classical_energies
from .schedule import Schedule

# Not called here; benchmarks/spans.py patches this name on this module.
from .gauge import cd_terms  # noqa: F401


@dataclass
class StateVector:
    """2**n complex amplitudes; owned by a single evolution at a time."""

    n: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class EvolutionReport:
    """Final state plus unitarity and cost bookkeeping for one evolution."""

    final_state: StateVector
    step_norms: tuple[float, ...]
    operator_applications: int
    single_per_step: int
    entangling_per_step: int
    entangling_total: int
    wall_seconds: float


def plus_state(n: int) -> StateVector:
    """Uniform superposition with real amplitudes 2**(-n/2)."""
    if n < 1:
        raise ParameterError(f"qubit count must be >= 1, got {n}")
    if n > STATEVECTOR_CAP:
        raise ResourceCapError(f"state vector for n={n} exceeds cap {STATEVECTOR_CAP}")
    return StateVector(n, np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128))


def apply_pauli_exponential(
    state: StateVector, string: PauliString, theta: float
) -> StateVector:
    """Apply exp(-i theta P) to the state in place and return it.

    Works on any string, diagonal or not, one string at a time; it is the
    reference that ``DrivenHamiltonian`` is tested against.
    """
    if string.n != state.n:
        raise DimensionMismatchError(
            f"string acts on {string.n} qubits, state has {state.n}"
        )
    perm, amps = string_amplitudes(string)
    psi = state.amplitudes
    # P|b> = amps[b] |b ^ x_mask>, so P psi is (amps * psi) permuted by perm.
    psi[:] = np.cos(theta) * psi - 1j * np.sin(theta) * (amps * psi)[perm]
    return state


#: Bytes a ``DrivenHamiltonian`` may claim: its string table, the energy
#: vector and the state vectors a step or matvec works on.  Above it,
#: construction raises ``ResourceCapError`` before allocating any of them.
MEMORY_BUDGET = 1 << 30

# (-i)**k for k mod 4.
_MINUS_I_POWERS = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)


class DrivenHamiltonian:
    """H(lam, lam_dot) = (1-lam) H_x + lam H_p + lam_dot A_CD(lam), compiled once.

    Built once per (instance, drive).  It holds the classical energy vector
    E, which is the diagonal problem part H_p, the drive's ``CompiledGauge``,
    and the off-diagonal strings: the n mixer X strings by site, then the CD
    strings in ``cd_terms`` order.  String k with masks (x, z) and y_count y
    acts as (-i P_k psi)[b] = (-i)**(y+1) * s_z[b] * psi[b ^ x], where
    s_z[b] = (-1)**popcount(z & b).  So the table holds one XOR permutation
    row per distinct X mask (``perms``) and one +-1 sign row per distinct
    nonzero Z mask (``signs``), and ``rows`` gives each string its
    (permutation, sign row or None, phase).  Every factor is exact.  The
    rotation exp(-i theta P_k) = cos(theta) I + sin(theta) (-i P_k) is one
    gather, at most one sign multiply and two in-place BLAS updates of psi,
    the phase riding in the ``zaxpy`` scalar.  ``step``, ``matvec`` and
    ``dense`` all read this one table.
    """

    def __init__(self, inst: ProblemInstance, ansatz: Ansatz):
        n = inst.n
        self.ansatz = ansatz
        self.n = n
        self.gauge = CompiledGauge(inst, ansatz)
        self.cd_strings = self.gauge.terms
        strings = [PauliString.single(n, i, "X") for i in range(n)] + self.cd_strings
        x_masks = list(dict.fromkeys(s.x_mask for s in strings))
        z_masks = list(dict.fromkeys(s.z_mask for s in strings if s.z_mask))
        dim = 1 << n
        # 8-byte rows: perms, signs, the energies and, while the table is
        # built, one sign row per site; 16-byte vectors: psi, the gathered
        # copy and the phase exp(-i dt lam E) of a step.
        needed = dim * (8 * (len(x_masks) + len(z_masks) + 1 + n) + 3 * 16)
        if needed > MEMORY_BUDGET:
            raise ResourceCapError(
                f"{ansatz.value} drive at n={n} needs {needed / 2**20:.0f} MiB, "
                f"above the budget of {MEMORY_BUDGET / 2**20:.0f} MiB"
            )
        self.energies = classical_energies(inst)
        index = np.arange(dim)
        self.perms = index ^ np.array(x_masks, dtype=np.intp)[:, None]
        self.signs = np.empty((len(z_masks), dim))
        site_signs: dict[int, np.ndarray] = {}
        for row, z in zip(self.signs, z_masks):
            row.fill(1.0)
            for site in (i for i in range(n) if z >> i & 1):
                if site not in site_signs:
                    site_signs[site] = 1.0 - 2.0 * ((index >> site) & 1)
                row *= site_signs[site]
        x_row = {x: k for k, x in enumerate(x_masks)}
        z_row = {z: k for k, z in enumerate(z_masks)}
        self.rows = [
            (
                self.perms[x_row[s.x_mask]],
                self.signs[z_row[s.z_mask]] if s.z_mask else None,
                _MINUS_I_POWERS[(s.y_count + 1) % 4],
            )
            for s in strings
        ]
        # i**y_count is real for an even Y count: the mixer strings are real,
        # every CD string (exactly one Y) is purely imaginary.
        self.real_strings = np.array([s.y_count % 2 == 0 for s in strings])
        cd_single = sum(1 for s in self.cd_strings if s.weight == 1)
        self.single_count = n + sum(1 for h in inst.fields if h != 0.0) + cd_single
        self.entangling_count = (
            sum(1 for _, _, value in inst.couplings if value != 0.0)
            + len(self.cd_strings)
            - cd_single
        )

    def coefficients(self, lam: float, lam_dot: float) -> np.ndarray:
        """Off-diagonal coefficients: -(1-lam) per X string, then the CD values."""
        values = np.empty(len(self.rows))
        values[: self.n] = -(1.0 - lam)
        if self.cd_strings:
            values[self.n :] = cd_coefficients(self.gauge, self.ansatz, lam, lam_dot)
        return values

    def step(self, psi: np.ndarray, dt: float, lam: float, lam_dot: float) -> None:
        """In place: one first-order Trotter step with coefficients at (lam, lam_dot).

        Canonical order: X by site, every nonzero Z and ZZ term, then CD.
        The Z and ZZ terms commute and are adjacent, so their product is
        exactly the single phase exp(-i dt lam E).  ``psi`` must be a
        contiguous complex128 vector: the BLAS updates write into it.
        """
        dim = 1 << self.n
        if psi.dtype != np.complex128 or psi.shape != (dim,) or not psi.flags.c_contiguous:
            raise ParameterError(f"step needs a contiguous complex128 vector of length {dim}")
        thetas = dt * self.coefficients(lam, lam_dot)
        cosines, sines = np.cos(thetas).tolist(), np.sin(thetas).tolist()
        for k, (perm, sign, phase) in enumerate(self.rows):
            rotated = psi[perm]
            if sign is not None:
                rotated *= sign
            zdscal(cosines[k], psi, overwrite_x=1)
            zaxpy(rotated, psi, a=sines[k] * phase)
            if k == self.n - 1:
                psi *= np.exp(-1j * dt * lam * self.energies)

    def matvec(self, psi: np.ndarray, lam: float, lam_dot: float) -> np.ndarray:
        """H(lam, lam_dot) @ psi for a complex amplitude array."""
        return self.operator_matvec(psi, lam, self.coefficients(lam, lam_dot))

    def operator_matvec(self, psi: np.ndarray, diagonal: float, values: np.ndarray) -> np.ndarray:
        """(diagonal E + sum_k values[k] P_k) @ psi, ``values`` aligned with ``rows``."""
        out = diagonal * self.energies * psi
        for (perm, sign, phase), value in zip(self.rows, values.tolist()):
            if value != 0.0:
                # P_k psi = i (-i P_k psi).
                rotated = psi[perm]
                if sign is not None:
                    rotated *= sign
                out = zaxpy(rotated, out, a=1j * value * phase)
        return out

    def dense(self, lam: float, lam_dot: float) -> np.ndarray:
        """Dense 2**n x 2**n matrix of H(lam, lam_dot); guarded by ``DENSE_CAP``.

        The matrix is float64 when every nonzero coefficient sits on a real
        string: always for ``none``, and for any drive whose CD coefficients
        vanish, as at lam_dot = 0.  Otherwise it is complex128.
        """
        return self.operator_dense(lam, self.coefficients(lam, lam_dot))

    def operator_dense(self, diagonal: float, values: np.ndarray) -> np.ndarray:
        """Dense matrix of diagonal E + sum_k values[k] P_k; see ``dense``."""
        if self.n > DENSE_CAP:
            raise ResourceCapError(f"dense matrix for n={self.n} exceeds cap {DENSE_CAP}")
        dim = 1 << self.n
        rows = np.arange(dim)
        # Row b of P_k = i (-i P_k) has its single nonzero entry,
        # i phase_k s_z[b], at column perm[b]; on a real string it is real.
        real = not values[~self.real_strings].any()
        mat = np.zeros((dim, dim)) if real else np.zeros((dim, dim), dtype=np.complex128)
        mat[rows, rows] = diagonal * self.energies
        for (perm, sign, phase), value in zip(self.rows, values.tolist()):
            if value != 0.0:
                entry = (1j * phase).real * value if real else 1j * phase * value
                mat[rows, perm] += entry if sign is None else entry * sign
        return mat


def trotter_evolve(inst: ProblemInstance, sched: Schedule, ansatz: Ansatz) -> EvolutionReport:
    """First-order digitized evolution from the uniform superposition.

    Each grid step k applies exp(-i dt c_j(t_k) P_j) for every term P_j of
    the driven Hamiltonian, coefficients evaluated at the step's grid point,
    in the fixed canonical term order (see ``DrivenHamiltonian.step``).  A
    gauge singularity at any grid point aborts with the offending step index
    attached, and so does a step that leaves a non-finite norm.
    """
    state = plus_state(inst.n)
    hamiltonian = DrivenHamiltonian(inst, ansatz)
    psi = state.amplitudes
    dt = sched.dt
    norms: list[float] = []
    started = time.perf_counter()
    for step, point in enumerate(sched.grid(), 1):
        try:
            hamiltonian.step(psi, dt, point.lam, point.lam_dot)
        except SingularGaugeError as exc:
            raise SingularGaugeError(
                f"{exc} (aborted at grid step {step}/{sched.steps})",
                site=exc.site,
                lam=exc.lam,
                value=exc.value,
                step=step,
            ) from exc
        norms.append(float(np.linalg.norm(psi)))
        if not math.isfinite(norms[-1]):
            raise IntegratorError(f"state norm {norms[-1]} after grid step {step}/{sched.steps}")
    wall = time.perf_counter() - started
    steps = sched.steps
    single, entangling = hamiltonian.single_count, hamiltonian.entangling_count
    return EvolutionReport(
        final_state=state,
        step_norms=tuple(norms),
        operator_applications=(single + entangling) * steps,
        single_per_step=single,
        entangling_per_step=entangling,
        entangling_total=entangling * steps,
        wall_seconds=wall,
    )


def ode_reference(
    inst: ProblemInstance,
    sched: Schedule,
    ansatz: Ansatz,
    tolerance: float = 1e-10,
) -> StateVector:
    """Adaptive high-order integration of the exact time-dependent flow.

    Independent of the product formula: the Schroedinger equation with the
    continuously evaluated Hamiltonian is integrated without renormalization,
    so norm drift doubles as an accuracy diagnostic.  Intended for small n.
    """
    initial = plus_state(inst.n).amplitudes
    hamiltonian = DrivenHamiltonian(inst, ansatz)

    def rhs(t: float, psi: np.ndarray) -> np.ndarray:
        return -1j * hamiltonian.matvec(psi, sched.lam(t), sched.lam_dot(t))

    solution = solve_ivp(
        rhs,
        (0.0, sched.total_time),
        initial,
        method="DOP853",
        rtol=tolerance,
        atol=tolerance,
    )
    if not solution.success:
        raise IntegratorError(f"reference integration failed: {solution.message}")
    return StateVector(inst.n, solution.y[:, -1].astype(np.complex128))


def success_probability(state: StateVector, truth: GroundTruth) -> float:
    """Total probability on the (possibly degenerate) ground manifold."""
    dim = 1 << state.n
    total = 0.0
    for index in truth.states:
        if not 0 <= index < dim:
            raise DimensionMismatchError(
                f"ground state index {index} out of range for n={state.n}"
            )
        total += float(abs(state.amplitudes[index]) ** 2)
    return total


def sample_shots(state: StateVector, shots: int, seed: int) -> dict[int, int]:
    """Multinomial measurement emulation; deterministic given the seed."""
    if shots < 1:
        raise ParameterError(f"shot count must be >= 1, got {shots}")
    probabilities = np.abs(state.amplitudes) ** 2
    probabilities = probabilities / probabilities.sum()
    counts = np.random.default_rng(seed).multinomial(shots, probabilities)
    return {int(i): int(c) for i, c in enumerate(counts) if c}
