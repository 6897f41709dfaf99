"""Dense state-vector engine for digitized driven evolutions.

The Trotter engine, the ODE reference and the spectra all read the driven
Hamiltonian from one ``DrivenHamiltonian`` compiled per (instance, drive).
Its diagonal problem part is the classical energy vector E, so a Trotter
step applies all Z and ZZ terms as the single phase exp(-i dt lam E).  The
mixer and CD terms are off-diagonal Pauli strings applied exactly: every
string P is an involution, so exp(-i theta P) = cos(theta) I - i sin(theta) P,
and the action of P on a state factors into an index XOR permutation plus a
sign pattern.  No gate decomposition happens here; circuit-level costs are
tracked symbolically, one exponential per Pauli term, in the evolution
report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

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

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amplitudes.copy())


@dataclass
class EvolutionReport:
    """Final state plus unitarity and cost bookkeeping for one evolution."""

    final_state: StateVector
    step_norms: tuple[float, ...]
    operator_applications: int
    single_per_step: int
    entangling_per_step: int
    single_total: int
    entangling_total: int
    wall_seconds: float


def plus_state(n: int, cap: int = STATEVECTOR_CAP) -> StateVector:
    """Uniform superposition with real amplitudes 2**(-n/2)."""
    if n < 1:
        raise ParameterError(f"qubit count must be >= 1, got {n}")
    if n > cap:
        raise ResourceCapError(f"state vector for n={n} exceeds cap {cap}")
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


class DrivenHamiltonian:
    """H(lam, lam_dot) = (1-lam) H_x + lam H_p + lam_dot A_CD(lam), compiled once.

    Built once per (instance, drive).  It holds the classical energy vector
    E, which is the diagonal problem part H_p, the drive's ``CompiledGauge``,
    and the off-diagonal strings: the n mixer X strings by site, then the CD
    strings in ``cd_terms`` order.
    Off-diagonal string k acts as (P_k psi)[b] = gathered[k, b] * psi[perms[k, b]].
    """

    def __init__(self, inst: ProblemInstance, ansatz: Ansatz):
        n = inst.n
        self.ansatz = ansatz
        self.n = n
        self.energies = classical_energies(inst)
        self.gauge = CompiledGauge(inst, ansatz)
        self.cd_strings = self.gauge.terms
        strings = [PauliString.single(n, i, "X") for i in range(n)] + self.cd_strings
        self.perms = np.empty((len(strings), 1 << n), dtype=np.intp)
        self.gathered = np.empty((len(strings), 1 << n), dtype=np.complex128)
        for k, string in enumerate(strings):
            perm, amps = string_amplitudes(string)
            self.perms[k] = perm
            # amps indexed at b ^ x equals amps at b times (-1)**y_count.
            self.gathered[k] = amps * (-1.0) ** string.y_count
        cd_single = sum(1 for s in self.cd_strings if s.weight == 1)
        self.single_count = n + sum(1 for h in inst.fields if h != 0.0) + cd_single
        self.entangling_count = (
            sum(1 for _, _, value in inst.couplings if value != 0.0)
            + len(self.cd_strings)
            - cd_single
        )

    def coefficients(self, lam: float, lam_dot: float) -> np.ndarray:
        """Off-diagonal coefficients: -(1-lam) per X string, then the CD values."""
        values = np.empty(len(self.perms))
        values[: self.n] = -(1.0 - lam)
        if self.cd_strings:
            values[self.n :] = cd_coefficients(self.gauge, self.ansatz, lam, lam_dot)
        return values

    def step(self, psi: np.ndarray, dt: float, lam: float, lam_dot: float) -> None:
        """In place: one first-order Trotter step with coefficients at (lam, lam_dot).

        Canonical order: X by site, every nonzero Z and ZZ term, then CD.
        The Z and ZZ terms commute and are adjacent, so their product is
        exactly the single phase exp(-i dt lam E).
        """
        thetas = dt * self.coefficients(lam, lam_dot)
        for k in range(self.n):
            self._rotate(psi, k, thetas[k])
        psi *= np.exp(-1j * dt * lam * self.energies)
        for k in range(self.n, len(thetas)):
            self._rotate(psi, k, thetas[k])

    def _rotate(self, psi: np.ndarray, k: int, theta: float) -> None:
        psi[:] = np.cos(theta) * psi - 1j * np.sin(theta) * (
            self.gathered[k] * psi[self.perms[k]]
        )

    def matvec(self, psi: np.ndarray, lam: float, lam_dot: float) -> np.ndarray:
        """H(lam, lam_dot) @ psi for a complex amplitude array."""
        out = lam * self.energies * psi
        for k, value in enumerate(self.coefficients(lam, lam_dot)):
            if value != 0.0:
                out += value * (self.gathered[k] * psi[self.perms[k]])
        return out

    def dense(self, lam: float, lam_dot: float) -> np.ndarray:
        """Dense 2**n x 2**n matrix of H(lam, lam_dot); guarded by ``DENSE_CAP``."""
        if self.n > DENSE_CAP:
            raise ResourceCapError(f"dense matrix for n={self.n} exceeds cap {DENSE_CAP}")
        dim = 1 << self.n
        rows = np.arange(dim)
        mat = np.zeros((dim, dim), dtype=np.complex128)
        mat[rows, rows] = lam * self.energies
        for k, value in enumerate(self.coefficients(lam, lam_dot)):
            # Row b of P_k has its single nonzero entry at column perms[k, b].
            mat[rows, self.perms[k]] += value * self.gathered[k]
        return mat


def trotter_evolve(
    inst: ProblemInstance,
    sched: Schedule,
    ansatz: Ansatz,
    *,
    cap: int = STATEVECTOR_CAP,
) -> EvolutionReport:
    """First-order digitized evolution from the uniform superposition.

    Each grid step k applies exp(-i dt c_j(t_k) P_j) for every term P_j of
    the driven Hamiltonian, coefficients evaluated at the step's grid point,
    in the fixed canonical term order (see ``DrivenHamiltonian.step``).  A
    gauge singularity at any grid point aborts with the offending step index
    attached.
    """
    if inst.n > cap:
        raise ResourceCapError(f"state vector for n={inst.n} exceeds cap {cap}")
    hamiltonian = DrivenHamiltonian(inst, ansatz)
    state = plus_state(inst.n, cap=cap)
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
    wall = time.perf_counter() - started
    steps = sched.steps
    single, entangling = hamiltonian.single_count, hamiltonian.entangling_count
    return EvolutionReport(
        final_state=state,
        step_norms=tuple(norms),
        operator_applications=(single + entangling) * steps,
        single_per_step=single,
        entangling_per_step=entangling,
        single_total=single * steps,
        entangling_total=entangling * steps,
        wall_seconds=wall,
    )


def ode_reference(
    inst: ProblemInstance,
    sched: Schedule,
    ansatz: Ansatz,
    tolerance: float = 1e-10,
    *,
    cap: int = STATEVECTOR_CAP,
) -> StateVector:
    """Adaptive high-order integration of the exact time-dependent flow.

    Independent of the product formula: the Schroedinger equation with the
    continuously evaluated Hamiltonian is integrated without renormalization,
    so norm drift doubles as an accuracy diagnostic.  Intended for small n.
    """
    if inst.n > cap:
        raise ResourceCapError(f"state vector for n={inst.n} exceeds cap {cap}")
    hamiltonian = DrivenHamiltonian(inst, ansatz)

    def rhs(t: float, psi: np.ndarray) -> np.ndarray:
        return -1j * hamiltonian.matvec(psi, sched.lam(t), sched.lam_dot(t))

    solution = solve_ivp(
        rhs,
        (0.0, sched.total_time),
        plus_state(inst.n, cap=cap).amplitudes,
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
