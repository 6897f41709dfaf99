"""Dense state-vector engine for digitized driven evolutions.

The Trotter engine, the ODE reference and the spectra all read the driven
Hamiltonian from one ``DrivenHamiltonian`` compiled per (instance, drive).
Its diagonal problem part is the classical energy vector E, so a Trotter
step applies all Z and ZZ terms as the single phase exp(-i dt lam E).  The
mixer and CD terms are off-diagonal Pauli strings applied exactly: every
string P is an involution, so exp(-i theta P) = cos(theta) I - i sin(theta) P.
A Trotter step runs a ``_StepPlan`` compiled from the string masks: it cuts
the strings, in canonical order, into runs on at most ``BLOCK_QUBITS``
qubits and applies each run as one small block unitary in one GEMM, after
at most one gather that brings the run's qubits to the leading axes.
``matvec`` and ``dense`` read the strings grouped by X mask instead: for a
coefficient vector, sum_k c_k P_k = sum_x diag(d_x) X^x with one row d_x per
distinct X mask, formed from the masks.  No gate decomposition happens here;
circuit-level costs are tracked symbolically, one exponential per Pauli
term, in the evolution report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import zip_longest

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


#: Bytes a ``DrivenHamiltonian`` may claim: its step plan, ``operator_rows``,
#: the energy vectors and the state vectors a step or matvec works on.  Above
#: it, construction raises ``ResourceCapError`` before allocating any of them.
MEMORY_BUDGET = 1 << 30

#: Most qubits one fused block of a Trotter step acts on (see ``_StepPlan``).
BLOCK_QUBITS = 4

# (-i)**k for k mod 4.
_MINUS_I_POWERS = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)

# What each operation of a step plan does to the state buffers.
_GATHER, _LEADING, _TRAILING, _PHASE, _COPY = range(5)

# Most string slots of a run whose product expands into one sum of terms.
_CHUNK = 4

# 1 and 0: cos and sin of a padding slot's angle 0; 1 also stands in for
# the factors of the slots a narrow chunk lacks.
_UNIT = np.array([1.0, 0.0])


def _string_phases(x_masks: np.ndarray, z_masks: np.ndarray, power: int = 0) -> np.ndarray:
    """(-i)**(y + power) per string, where y = popcount(x & z) is its Y count.

    This is the phase convention of every compiled form: the string with
    masks (x, z) is P = (-i)**y Z^z X^x, since Y = -i Z X on each site, so
    P |b ^ x> = (-i)**y s_z(b) |b> with s_z(b) = (-1)**popcount(z & b).
    """
    return np.array(_MINUS_I_POWERS)[(np.bitwise_count(x_masks & z_masks) + power) % 4]


class _StepPlan:
    """One Trotter step as a sequence of few-qubit block unitaries.

    The step's strings, the n mixer X strings by site and then the CD
    strings, are cut greedily and in order into runs whose combined support
    spans at most ``BLOCK_QUBITS`` qubits; the phase exp(-i dt lam E), which
    follows the mixer, always ends a run.  A run of strings P_k with angles
    theta_k applies U = prod_k (cos theta_k I + sin theta_k (-i P_k)), the
    product of its rotations in order, so the step stays the canonical
    product and only rounding changes.

    The state is held in a layout, an order of the qubits over the bit
    positions of the index, most significant first.  A run whose q qubits
    lead the layout applies its 2**q x 2**q unitary U to the state viewed
    as a (2**q, 2**n / 2**q) matrix in one GEMM; when every -i P_k of the
    run is real, as for every CD string, so is U, and the GEMM runs on the
    float64 view of the state.  A run whose qubits trail the layout
    multiplies the state viewed as a (2**n / 2**q, 2**q) matrix by U^T.
    Before any other run, one gather moves its qubits to the front,
    keeping the order of the rest.  On each step the unitaries of all runs
    of one shape are formed together, so the Python work of a step grows
    with the number of runs, not of strings.

    The plan depends only on the string masks, so instances with the same
    strings share it (``_step_plan``), and it holds no reference to any
    Hamiltonian.  Its arrays are built on first use and read-only.
    """

    def __init__(self, n: int, x_masks: tuple[int, ...], z_masks: tuple[int, ...]):
        self.n = n
        self.x_masks, self.z_masks = x_masks, z_masks
        runs, start, support = [], 0, 0
        for k, string in enumerate(x | z for x, z in zip(x_masks, z_masks)):
            if k > start and (k == n or (support | string).bit_count() > BLOCK_QUBITS):
                runs.append((start, k, support))
                start, support = k, 0
            support |= string
        runs.append((start, len(x_masks), support))

        natural = tuple(range(n - 1, -1, -1))
        layout = natural
        self.gathers: list[tuple[int, ...]] = []  # transpose axes, old layout -> new
        self.runs: list[tuple[int, int, tuple[int, ...]]] = []  # start, stop, its qubits
        steps = []
        for start, stop, support in runs:
            sites = tuple(q for q in layout if support >> q & 1)
            if set(layout[: len(sites)]) == set(sites):
                steps.append(_LEADING)
            elif set(layout[n - len(sites) :]) == set(sites):
                steps.append(_TRAILING)
            else:
                moved = sites + tuple(q for q in layout if not support >> q & 1)
                self.gathers.append(tuple(layout.index(q) for q in moved))
                steps += [_GATHER, _LEADING]
                layout = moved
            self.runs.append((start, stop, sites))
            if stop == n:
                # E in the layout the state is in at the phase.
                self.phase_axes = tuple(n - 1 - q for q in layout)
                steps.append(_PHASE)
        if layout != natural:
            self.gathers.append(tuple(layout.index(q) for q in natural))
            steps.append(_GATHER)

        # Runs of one shape (qubit count, realness, and string count padded
        # to a power of two) form their unitaries together: run r is member
        # b of group g.  A run is real when all its strings have odd Y counts.
        keys: dict[tuple[int, bool, int], list[int]] = {}
        members = []
        for r, (start, stop, sites) in enumerate(self.runs):
            strings = zip(x_masks[start:stop], z_masks[start:stop])
            real = all((x & z).bit_count() % 2 for x, z in strings)
            key = (len(sites), real, 1 << (stop - start - 1).bit_length())
            group = keys.setdefault(key, [])
            members.append((list(keys).index(key), len(group)))
            group.append(r)
        self.groups = [(*key, runs) for key, runs in keys.items()]

        # Buffers: 0 is the caller's psi, 1 and 2 scratch.  Each gather or GEMM
        # writes a buffer other than the one it reads; the last writes psi.
        writes = sum(kind != _PHASE for kind in steps)
        self.ops: list[tuple[int, int, int, int, int]] = []
        current, gathers, blocks = 0, 0, 0
        for kind in steps:
            if kind == _PHASE:
                self.ops.append((_PHASE, current, current, 0, 0))
                continue
            writes -= 1
            target = 0 if writes == 0 and current != 0 else (2 if current == 1 else 1)
            if kind == _GATHER:
                self.ops.append((_GATHER, current, target, gathers, 0))
                gathers += 1
            else:
                self.ops.append((kind, current, target, *members[blocks]))
                blocks += 1
            current = target
        if current != 0:
            self.ops.append((_COPY, current, 0, 0, 0))

        # The bytes of ``arrays``: gathers, then per term its weight factors
        # and its 2**q x 2**q matrix.
        self.nbytes = 8 * (1 << n) * len(self.gathers)
        for q, real, slots, runs in self.groups:
            terms = len(runs) * slots // min(slots, _CHUNK) * (1 << min(slots, _CHUNK))
            self.nbytes += terms * (8 * _CHUNK + 4**q * (8 if real else 16))

    @cached_property
    def arrays(self) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
        """Gather indices, weight factors and, per group, the expanded chunks.

        Gather i reads new[j] = old[index[j]].  -i P_k maps |r ^ x> to
        (-i)**(y+1) s_z(r) |r>, so on the run's qubits it is the matrix M_k
        with that phase times the sign at row r, column r ^ x (zero in
        padding slots).  The slots of a run fall into chunks of
        w = min(slots, 4), and the product over a chunk expands into 2**w
        terms: for each subset S of its slots, the product of M_t over t in
        S, later slots on the left.  Every term is exact.  Term S weighs
        sin theta_t for t in S times cos theta_t for the chunk's other
        slots; ``factors`` holds, per term of every group in turn, where its
        four factors sit in (cos thetas, sin thetas, 1, 0): a padding slot
        has the angle 0, so cos 1 and sin 0, and a chunk narrower than four
        slots has factors 1 for the slots it lacks.
        """
        n, count = self.n, len(self.x_masks)
        index = np.arange(1 << n).reshape((2,) * n)
        gathers = [index.transpose(axes).ravel() for axes in self.gathers]
        x_all = np.array(self.x_masks, dtype=np.int64)
        z_all = np.array(self.z_masks, dtype=np.int64)
        phases = np.append(_string_phases(x_all, z_all, 1), 0.0)
        one, zero = 2 * count, 2 * count + 1
        factors, expansions = [], []
        for q, real, slots, runs in self.groups:
            dim = 1 << q
            bits = 1 << np.arange(q - 1, -1, -1)
            position = np.full((len(runs), slots), count)
            x_local = np.zeros((len(runs), slots), dtype=np.int64)
            z_local = np.zeros_like(x_local)
            for b, r in enumerate(runs):
                start, stop, sites = self.runs[r]
                sites = np.array(sites)
                position[b, : stop - start] = np.arange(start, stop)
                x_local[b, : stop - start] = ((x_all[start:stop, None] >> sites) & 1) @ bits
                z_local[b, : stop - start] = ((z_all[start:stop, None] >> sites) & 1) @ bits
            position, x_local, z_local = position.ravel(), x_local.ravel(), z_local.ravel()
            rows = np.arange(dim)
            values = phases[position][:, None] * (
                1.0 - 2.0 * (np.bitwise_count(z_local[:, None] & rows) % 2)
            )
            dtype = float if real else complex
            generators = np.zeros((len(position), dim, dim), dtype=dtype)
            generators[np.arange(len(position))[:, None], rows, rows ^ x_local[:, None]] = (
                values.real if real else values
            )
            width = min(slots, _CHUNK)
            chunks = generators.reshape(-1, width, dim, dim)
            terms = np.broadcast_to(np.eye(dim, dtype=dtype), (len(chunks), 1, dim, dim))
            for t in range(width):
                terms = np.concatenate([terms, chunks[:, t, None] @ terms], axis=1)
            expansions.append(terms.reshape(len(chunks), 1 << width, dim * dim))
            subsets = (np.arange(1 << width)[:, None] >> np.arange(width)) & 1
            position = position.reshape(-1, 1, width)
            factor = np.full((len(chunks), 1 << width, _CHUNK), one)
            factor[..., :width] = np.where(
                position == count, np.where(subsets, zero, one), position + count * subsets
            )
            factors.append(factor.reshape(-1, _CHUNK))
        factors = np.concatenate(factors)
        for array in gathers + expansions + [factors]:
            array.flags.writeable = False
        return gathers, factors, expansions

    def unitaries(self, thetas: np.ndarray) -> list[np.ndarray]:
        """Per group, the (runs, 2**q, 2**q) run unitaries at the strings' angles.

        A chunk's product is the weighted sum of its terms; the chunks of a
        run then multiply pairwise, later chunks on the left.  Padding slots
        weigh in as the identity, exactly.
        """
        _, factors, expansions = self.arrays
        weights = np.concatenate((np.cos(thetas), np.sin(thetas), _UNIT))[factors].prod(axis=1)
        result, offset = [], 0
        for (q, _, slots, runs), terms in zip(self.groups, expansions):
            stop = offset + terms.shape[0] * terms.shape[1]
            rotations = weights[offset:stop].reshape(len(terms), 1, -1) @ terms
            rotations = rotations.reshape(len(runs), -1, 1 << q, 1 << q)
            while rotations.shape[1] > 1:
                rotations = rotations[:, 1::2] @ rotations[:, 0::2]
            result.append(rotations[:, 0])
            offset = stop
        return result


@lru_cache(maxsize=16)
def _step_plan(n: int, x_masks: tuple[int, ...], z_masks: tuple[int, ...]) -> _StepPlan:
    """The step plan for these strings, shared while it stays among the last 16 used."""
    return _StepPlan(n, x_masks, z_masks)


class DrivenHamiltonian:
    """H(lam, lam_dot) = (1-lam) H_x + lam H_p + lam_dot A_CD(lam), compiled once.

    Built once per (instance, drive).  It holds the classical energy vector
    E, which is the diagonal problem part H_p, the drive's ``CompiledGauge``,
    and the off-diagonal strings: the n mixer X strings by site, then the CD
    strings in ``cd_terms`` order.  ``step`` runs the strings' shared
    ``_StepPlan``.  ``matvec``, ``dense`` and the ``operator_*`` forms group
    the strings by X mask instead (see ``_string_phases``): for coefficients
    c, sum_k c_k P_k = sum_x diag(d_x) X^x, with one row d_x per distinct X
    mask in ``row_masks`` (see ``operator_rows``).
    """

    def __init__(self, inst: ProblemInstance, ansatz: Ansatz):
        n = inst.n
        self.ansatz = ansatz
        self.n = n
        self.gauge = CompiledGauge(inst, ansatz)
        self.cd_strings = self.gauge.terms
        strings = [PauliString.single(n, i, "X") for i in range(n)] + self.cd_strings
        self.x_masks = tuple(s.x_mask for s in strings)
        self.z_masks = tuple(s.z_mask for s in strings)
        self.plan = _step_plan(n, self.x_masks, self.z_masks)
        groups: dict[int, list[int]] = {}
        for k, x in enumerate(self.x_masks):
            groups.setdefault(x, []).append(k)
        self.row_masks = tuple(groups)
        dim = 1 << n
        # The plan; 8-byte vectors: the energies in two layouts; 16-byte
        # vectors: psi, two scratch states and the phase of a step; per row
        # of ``operator_rows`` 40 bytes an entry: the complex row and, while
        # it is formed, a complex term and an int64 mask.
        needed = self.plan.nbytes + dim * (8 * 2 + 4 * 16 + 40 * len(groups))
        if needed > MEMORY_BUDGET:
            raise ResourceCapError(
                f"{ansatz.value} drive at n={n} needs {needed / 2**20:.0f} MiB, "
                f"above the budget of {MEMORY_BUDGET / 2**20:.0f} MiB"
            )
        self.energies = classical_energies(inst)
        self.phases = _string_phases(np.array(self.x_masks), np.array(self.z_masks))
        # Member p of row r is string slots[p, r]; a row with fewer members
        # pads with the index past the last string, whose weight is 0.
        self._slots = np.array(list(zip_longest(*groups.values(), fillvalue=len(strings))))
        self._slot_z = np.append(self.z_masks, 0)[self._slots][..., None]
        cd_single = sum(1 for s in self.cd_strings if s.weight == 1)
        self.single_count = n + sum(1 for h in inst.fields if h != 0.0) + cd_single
        self.entangling_count = (
            sum(1 for _, _, value in inst.couplings if value != 0.0)
            + len(self.cd_strings)
            - cd_single
        )

    @cached_property
    def _phase_energies(self) -> np.ndarray:
        """E in the layout the plan's state is in at the phase."""
        return self.energies.reshape((2,) * self.n).transpose(self.plan.phase_axes).ravel()

    def coefficients(self, lam: float, lam_dot: float) -> np.ndarray:
        """Off-diagonal coefficients: -(1-lam) per X string, then the CD values."""
        values = np.empty(len(self.x_masks))
        values[: self.n] = -(1.0 - lam)
        if self.cd_strings:
            values[self.n :] = cd_coefficients(self.gauge, self.ansatz, lam, lam_dot)
        return values

    def step(self, psi: np.ndarray, dt: float, lam: float, lam_dot: float) -> None:
        """In place: one first-order Trotter step with coefficients at (lam, lam_dot).

        Canonical order: X by site, every nonzero Z and ZZ term, then CD.
        The Z and ZZ terms commute and are adjacent, so their product is
        exactly the single phase exp(-i dt lam E).  The plan applies the
        rotations fused into block unitaries (see ``_StepPlan``) and leaves
        the result in ``psi``, which must be a contiguous complex128 vector.
        """
        dim = 1 << self.n
        if psi.dtype != np.complex128 or psi.shape != (dim,) or not psi.flags.c_contiguous:
            raise ParameterError(f"step needs a contiguous complex128 vector of length {dim}")
        plan = self.plan
        gathers = plan.arrays[0]
        unitaries = plan.unitaries(dt * self.coefficients(lam, lam_dot))
        buffers = (psi, np.empty_like(psi), np.empty_like(psi))
        for kind, source, target, item, member in plan.ops:
            if kind == _LEADING:
                unitary = unitaries[item][member]
                state = buffers[source].reshape(len(unitary), -1)
                out = buffers[target].reshape(len(unitary), -1)
                if unitary.dtype == np.float64:
                    state, out = state.view(np.float64), out.view(np.float64)
                np.matmul(unitary, state, out=out)
            elif kind == _TRAILING:
                unitary = unitaries[item][member]
                state = buffers[source].reshape(-1, len(unitary))
                np.matmul(state, unitary.T, out=buffers[target].reshape(-1, len(unitary)))
            elif kind == _GATHER:
                # The indices are in range, so "wrap" only skips the bounds check.
                np.take(buffers[source], gathers[item], out=buffers[target], mode="wrap")
            elif kind == _PHASE:
                # exp(-i dt lam E), as cos + i sin of one real angle.
                angle = (-dt * lam) * self._phase_energies
                phase = np.empty_like(psi)
                np.cos(angle, out=phase.real)
                np.sin(angle, out=phase.imag)
                state = buffers[source]
                state *= phase
            else:
                buffers[target][:] = buffers[source]

    def matvec(self, psi: np.ndarray, lam: float, lam_dot: float) -> np.ndarray:
        """H(lam, lam_dot) @ psi for a complex amplitude array."""
        return self.operator_matvec(psi, lam, self.operator_rows(self.coefficients(lam, lam_dot)))

    def operator_rows(self, values: np.ndarray) -> np.ndarray:
        """The rows d_x with sum_k values[k] P_k = sum_x diag(d_x) X^x, x in ``row_masks``.

        d_x[b] sums values[k] (-i)**y_k s_z_k(b) over the strings k with X
        mask x, in string order, so every term and the order of the sum are
        those of the strings one by one.  The rows are float64 when every
        nonzero value sits on a string with an even Y count (a real phase):
        always for ``none``, and for any drive whose CD values vanish, as at
        lam_dot = 0.  Otherwise they are complex128.
        """
        weights = np.append(values * self.phases, 0.0)
        if not weights.imag.any():
            weights = weights.real
        index = np.arange(1 << self.n)
        rows = np.zeros((len(self.row_masks), 1 << self.n), dtype=weights.dtype)
        for members, z_masks in zip(self._slots, self._slot_z):
            odd = np.bitwise_count(z_masks & index) & 1
            weight = weights[members, None]
            rows += np.where(odd, -weight, weight)
        return rows

    def operator_matvec(self, psi: np.ndarray, diagonal: float, rows: np.ndarray) -> np.ndarray:
        """(diagonal E + sum_x diag(d_x) X^x) @ psi for ``rows`` from ``operator_rows``."""
        out = diagonal * self.energies * psi
        index = np.arange(len(psi))
        for x, row in zip(self.row_masks, rows):
            gathered = psi[index ^ x]
            gathered *= row
            out += gathered
        return out

    def dense(self, lam: float, lam_dot: float) -> np.ndarray:
        """Dense matrix of H(lam, lam_dot), real where ``operator_rows`` are; see ``DENSE_CAP``."""
        return self.operator_dense(lam, self.operator_rows(self.coefficients(lam, lam_dot)))

    def operator_dense(self, diagonal: float, rows: np.ndarray) -> np.ndarray:
        """Dense matrix of diagonal E + sum_x diag(d_x) X^x; see ``dense``."""
        if self.n > DENSE_CAP:
            raise ResourceCapError(f"dense matrix for n={self.n} exceeds cap {DENSE_CAP}")
        dim = 1 << self.n
        index = np.arange(dim)
        mat = np.zeros((dim, dim), dtype=rows.dtype)
        mat[index, index] = diagonal * self.energies
        for x, row in zip(self.row_masks, rows):
            mat[index, index ^ x] += row
        return mat


@np.errstate(over="ignore", invalid="ignore")  # a non-finite norm stops the evolution
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
    if shots < 1 or seed < 0:
        raise ParameterError(f"need shots >= 1 and a seed >= 0, got {shots} shots, seed {seed}")
    probabilities = np.abs(state.amplitudes) ** 2
    probabilities = probabilities / probabilities.sum()
    counts = np.random.default_rng(seed).multinomial(shots, probabilities)
    return {int(i): int(c) for i, c in enumerate(counts) if c}
