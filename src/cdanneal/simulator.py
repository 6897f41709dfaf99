"""Dense state-vector engine for digitized driven evolutions.

The Trotter engine, the ODE reference and the spectra all read the driven
Hamiltonian from one ``DrivenHamiltonian`` compiled per (instance, drive).
Its diagonal problem part is the instance's energy vector E, so a Trotter
step applies all Z and ZZ terms as the single phase exp(-i dt lam E).  The
mixer and CD terms are off-diagonal Pauli strings applied exactly: every
string P is an involution, so exp(-i theta P) = cos(theta) I - i sin(theta) P.
A Trotter step runs a ``_StepPlan`` compiled from the string masks: it cuts
the strings, in canonical order, into runs on at most ``BLOCK_QUBITS``
qubits and applies each run as one small real block unitary in one
``matmul`` on the float64 view of the state, viewed as a stack over the
run's contiguous qubits, after at most one transposed copy of the state
that brings the run's qubits, and the next run's behind them, together.
Every CD string has an odd Y count, so its generator -i P is real.  The
mixer runs in the frame Q = diag(1, i)**n, where Q^dag X Q = -Y and each
rotation exp(-i theta X) becomes exp(i theta Y) = cos theta I + sin theta
Z X, which is real too.  Q is diagonal, so it commutes with the phase: a
step multiplies the state by Q^dag, runs the mixer, and multiplies by the
phase table, which has Q folded in, before the CD runs.  Both diagonal
factors take values in {1, -1, i, -i}, so neither rounds.  An evolution
binds the plan to its buffers once and takes its steps in chunks: the CD
coefficients, the block unitaries and the phases of every step of a chunk
are formed in one pass before its first step runs.  The phase table of a grid
that fits in one chunk stays with the instance, so every drive of the
instance that steps the same grid reads one table.
``matvec`` and ``dense`` read the strings grouped by X mask instead: for a
coefficient vector, sum_k c_k P_k = sum_x diag(d_x) X^x with one row d_x per
distinct X mask, formed from the masks.  A state is a contiguous complex128
array of 2**n amplitudes.  No gate decomposition happens here;
circuit-level costs are tracked symbolically, one exponential per Pauli
term, in the evolution report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    IntegratorError,
    ParameterError,
    ResourceCapError,
    SingularGaugeError,
)
from .gauge import Ansatz, CompiledGauge, cd_coefficients
from .pauli import PauliString, string_amplitudes
from .problem import STATEVECTOR_CAP, GroundTruth, ProblemInstance
from .schedule import Schedule

# Not called here; benchmarks/spans.py patches this name on this module.
from .gauge import cd_terms  # noqa: F401


@dataclass
class EvolutionReport:
    """Final state plus unitarity and cost bookkeeping for one evolution."""

    final_state: np.ndarray
    step_norms: tuple[float, ...]
    operator_applications: int
    single_per_step: int
    entangling_per_step: int
    entangling_total: int
    wall_seconds: float


def plus_state(n: int) -> np.ndarray:
    """Uniform superposition with real amplitudes 2**(-n/2)."""
    if n < 1:
        raise ParameterError(f"qubit count must be >= 1, got {n}")
    if n > STATEVECTOR_CAP:
        raise ResourceCapError(f"state vector for n={n} exceeds cap {STATEVECTOR_CAP}")
    return np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128)


def apply_pauli_exponential(psi: np.ndarray, string: PauliString, theta: float) -> np.ndarray:
    """Apply exp(-i theta P) to the state ``psi`` in place and return it.

    Works on any string, diagonal or not, one string at a time; it is the
    reference that ``DrivenHamiltonian`` is tested against.
    """
    if len(psi) != 1 << string.n:
        raise DimensionMismatchError(
            f"string acts on {string.n} qubits, state has {len(psi)} amplitudes"
        )
    perm, amps = string_amplitudes(string)
    # P|b> = amps[b] |b ^ x_mask>, so P psi is (amps * psi) permuted by perm.
    psi[:] = np.cos(theta) * psi - 1j * np.sin(theta) * (amps * psi)[perm]
    return psi


#: Bytes a ``DrivenHamiltonian`` may claim: the energy vector and the state
#: vectors a step or matvec works on, and the rows of ``operator_rows`` or the
#: matrix of ``operator_dense`` while they exist.  Above it, construction, or
#: the forming of rows or a matrix, raises ``ResourceCapError`` before
#: allocating any of them.  The step plan is not charged: at n = 20 it holds
#: at most 7.75 MiB, under 1% of the budget.  Nor is a chunk of steps, which
#: ``DrivenHamiltonian.chunk_steps`` sizes to fit in 1% as well, phase table
#: included; from n = 18 a chunk is one step, whose row of the table is the
#: state vector charged for the phase.
MEMORY_BUDGET = 1 << 30


def _check_budget(what: str, needed: int) -> None:
    """Refuse, before anything is allocated, a claim above ``MEMORY_BUDGET``."""
    if needed > MEMORY_BUDGET:
        raise ResourceCapError(
            f"{what} needs {needed / 2**20:.0f} MiB, "
            f"above the budget of {MEMORY_BUDGET / 2**20:.0f} MiB"
        )


#: Most qubits one fused block of a Trotter step acts on (see ``_StepPlan``).
BLOCK_QUBITS = 4

# (-i)**k for k mod 4.
_MINUS_I_POWERS = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)

# What each operation of a step plan does to the state buffers.
_GATHER, _STACKED, _TRAILING, _PHASE, _COPY, _FRAME = range(6)

# Most string slots of a run whose product expands into one sum of terms.
_CHUNK = 4

# 1 and 0: cos and sin of a padding slot's angle 0; 1 also stands in for
# the factors of the slots a narrow chunk lacks.
_UNIT = np.array([1.0, 0.0])


def _string_phases(x_masks: np.ndarray, z_masks: np.ndarray) -> np.ndarray:
    """(-i)**y per string, where y = popcount(x & z) is its Y count.

    This is the phase convention of every compiled form: the string with
    masks (x, z) is P = (-i)**y Z^z X^x, since Y = -i Z X on each site, so
    P |b ^ x> = (-i)**y s_z(b) |b> with s_z(b) = (-1)**popcount(z & b).
    """
    return np.array(_MINUS_I_POWERS)[np.bitwise_count(x_masks & z_masks) % 4]


def _generators(n: int, x_masks: tuple[int, ...], z_masks: tuple[int, ...]):
    """Z masks and signs of the real generators of a step's strings, in their frames.

    The generator of string P = (-i)**y Z^z X^x is -i P = (-i)**(y+1) Z^z
    X^x.  The n mixer strings come first and run in the frame Q = diag(1,
    i)**n, where Q^dag X^x Q = i**|x| Z^x X^x, so their generators are
    (-i)**(y+1-|x|) Z^(z^x) X^x: Z X for an X string.  A generator is real
    when its power of -i is even, as for every CD string, which has an odd
    Y count; a string whose generator would be complex raises
    ``RuntimeError``.  Returns the Z masks and the signs +-1.
    """
    x = np.array(x_masks, dtype=np.int64)
    z = np.array(z_masks, dtype=np.int64)
    mixer = np.arange(len(x)) < n
    power = np.bitwise_count(x & z) + 1 - np.where(mixer, np.bitwise_count(x), 0)
    if (power % 2).any():
        k = int(np.flatnonzero(power % 2)[0])
        raise RuntimeError(f"string {k} (x={x_masks[k]}, z={z_masks[k]}) has a complex generator")
    return np.where(mixer, z ^ x, z), 1.0 - power % 4


class _StepPlan:
    """One Trotter step as a sequence of few-qubit block unitaries.

    The step's strings, the n mixer X strings by site and then the CD
    strings, are cut greedily and in order into runs whose combined support
    spans at most ``BLOCK_QUBITS`` qubits; the phase exp(-i dt lam E), which
    follows the mixer, always ends a run.  A run of strings P_k with angles
    theta_k applies U = prod_k (cos theta_k I + sin theta_k G_k), the
    product of its rotations in order, where G_k = -i P_k for a CD string.
    The mixer runs in the frame Q = diag(1, i)**n: a step first multiplies
    the state by Q^dag in place, the mixer strings X_j have the generators
    G_j = Q^dag (-i X_j) Q = Z_j X_j, and the phase, which commutes with Q,
    multiplies by exp(-i dt lam E) Q and so leaves the frame.  Every G_k is
    real (see ``_generators``), so is every U, and the step stays the
    canonical product with only the rounding of the block products changed.

    The state is held in a layout, an order of the qubits over the bit
    positions of the index, most significant first.  A run whose q qubits
    sit contiguously at offset p of the layout applies its 2**q x 2**q
    unitary U to the state viewed as a (2**p, 2**q, rest) stack in one
    ``np.matmul`` (a stacked op; a (2**q, rest) matrix when p = 0) on the
    float64 view of the state, whose last axis interleaves the real and
    imaginary parts.  A run whose qubits trail the layout multiplies the
    float64 view as a (rest, 2**(q+1)) matrix by kron(U^T, I_2).  Before
    any other run, one gather copies the state, viewed as a (2,)**n array,
    transposed by that gather's axes in ``gathers``, so the plan stores no
    index.  The gather puts the run's qubits in front and
    orders them so that the next run's qubits follow contiguously: the
    qubits it shares with the next run last, the next run's new qubits
    right after, then the rest in their order.  The next run is then a
    stacked op with no gather of its own.  The runs of the mixer leave the
    state in the natural layout, so the phase reads E as it is; a plan that
    would reach the phase in any other layout raises.  The unitaries of all
    runs of one shape are formed together, for every step of a chunk at
    once, so the Python work of a chunk grows with the number of shapes,
    not of strings or steps.

    The plan depends only on the string masks, so instances with the same
    strings share it (``_step_plan``), and it holds no reference to any
    Hamiltonian or buffer; ``bind`` prepares its operations on the buffers
    of one evolution.  Its arrays are built on first use and read-only.
    """

    def __init__(self, n: int, x_masks: tuple[int, ...], z_masks: tuple[int, ...]):
        self.n = n
        self.x_masks, self.z_masks = x_masks, z_masks
        self.generators = _generators(n, x_masks, z_masks)
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
        steps = []  # (kind, offset of the run's qubits in the layout)
        for r, (start, stop, support) in enumerate(runs):
            where = [p for p, q in enumerate(layout) if support >> q & 1]
            offset, width = where[0], len(where)
            if where[-1] - offset >= width:
                # This run's own qubits, those it shares with the next run,
                # the next run's new ones, then the rest, each in layout order.
                following = runs[r + 1][2] if r + 1 < len(runs) else 0
                parts = (
                    support & ~following,
                    support & following,
                    following & ~support,
                    ~(support | following),
                )
                moved = tuple(q for part in parts for q in layout if part >> q & 1)
                self.gathers.append(tuple(layout.index(q) for q in moved))
                steps.append((_GATHER, 0))
                layout, offset = moved, 0
            steps.append((_TRAILING if 0 < offset == n - width else _STACKED, offset))
            self.runs.append((start, stop, layout[offset : offset + width]))
            if stop == n:
                # The phase reads E, whose index is the natural layout.
                if layout != natural:
                    raise RuntimeError(f"the phase needs the natural layout, not {layout}")
                steps.append((_PHASE, 0))
        if layout != natural:
            self.gathers.append(tuple(layout.index(q) for q in natural))
            steps.append((_GATHER, 0))

        # Runs of one shape (qubit count and string count padded to a power
        # of two) form their unitaries together: run r is member b of group g.
        keys: dict[tuple[int, int], list[int]] = {}
        members = []
        for r, (start, stop, sites) in enumerate(self.runs):
            key = (len(sites), 1 << (stop - start - 1).bit_length())
            group = keys.setdefault(key, [])
            members.append((list(keys).index(key), len(group)))
            group.append(r)
        self.groups = [(*key, runs) for key, runs in keys.items()]

        # Buffers: 0 is the caller's psi, 1 and 2 scratch.  Each gather or run
        # writes a buffer other than the one it reads; the last writes psi.
        # An op is (kind, source, target, item, member, offset): a gather's
        # item indexes ``gathers``; a run is member ``member`` of group
        # ``item`` and its qubits sit at ``offset`` of the layout.  The frame
        # op, first, and the phase multiply their buffer in place.
        writes = sum(kind != _PHASE for kind, _ in steps)
        self.ops: list[tuple[int, int, int, int, int, int]] = [(_FRAME, 0, 0, 0, 0, 0)]
        current, gathers, blocks = 0, 0, 0
        for kind, offset in steps:
            if kind == _PHASE:
                self.ops.append((_PHASE, current, current, 0, 0, 0))
                continue
            writes -= 1
            target = 0 if writes == 0 and current != 0 else (2 if current == 1 else 1)
            if kind == _GATHER:
                self.ops.append((_GATHER, current, target, gathers, 0, 0))
                gathers += 1
            else:
                self.ops.append((kind, current, target, *members[blocks], offset))
                blocks += 1
            current = target
        if current != 0:
            self.ops.append((_COPY, current, 0, 0, 0, 0))

    def bind(self, buffers: tuple[np.ndarray, ...]) -> list[tuple]:
        """The operations prepared on ``buffers`` (psi and two scratch states).

        Each is (kind, first, second, group, member) with the views one
        numpy call of a step reads and writes: a gather or copy writes
        ``first`` from ``second``, a run multiplies ``first`` by its unitary
        into ``second``, the frame op multiplies ``first`` in place by
        ``second``, Q^dag, and the phase multiplies ``first`` in place.
        """
        qubits = (2,) * self.n
        bound = []
        for kind, source, target, item, member, offset in self.ops:
            state, out = buffers[source], buffers[target]
            if kind == _GATHER:
                transposed = state.reshape(qubits).transpose(self.gathers[item])
                bound.append((kind, out.reshape(qubits), transposed, None, None))
            elif kind == _COPY:
                bound.append((kind, out, state, None, None))
            elif kind == _FRAME:
                bound.append((kind, state, _frame(self.n), None, None))
            elif kind == _PHASE:
                bound.append((kind, state, None, None, None))
            else:
                width = self.groups[item][0]
                if kind == _TRAILING:
                    shape = (-1, 2 << width)
                else:
                    shape = (1 << offset, 1 << width, -1) if offset else (1 << width, -1)
                state, out = state.view(np.float64), out.view(np.float64)
                bound.append((kind, state.reshape(shape), out.reshape(shape), item, member))
        return bound

    @cached_property
    def arrays(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Weight factors and, per group, the expanded chunks.

        A generator G_k = +-Z^z X^x (see ``_generators``) maps |r ^ x> to
        +-s_z(r) |r>, so on the run's qubits it is the real matrix M_k with
        that sign at row r, column r ^ x (zero in padding slots).  The slots
        of a run fall into chunks of w = min(slots, 4), and the product over
        a chunk expands into 2**w terms: for each subset S of its slots,
        the product of M_t over t in S, later slots on the left.  Every term
        is exact.  Term S weighs sin theta_t for t in S times cos theta_t
        for the chunk's other slots; ``factors`` holds, per term of every
        group in turn, where its four factors sit in (cos thetas, sin
        thetas, 1, 0): a padding slot has the angle 0, so cos 1 and sin 0,
        and a chunk narrower than four slots has factors 1 for the slots it
        lacks.
        """
        count = len(self.x_masks)
        x_all = np.array(self.x_masks, dtype=np.int64)
        z_all, signs = self.generators
        signs = np.append(signs, 0.0)
        one, zero = 2 * count, 2 * count + 1
        factors, expansions = [], []
        for q, slots, runs in self.groups:
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
            values = signs[position][:, None] * (
                1.0 - 2.0 * (np.bitwise_count(z_local[:, None] & rows) % 2)
            )
            generators = np.zeros((len(position), dim, dim))
            generators[np.arange(len(position))[:, None], rows, rows ^ x_local[:, None]] = values
            width = min(slots, _CHUNK)
            chunks = generators.reshape(-1, width, dim, dim)
            terms = np.broadcast_to(np.eye(dim), (len(chunks), 1, dim, dim))
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
        for array in expansions + [factors]:
            array.flags.writeable = False
        return factors, expansions

    @property
    def step_bytes(self) -> int:
        """Bytes of one step's unitaries as first formed, one matrix per chunk of a run."""
        _, expansions = self.arrays
        return sum(len(terms) * terms.shape[2] * terms.itemsize for terms in expansions)

    def unitaries(self, thetas: np.ndarray) -> list[np.ndarray]:
        """Per group, the (steps, runs, 2**q, 2**q) run unitaries at a table of angles.

        ``thetas`` holds one row of string angles per step.  A chunk's
        product is the weighted sum of its terms; the chunks of a run then
        multiply pairwise, later chunks on the left.  Padding slots weigh in
        as the identity, exactly.  Every matrix product is the one a single
        step would form, so each step's unitaries are those of a one-row
        table, bit for bit.
        """
        factors, expansions = self.arrays
        steps = len(thetas)
        unit = np.broadcast_to(_UNIT, (steps, 2))
        weights = np.concatenate((np.cos(thetas), np.sin(thetas), unit), axis=1)
        weights = weights[:, factors].prod(axis=2)
        result, offset = [], 0
        for (q, slots, runs), terms in zip(self.groups, expansions):
            stop = offset + terms.shape[0] * terms.shape[1]
            rotations = weights[:, offset:stop].reshape(steps, len(terms), 1, -1) @ terms
            rotations = rotations.reshape(steps, len(runs), -1, 1 << q, 1 << q)
            while rotations.shape[2] > 1:
                rotations = rotations[:, :, 1::2] @ rotations[:, :, 0::2]
            result.append(rotations[:, :, 0])
            offset = stop
        return result


@lru_cache(maxsize=1)
def _frame(n: int) -> np.ndarray:
    """Q^dag = diag(1, -i)**n as the read-only vector (-i)**popcount(b)."""
    frame = np.array(_MINUS_I_POWERS)[np.bitwise_count(np.arange(1 << n)) % 4]
    frame.flags.writeable = False
    return frame


def _phase_table(energies: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """exp(i s E) Q per scale s: one row of 2**n phases per step.

    One cos and one sin over the products s E, each written into its half
    of the complex table, so every row is bit for bit the phase its step
    would form alone.  The frame Q = diag(1, i)**n (see ``_StepPlan``) then
    swaps and negates the halves of each entry, exactly.
    """
    angles = np.multiply.outer(scales, energies)
    table = np.empty(angles.shape, dtype=np.complex128)
    np.cos(angles, out=table.real)
    np.sin(angles, out=table.imag)
    table *= _frame(len(energies).bit_length() - 1).conj()
    return table


@lru_cache(maxsize=16)
def _step_plan(n: int, x_masks: tuple[int, ...], z_masks: tuple[int, ...]) -> _StepPlan:
    """The step plan for these strings, shared while it stays among the last 16 used."""
    return _StepPlan(n, x_masks, z_masks)


class DrivenHamiltonian:
    """H(lam, lam_dot) = (1-lam) H_x + lam H_p + lam_dot A_CD(lam), compiled once.

    Built once per (instance, drive).  It reads the instance's energies E,
    the diagonal problem part H_p, shared with every drive of the instance,
    and holds the drive's ``CompiledGauge`` and the off-diagonal string masks:
    the n mixer X strings by site, then the CD strings in ``cd_terms`` order.
    ``steps`` runs the strings' shared ``_StepPlan``.  ``matvec``, ``dense``
    and the ``operator_*`` forms group the strings by X mask instead (see
    ``_string_phases``): for coefficients c, sum_k c_k P_k = sum_x diag(d_x)
    X^x, with one row d_x per distinct X mask in ``row_masks``.  An instance
    above ``STATEVECTOR_CAP`` qubits raises ``ResourceCapError`` before any
    of this is formed.
    """

    def __init__(self, inst: ProblemInstance, ansatz: Ansatz):
        n = inst.n
        if n > STATEVECTOR_CAP:
            raise ResourceCapError(f"drive at n={n} exceeds the state-vector cap {STATEVECTOR_CAP}")
        self.ansatz = ansatz
        self.n = n
        self.gauge = CompiledGauge(inst, ansatz)
        cd_x, cd_z = self.gauge.x_masks, self.gauge.z_masks
        self.x_masks = tuple((1 << np.arange(n)).tolist() + cd_x.tolist())
        self.z_masks = (0,) * n + tuple(cd_z.tolist())
        self.plan = _step_plan(n, self.x_masks, self.z_masks)
        self.row_masks = tuple(dict.fromkeys(self.x_masks))
        # The energies, 8 bytes an entry; psi, two scratch states, a step's
        # row of the phase table and the frame vector, 16 bytes an entry each.
        self._claimed = (1 << n) * (8 + 5 * 16)
        _check_budget(f"{ansatz.value} drive at n={n}", self._claimed)
        cd_single = int(np.count_nonzero(np.bitwise_count(cd_x | cd_z) == 1))
        self.single_count = n + sum(1 for h in inst.fields if h != 0.0) + cd_single
        self.entangling_count = (
            sum(1 for _, _, value in inst.couplings if value != 0.0) + len(cd_x) - cd_single
        )

    @cached_property
    def phases(self) -> np.ndarray:
        """(-i)**y per string (see ``_string_phases``); formed on first use."""
        return _string_phases(np.array(self.x_masks), np.array(self.z_masks))

    @property
    def energies(self) -> np.ndarray:
        """The instance's energy vector E.

        Read on first use, not at construction, so that a caller can refuse
        a drive, or its operator rows, before E is formed.
        """
        return self.gauge.inst.energies

    def coefficients(self, lam, lam_dot) -> np.ndarray:
        """Off-diagonal coefficients: -(1-lam) per X string, then the CD values.

        Scalars give one vector; equal-length 1-D arrays one row per point
        (see ``cd_coefficients``).
        """
        lam = np.asarray(lam, dtype=float)
        values = np.empty(lam.shape + (len(self.x_masks),))
        values[..., : self.n] = np.asarray(-(1.0 - lam))[..., None]
        if len(self.x_masks) > self.n:
            values[..., self.n :] = cd_coefficients(self.gauge, self.ansatz, lam, lam_dot)
        return values

    @cached_property
    def chunk_steps(self) -> int:
        """How many steps ``steps`` prepares at once.

        At least one, and as many as fit in 1% of ``MEMORY_BUDGET`` with
        their unitaries as first formed, their rows of the phase table and
        the angles those are formed from, and, for two-local, their stacked
        normal equations: the argument that leaves the step plan uncharged.
        """
        per_step = self.plan.step_bytes + self.gauge.point_bytes + 24 * (1 << self.n)
        return max(1, MEMORY_BUDGET // 100 // per_step)

    def step(self, psi: np.ndarray, dt: float, lam: float, lam_dot: float) -> None:
        """In place: one first-order Trotter step; ``steps`` with one point."""
        self.steps(psi, dt, np.array([lam]), np.array([lam_dot]))

    def steps(
        self, psi: np.ndarray, dt: float, lams: np.ndarray, lam_dots: np.ndarray
    ) -> np.ndarray:
        """In place: one first-order Trotter step per (lam, lam_dot) point, in order.

        Canonical order within a step: X by site, every nonzero Z and ZZ
        term, then CD.  The Z and ZZ terms commute and are adjacent, so their
        product is exactly the single phase exp(-i dt lam E).  The plan
        applies the rotations fused into block unitaries (see ``_StepPlan``),
        bound once to the buffers of this call, and leaves the result in
        ``psi``, which must be a contiguous complex128 vector.  The points
        are taken ``chunk_steps`` at a time: the coefficients, unitaries and
        phase table of a chunk are formed before its first step, and a
        singular gauge raises ``SingularGaugeError`` with the 1-based index of
        its point as ``step`` before any step of its chunk runs.  Returns the
        state norm after each step.
        """
        dim = 1 << self.n
        if psi.dtype != np.complex128 or psi.shape != (dim,) or not psi.flags.c_contiguous:
            raise ParameterError(f"step needs a contiguous complex128 vector of length {dim}")
        bound = self.plan.bind((psi, np.empty_like(psi), np.empty_like(psi)))
        real, imag = psi.real, psi.imag
        scales = -dt * lams
        whole = len(lams) <= self.chunk_steps
        norms = np.empty(len(lams))
        for start in range(0, len(lams), self.chunk_steps):
            chunk = slice(start, start + self.chunk_steps)
            try:
                values = self.coefficients(lams[chunk], lam_dots[chunk])
            except SingularGaugeError as exc:
                exc.step += start
                raise
            unitaries = self.plan.unitaries(dt * values)
            ops = []
            for kind, first, second, group, member in bound:
                stack = None if group is None else unitaries[group][:, member]
                if kind == _TRAILING:
                    # kron(U^T, I_2): the float64 view interleaves re and im.
                    paired = np.zeros(stack.shape[:2] + (2,) + stack.shape[2:] + (2,))
                    paired[:, :, 0, :, 0] = paired[:, :, 1, :, 1] = stack.swapaxes(1, 2)
                    stack = paired.reshape(len(stack), 2 * stack.shape[1], -1)
                ops.append((kind, first, second, stack))
            for row, phase in enumerate(self._phase_table_for(scales[chunk], whole)):
                for kind, first, second, stack in ops:
                    if kind == _STACKED:
                        np.matmul(stack[row], first, out=second)
                    elif kind == _TRAILING:
                        np.matmul(first, stack[row], out=second)
                    elif kind == _PHASE:
                        np.multiply(first, phase, out=first)
                    elif kind == _FRAME:
                        np.multiply(first, second, out=first)
                    else:
                        np.copyto(first, second)
                # The sum np.linalg.norm forms, bit for bit.
                norms[start + row] = math.sqrt(real.dot(real) + imag.dot(imag))
            # The last row holds this chunk's table; free it before the next.
            del phase
        return norms

    def _phase_table_for(self, scales: np.ndarray, keep: bool) -> np.ndarray:
        """The phase table of ``scales``; with ``keep`` the instance keeps it.

        A kept table sits in the instance's ``__dict__`` beside its cached
        ``energies``, so every drive of the instance that steps the same
        grid in one chunk reads one table; other scales form their own.
        """
        kept = vars(self.gauge.inst).get("phase_table")
        if kept is not None and np.array_equal(kept[0], scales):
            return kept[1]
        table = _phase_table(self.energies, scales)
        if keep:
            table.flags.writeable = False
            vars(self.gauge.inst)["phase_table"] = (scales, table)
        return table

    def matvec(self, psi: np.ndarray, lam: float, lam_dot: float) -> np.ndarray:
        """H(lam, lam_dot) @ psi for a complex amplitude array."""
        return self.operator_matvec(psi, lam, self.operator_rows(self.coefficients(lam, lam_dot)))

    def operator_rows(self, values: np.ndarray) -> np.ndarray:
        """The rows d_x with sum_k values[k] P_k = sum_x diag(d_x) X^x, x in ``row_masks``.

        One pass over the strings in order: string k adds its term values[k]
        (-i)**y_k s_z_k(b) to the row of its X mask, so every term and the
        order of each row's sum are those of the strings one by one, starting
        from 0.  The rows are float64 when every nonzero value sits on a
        string with an even Y count (a real phase): always for ``none``, and
        for any drive whose CD values vanish, as at lam_dot = 0.  Otherwise
        they are complex128.  See ``check_rows_budget``.
        """
        self.check_rows_budget()
        weights = values * self.phases
        if not weights.imag.any():
            weights = weights.real
        index = np.arange(1 << self.n, dtype=np.int32)  # n <= STATEVECTOR_CAP
        rows = np.zeros((len(self.row_masks), 1 << self.n), dtype=weights.dtype)
        # As Python scalars: numpy scalars cost more per string than a small row.
        weights = map(weights.item, range(len(weights)))
        for x, z, weight in zip(self.x_masks, self.z_masks, weights):
            if z:
                weight = np.where(np.bitwise_count(index & z) & 1, -weight, weight)
            rows[self.row_masks.index(x)] += weight
        return rows

    def check_rows_budget(self) -> None:
        """Refuse, before forming any, operator rows that would break ``MEMORY_BUDGET``.

        The rows are charged on top of the Hamiltonian's own bytes at 16
        bytes an entry, plus 32 bytes per basis state for what forming them
        holds besides: the int32 index, one string's parities and its term.
        """
        _check_budget(
            f"{self.ansatz.value} drive at n={self.n} with {len(self.row_masks)} operator rows",
            self._claimed + (16 * len(self.row_masks) + 32) * (1 << self.n),
        )

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
        """Dense matrix of H(lam, lam_dot), real where ``operator_rows`` are."""
        return self.operator_dense(lam, self.operator_rows(self.coefficients(lam, lam_dot)))

    def operator_dense(self, diagonal: float, rows: np.ndarray) -> np.ndarray:
        """Dense matrix of diagonal E + sum_x diag(d_x) X^x, in the dtype of ``rows``.

        The matrix is charged to ``MEMORY_BUDGET`` before it is allocated.
        """
        dim = 1 << self.n
        _check_budget(f"dense matrix at n={self.n}", self._claimed + dim * dim * rows.itemsize)
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
    psi = plus_state(inst.n)
    hamiltonian = DrivenHamiltonian(inst, ansatz)
    _, lams, rates = np.array(sched.grid).T
    started = time.perf_counter()
    try:
        norms = hamiltonian.steps(psi, sched.dt, lams, rates).tolist()
    except SingularGaugeError as exc:
        raise SingularGaugeError(
            f"{exc} (aborted at grid step {exc.step}/{sched.steps})",
            site=exc.site,
            lam=exc.lam,
            value=exc.value,
            step=exc.step,
        ) from exc
    for step, norm in enumerate(norms, 1):
        if not math.isfinite(norm):
            raise IntegratorError(f"state norm {norm} after grid step {step}/{sched.steps}")
    wall = time.perf_counter() - started
    steps = sched.steps
    single, entangling = hamiltonian.single_count, hamiltonian.entangling_count
    return EvolutionReport(
        final_state=psi,
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
) -> np.ndarray:
    """Adaptive high-order integration of the exact time-dependent flow.

    Independent of the product formula: the Schroedinger equation with the
    continuously evaluated Hamiltonian is integrated without renormalization,
    so norm drift doubles as an accuracy diagnostic.  Intended for small n.
    """
    # Imported here: only validation and the tests integrate.
    from scipy.integrate import solve_ivp

    initial = plus_state(inst.n)
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
    return solution.y[:, -1].astype(np.complex128)


def success_probability(psi: np.ndarray, truth: GroundTruth) -> float:
    """Total probability on the (possibly degenerate) ground manifold."""
    total = 0.0
    for index in truth.states:
        if not 0 <= index < len(psi):
            raise DimensionMismatchError(
                f"ground state index {index} out of range for {len(psi)} amplitudes"
            )
        total += float(abs(psi[index]) ** 2)
    return total


def sample_shots(psi: np.ndarray, shots: int, seed: int) -> dict[int, int]:
    """Multinomial measurement emulation; deterministic given the seed."""
    if shots < 1 or seed < 0:
        raise ParameterError(f"need shots >= 1 and a seed >= 0, got {shots} shots, seed {seed}")
    probabilities = np.abs(psi) ** 2
    probabilities = probabilities / probabilities.sum()
    counts = np.random.default_rng(seed).multinomial(shots, probabilities)
    return {int(i): int(c) for i, c in enumerate(counts) if c}
