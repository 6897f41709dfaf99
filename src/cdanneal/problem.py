"""Random spin-glass instances, their Hamiltonian pieces, and the exact
classical ground-state oracle.

The classical energy convention is E(s) = sum_{i<j} J_ij s_i s_j + sum_i h_i s_i
over spins s in {+1, -1}, with basis bit b on a site mapping to s = 1 - 2b
(so Z|0> = +|0> carries s = +1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, ResourceCapError
from .pauli import PauliString, PauliSum

#: Largest qubit count for exhaustive enumeration and state-vector work.
STATEVECTOR_CAP = 20

#: Absolute tolerance for calling two classical energies degenerate.
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class ProblemInstance:
    """One spin-glass problem: all-to-all couplings, local fields, provenance.

    ``couplings`` holds (i, j, J_ij) with i < j, each pair at most once, in
    lexicographic order; ``fields`` has exactly n entries.  All values are
    finite.  Instances regenerate bit-exactly from (n, seed).
    """

    n: int
    couplings: tuple[tuple[int, int, float], ...]
    fields: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"qubit count must be >= 1, got {self.n}")
        if len(self.fields) != self.n:
            raise ParameterError(
                f"expected {self.n} fields, got {len(self.fields)}"
            )
        if not all(math.isfinite(h) for h in self.fields):
            raise ParameterError(f"fields must be finite, got {self.fields}")
        pairs = set()
        for i, j, value in self.couplings:
            if not (0 <= i < j < self.n):
                raise ParameterError(f"coupling ({i},{j}) must satisfy 0 <= i < j < n")
            if (i, j) in pairs:
                raise ParameterError(f"coupling ({i},{j}) is given more than once")
            if not math.isfinite(value):
                raise ParameterError(f"coupling ({i},{j}) must be finite, got {value}")
            pairs.add((i, j))

    def coupling_matrix(self) -> np.ndarray:
        """Symmetric (n, n) coupling array with zero diagonal."""
        mat = np.zeros((self.n, self.n))
        for i, j, value in self.couplings:
            mat[i, j] = mat[j, i] = value
        return mat

    def field_array(self) -> np.ndarray:
        return np.asarray(self.fields, dtype=np.float64)


@dataclass(frozen=True)
class GroundTruth:
    """Minimum classical energy and every basis index attaining it."""

    energy: float
    states: tuple[int, ...]
    degenerate: bool


def generate_instance(n: int, seed: int) -> ProblemInstance:
    """Draw couplings and fields i.i.d. from the standard normal.

    Deterministic given (n, seed): couplings are drawn first in
    lexicographic (i, j) order, then the fields in site order, from a PCG64
    stream keyed by the seed.
    """
    if n < 1:
        raise ParameterError(f"qubit count must be >= 1, got {n}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    couplings = tuple(
        (i, j, float(rng.standard_normal()))
        for i in range(n)
        for j in range(i + 1, n)
    )
    fields = tuple(float(rng.standard_normal()) for _ in range(n))
    return ProblemInstance(n, couplings, fields, seed)


def instance_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit per-instance seed derived from (master seed, index)."""
    if master_seed < 0 or index < 0:
        raise ParameterError(f"seed and index must be >= 0, got {master_seed}, {index}")
    ss = np.random.SeedSequence((int(master_seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def save_instance(inst: ProblemInstance, path: str | Path) -> None:
    payload = {
        "n": inst.n,
        "seed": inst.seed,
        "h": list(inst.fields),
        "J": [[i, j, value] for i, j, value in inst.couplings],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {value!r}")
    return float(value)


def load_instance(path: str | Path) -> ProblemInstance:
    """Read the instance JSON format; unknown fields and mistyped values are rejected."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(payload, dict):
        raise ParameterError(f"{path}: expected a JSON object")
    unknown = set(payload) - {"n", "seed", "h", "J"}
    if unknown:
        raise ParameterError(f"{path}: unknown fields {sorted(unknown)}")
    try:
        couplings = tuple((_integer(i), _integer(j), _number(v)) for i, j, v in payload["J"])
        return ProblemInstance(
            n=_integer(payload["n"]),
            couplings=couplings,
            fields=tuple(_number(v) for v in payload["h"]),
            seed=_integer(payload["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"{path}: malformed instance file ({exc})")


def problem_hamiltonian(inst: ProblemInstance) -> PauliSum:
    """sum_{i<j} J_ij Z_i Z_j + sum_i h_i Z_i; diagonal by construction."""
    terms: dict[PauliString, complex] = {}
    for i, j, value in inst.couplings:
        string = PauliString(inst.n, 0, (1 << i) | (1 << j))
        terms[string] = value
    for i, value in enumerate(inst.fields):
        terms[PauliString(inst.n, 0, 1 << i)] = value
    return PauliSum(inst.n, terms)


def mixer_hamiltonian(n: int) -> PauliSum:
    """-sum_i X_i; its ground state is the uniform superposition."""
    if n < 1:
        raise ParameterError(f"qubit count must be >= 1, got {n}")
    return PauliSum(n, {PauliString(n, 1 << i, 0): -1.0 for i in range(n)})


@np.errstate(over="ignore")  # callers check the energies
def classical_energies(inst: ProblemInstance) -> np.ndarray:
    """E(s) for every basis index, vectorized over all 2**n configurations."""
    dim = 1 << inst.n
    idx = np.arange(dim, dtype=np.uint64)
    spins = [
        1.0 - 2.0 * ((idx >> np.uint64(i)) & np.uint64(1)).astype(np.float64)
        for i in range(inst.n)
    ]
    energy = np.zeros(dim)
    for i, value in enumerate(inst.fields):
        if value != 0.0:
            energy += value * spins[i]
    for i, j, value in inst.couplings:
        if value != 0.0:
            energy += value * spins[i] * spins[j]
    return energy


def ground_state(inst: ProblemInstance) -> GroundTruth:
    """Exhaustive minimum of the classical energy over all configurations.

    Returns every basis index within ``DEGENERACY_TOL`` of the minimum;
    with continuous couplings ties are measure-zero, so ``degenerate`` flags
    the rare floating-point near-ties rather than a generic expectation.
    """
    if inst.n > STATEVECTOR_CAP:
        raise ResourceCapError(f"enumeration for n={inst.n} exceeds cap {STATEVECTOR_CAP}")
    energy = classical_energies(inst)
    minimum = float(energy.min())
    states = tuple(int(s) for s in np.flatnonzero(energy <= minimum + DEGENERACY_TOL))
    return GroundTruth(minimum, states, len(states) > 1)
