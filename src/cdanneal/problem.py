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
from functools import cached_property
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
    finite, and the seed is >= 0, as ``generate_instance`` requires.
    Instances regenerate bit-exactly from (n, seed).  Beside ``energies``,
    an instance keeps the phase table of the last whole grid a drive
    stepped on it (see ``DrivenHamiltonian.steps``).
    """

    n: int
    couplings: tuple[tuple[int, int, float], ...]
    fields: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"qubit count must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if len(self.fields) != self.n:
            raise ParameterError(
                f"expected {self.n} fields, got {len(self.fields)}"
            )
        if not all(math.isfinite(h) for h in self.fields):
            raise ParameterError(f"fields must be finite, got {self.fields}")
        previous = None
        for i, j, value in self.couplings:
            if not (0 <= i < j < self.n):
                raise ParameterError(f"coupling ({i},{j}) must satisfy 0 <= i < j < n")
            if previous is not None and (i, j) <= previous:
                raise ParameterError(
                    f"coupling ({i},{j}) must come after ({previous[0]},{previous[1]}): "
                    "couplings are listed once each, in lexicographic order"
                )
            if not math.isfinite(value):
                raise ParameterError(f"coupling ({i},{j}) must be finite, got {value}")
            previous = (i, j)

    def coupling_matrix(self) -> np.ndarray:
        """Symmetric (n, n) coupling array with zero diagonal."""
        mat = np.zeros((self.n, self.n))
        for i, j, value in self.couplings:
            mat[i, j] = mat[j, i] = value
        return mat

    def field_array(self) -> np.ndarray:
        return np.asarray(self.fields, dtype=np.float64)

    @cached_property
    @np.errstate(over="ignore")  # readers check the energies
    def energies(self) -> np.ndarray:
        """E(s) for every basis index, formed on first read and shared; read-only.

        The spins are int8: a product with +-1 is exact in any order, so E is
        the float64 sum it would be with float spins, at a byte per spin.
        """
        dim = 1 << self.n
        idx = np.arange(dim, dtype=np.uint64)
        spins = [
            1 - 2 * ((idx >> np.uint64(i)) & np.uint64(1)).astype(np.int8)
            for i in range(self.n)
        ]
        energy = np.zeros(dim)
        for i, value in enumerate(self.fields):
            if value != 0.0:
                energy += value * spins[i]
        for i, j, value in self.couplings:
            if value != 0.0:
                energy += value * (spins[i] * spins[j])
        energy.flags.writeable = False
        return energy


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


def read_text(path: str | Path) -> str:
    """A file's text; bytes that do not decode are refused, naming the file."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not a text file ({exc.reason} at byte {exc.start})")


def read_json_object(path: str | Path) -> dict:
    """The JSON object in a file; invalid JSON, named by line, or any other value is refused."""
    text = read_text(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except (RecursionError, ValueError) as exc:  # nested too deeply, an integer too long
        raise ParameterError(f"{path}: invalid JSON ({exc})")
    if not isinstance(payload, dict):
        raise ParameterError(f"{path}: expected a JSON object")
    return payload


def load_instance(path: str | Path) -> ProblemInstance:
    """Read the instance JSON format; unknown fields and mistyped values are rejected."""
    payload = read_json_object(path)
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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


def ground_state(inst: ProblemInstance) -> GroundTruth:
    """Exhaustive minimum of the classical energy over all configurations.

    Returns every basis index within ``DEGENERACY_TOL`` of the minimum;
    with continuous couplings ties are measure-zero, so ``degenerate`` flags
    the rare floating-point near-ties rather than a generic expectation.
    """
    if inst.n > STATEVECTOR_CAP:
        raise ResourceCapError(f"enumeration for n={inst.n} exceeds cap {STATEVECTOR_CAP}")
    minimum = float(inst.energies.min())
    states = tuple(int(s) for s in np.flatnonzero(inst.energies <= minimum + DEGENERACY_TOL))
    return GroundTruth(minimum, states, len(states) > 1)
