"""Sparse algebra over tensor products of single-qubit Pauli operators.

Strings are stored in a symplectic bit-mask encoding: an operator word over
{I, X, Y, Z} on n qubits is a pair of n-bit masks (x_mask, z_mask) where bit i
of x_mask is set when qubit i carries X or Y, and bit i of z_mask is set when
qubit i carries Z or Y.  The represented operator is the literal tensor
product of the named 2x2 matrices, so every string is Hermitian and squares
to the identity.  Products and commutators reduce to XOR plus popcount
arithmetic on the masks and a power-of-i phase, independent of qubit count.

A ``PauliSum`` is a pruned map from strings to complex coefficients and is
immutable after construction; it backs every Hamiltonian and gauge operator
in the package.

Basis convention: computational-basis index bit i corresponds to qubit i, so
qubit 0 is the least-significant bit of a state index (word labels still
print qubit 0 leftmost).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DimensionMismatchError, ParameterError, ResourceCapError

# i**e lookup for phase exponents mod 4.
_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

#: Coefficients below this magnitude are dropped after every algebraic step.
PRUNE_TOLERANCE = 1e-12

#: Largest qubit count for which dense 2^n x 2^n matrices are built: 256 MiB at
#: 12, leaving room in ``simulator.MEMORY_BUDGET`` for ``is_stoquastic``'s copy.
DENSE_CAP = 12

_AXIS_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_AXIS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


@dataclass(frozen=True)
class PauliString:
    """One n-qubit Pauli word in symplectic (x_mask, z_mask) encoding."""

    n: int
    x_mask: int = 0
    z_mask: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"qubit count must be >= 1, got {self.n}")
        full = (1 << self.n) - 1
        if not 0 <= self.x_mask <= full or not 0 <= self.z_mask <= full:
            raise ParameterError(
                f"masks must use only the low {self.n} bits, got "
                f"x={self.x_mask:#x} z={self.z_mask:#x}"
            )

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def single(cls, n: int, site: int, axis: str) -> "PauliString":
        """The word with ``axis`` on ``site`` and identity elsewhere."""
        if not 0 <= site < n:
            raise ParameterError(f"site {site} out of range for n={n}")
        x, z = _AXIS_TO_BITS[axis.upper()]
        return cls(n, x << site, z << site)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a word like ``"XIZY"``; the leftmost character is qubit 0."""
        x = z = 0
        for site, char in enumerate(label):
            try:
                xb, zb = _AXIS_TO_BITS[char.upper()]
            except KeyError:
                raise ParameterError(f"invalid Pauli letter {char!r} in {label!r}")
            x |= xb << site
            z |= zb << site
        return cls(len(label), x, z)

    def label(self) -> str:
        """Render as a word over {I,X,Y,Z}, qubit 0 leftmost."""
        return "".join(
            _BITS_TO_AXIS[(self.x_mask >> i) & 1, (self.z_mask >> i) & 1]
            for i in range(self.n)
        )

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def y_count(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    @property
    def is_diagonal(self) -> bool:
        """True when the word is diagonal in the computational basis."""
        return self.x_mask == 0

    def commutes_with(self, other: "PauliString") -> bool:
        _check_dims(self.n, other.n)
        overlap = (self.x_mask & other.z_mask).bit_count() + (
            self.z_mask & other.x_mask
        ).bit_count()
        return overlap % 2 == 0

    def __repr__(self) -> str:
        return f"PauliString({self.label()!r})"


def multiply(a: PauliString, b: PauliString) -> tuple[PauliString, complex]:
    """Product of two words: ``matrix(a) @ matrix(b) == phase * matrix(result)``.

    The phase is one of {+1, -1, +i, -i}.  Writing each word as
    i**y_count * X^x Z^z, the product collects an i per Y factor consumed or
    created and a -1 per Z-past-X swap, which reduces to four popcounts.
    """
    _check_dims(a.n, b.n)
    cx = a.x_mask ^ b.x_mask
    cz = a.z_mask ^ b.z_mask
    exponent = (
        (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        - (cx & cz).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
    )
    return PauliString(a.n, cx, cz), _PHASES[exponent % 4]


def string_amplitudes(string: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Basis action of a word: ``P|b> = amps[b] |b ^ x_mask>``.

    Returns the index permutation (``b ^ x_mask`` for every basis index) and
    the per-index amplitudes i**y_count * (-1)**popcount(z_mask & b).  Both
    arrays have length 2**n; the permutation is an involution.
    """
    dim = 1 << string.n
    idx = np.arange(dim, dtype=np.uint64)
    parity = np.bitwise_count(idx & np.uint64(string.z_mask)) & np.uint64(1)
    amps = (_PHASES[string.y_count % 4]) * (1.0 - 2.0 * parity.astype(np.float64))
    perm = (idx ^ np.uint64(string.x_mask)).astype(np.intp)
    return perm, amps


class PauliSum:
    """Immutable complex-weighted sum of Pauli strings on a fixed qubit count.

    Coefficients with magnitude at most ``PRUNE_TOLERANCE`` are dropped at
    construction, so algebraic results stay sparse.  Because every stored
    string is itself Hermitian, the sum is Hermitian exactly when all
    coefficients are real.
    """

    __slots__ = ("n", "_terms")

    def __init__(
        self,
        n: int,
        terms: Mapping[PauliString, complex] | Iterable[tuple[PauliString, complex]] = (),
    ):
        if n < 1:
            raise ParameterError(f"qubit count must be >= 1, got {n}")
        acc: dict[PauliString, complex] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for string, coeff in items:
            _check_dims(n, string.n)
            acc[string] = acc.get(string, 0.0) + complex(coeff)
        self.n = n
        self._terms = {s: c for s, c in acc.items() if abs(c) > PRUNE_TOLERANCE}

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n)

    @classmethod
    def from_labels(cls, terms: Mapping[str, complex]) -> "PauliSum":
        """Build from ``{"XZ": coeff, ...}``; all labels must share a length."""
        if not terms:
            raise ParameterError("cannot infer the qubit count from an empty mapping")
        strings = {PauliString.from_label(lbl): c for lbl, c in terms.items()}
        lengths = {s.n for s in strings}
        if len(lengths) > 1:
            raise DimensionMismatchError(f"mixed label lengths {sorted(lengths)}")
        return cls(lengths.pop(), strings)

    @property
    def terms(self) -> Mapping[PauliString, complex]:
        """Read-only view of the stored string -> coefficient map."""
        return MappingProxyType(self._terms)

    def coefficient(self, string: PauliString) -> complex:
        return self._terms.get(string, 0.0)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[PauliString, complex]]:
        return iter(self._terms.items())

    def __add__(self, other: "PauliSum") -> "PauliSum":
        _check_dims(self.n, other.n)
        acc = dict(self._terms)
        for s, c in other._terms.items():
            acc[s] = acc.get(s, 0.0) + c
        return PauliSum(self.n, acc)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            return self._product(other)
        return PauliSum(self.n, {s: c * other for s, c in self._terms.items()})

    def __rmul__(self, scalar) -> "PauliSum":
        return self.__mul__(scalar)

    def _product(self, other: "PauliSum") -> "PauliSum":
        _check_dims(self.n, other.n)
        acc: dict[PauliString, complex] = {}
        for sa, ca in self._terms.items():
            for sb, cb in other._terms.items():
                s, phase = multiply(sa, sb)
                acc[s] = acc.get(s, 0.0) + ca * cb * phase
        return PauliSum(self.n, acc)

    def is_hermitian(self) -> bool:
        return all(abs(c.imag) <= 1e-10 for c in self._terms.values())

    def approx_eq(self, other: "PauliSum") -> bool:
        _check_dims(self.n, other.n)
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= 1e-10
            for k in keys
        )

    def __repr__(self) -> str:
        return f"PauliSum(n={self.n}, terms={len(self._terms)})"


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """[a, b] = ab - ba, exploiting that string pairs either commute or anticommute.

    Commuting pairs contribute nothing; anticommuting pairs contribute twice
    their product, so only one product per surviving pair is evaluated.
    """
    _check_dims(a.n, b.n)
    acc: dict[PauliString, complex] = {}
    for sa, ca in a.terms.items():
        for sb, cb in b.terms.items():
            if sa.commutes_with(sb):
                continue
            s, phase = multiply(sa, sb)
            acc[s] = acc.get(s, 0.0) + 2.0 * ca * cb * phase
    return PauliSum(a.n, acc)


def trace_inner(a: PauliSum, b: PauliSum) -> complex:
    """Normalized Hilbert-Schmidt product Tr[a^dagger b] / 2**n.

    Pauli words are orthonormal under this product, so it collapses to a sum
    of conjugated coefficient products over shared strings.
    """
    _check_dims(a.n, b.n)
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    total = 0.0 + 0.0j
    for s, c_small in small.terms.items():
        c_large = large.terms.get(s)
        if c_large is None:
            continue
        if small is a:
            total += c_small.conjugate() * c_large
        else:
            total += c_large.conjugate() * c_small
    return total


def to_dense(a: PauliSum) -> np.ndarray:
    """Dense 2**n x 2**n matrix of the operator; guarded by ``DENSE_CAP``."""
    if a.n > DENSE_CAP:
        raise ResourceCapError(f"dense matrix for n={a.n} exceeds cap {DENSE_CAP}")
    dim = 1 << a.n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    idx = np.arange(dim)
    for string, coeff in a.terms.items():
        perm, amps = string_amplitudes(string)
        # Column b has its single nonzero entry at row b ^ x_mask; the index
        # pairs are unique within one string, so plain += is safe.
        mat[perm, idx] += coeff * amps
    return mat


def is_stoquastic(a: PauliSum) -> bool:
    """True when all computational-basis off-diagonals are real and <= +1e-9.

    Requires a Hermitian input and small n (the check is dense).
    """
    if not a.is_hermitian():
        raise ParameterError("stoquasticity is only defined for Hermitian operators")
    mat = to_dense(a)
    off = mat[~np.eye(mat.shape[0], dtype=bool)]
    return bool(np.all(np.abs(off.imag) <= 1e-9) and np.all(off.real <= 1e-9))


def _check_dims(n_a: int, n_b: int) -> None:
    if n_a != n_b:
        raise DimensionMismatchError(f"qubit counts differ: {n_a} != {n_b}")
