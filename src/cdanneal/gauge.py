"""Counterdiabatic driving operators for the interpolated spin-glass problem.

Three constructions are provided on top of the same driven Hamiltonian
``H(lam) = (1-lam) * mixer + lam * problem``:

* a closed-form single-site Y family whose per-site coefficients solve the
  quadratic action minimization exactly (the normal equations decouple site
  by site),
* the first-order nested-commutator family, a single global coefficient on
  the fixed operator i[H, dH] (``nc1_operator``), again in closed form,
* a general 2-local variational family spanning {Y_i}, symmetrized {Z_i Y_j},
  and symmetrized {X_i Y_j}, solved by least squares.

The action being minimized is S = Tr[G^2] / 2^n with
G = dH + i[A, H]; it is quadratic in the ansatz coefficients, so the solver
reduces to a small symmetric linear system.  Every family produces operators
whose strings carry an odd number of Y factors, hence purely imaginary
off-diagonals: the driving is deliberately non-stoquastic.

``CompiledGauge`` compiles a drive once per instance: its strings, the
instance sums of the closed forms, and for the 2-local family the Gram
matrix and source vector of the action as polynomials of degree two in lam,
so each coefficient evaluation is one small linear solve, certified by a
Cholesky factorization to need no truncation (``_solve_certified``).
``cd_coefficients`` evaluates a drive at one point or at a whole grid of
points at once.  ``minimize_action`` stays the general PauliSum solver, with
its eigendecomposition, that the compiled solve is checked against, and
``assemble_hamiltonian`` the PauliSum driven Hamiltonian that the compiled
operator is checked against.  Both solvers return a ``GaugeSolution`` whose
coefficients are a float64 array in basis order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, SingularGaugeError
from .pauli import PRUNE_TOLERANCE, PauliString, PauliSum, commutator, trace_inner
from .problem import ProblemInstance, mixer_hamiltonian, problem_hamiltonian

#: Denominators with magnitude below this raise ``SingularGaugeError``.
SINGULAR_FLOOR = 1e-10

#: Relative condition threshold that switches the solver to a pseudo-inverse.
CONDITION_THRESHOLD = 1e12

#: A compiled 2-local Gram matrix skips the eigendecomposition when one
#: Cholesky factorization certifies its smallest eigenvalue to be at least
#: this fraction of its mean eigenvalue (see ``_solve_certified``).
CERTIFIED_FRACTION = 1e-3


class Ansatz(str, Enum):
    """Counterdiabatic family selector."""

    NONE = "none"
    LOCAL_Y = "local-y"
    NC1 = "nc1"
    TWO_LOCAL = "two-local"

    @classmethod
    def parse(cls, tag: str) -> "Ansatz":
        try:
            return cls(tag)
        except ValueError:
            valid = ", ".join(a.value for a in cls)
            raise ParameterError(f"unknown ansatz {tag!r}; valid tags: {valid}")


@dataclass(frozen=True, eq=False)
class GaugeSolution:
    """Variational coefficients, one per basis element in basis order, plus
    the residual action they achieve."""

    coefficients: np.ndarray
    residual_action: float
    condition_warning: bool = False


def adiabatic_pair(inst: ProblemInstance, lam: float) -> tuple[PauliSum, PauliSum]:
    """The driven Hamiltonian at ``lam`` (no CD) and its lam derivative."""
    problem = problem_hamiltonian(inst)
    mixer = mixer_hamiltonian(inst.n)
    return (1.0 - lam) * mixer + lam * problem, problem - mixer


def local_y_coefficients(inst: ProblemInstance, lam: float) -> np.ndarray:
    """Closed-form per-site coefficients of the single-site Y family.

    beta_i = h_i / (2 [ (lam-1)^2 + lam^2 (h_i^2 + sum_{j != i} J_ij^2) ]).
    The joint least-squares problem over {Y_i} has a diagonal normal matrix,
    so this site-wise form is the exact joint minimizer.
    """
    return _local_y(inst.field_array(), _local_y_weights(inst), np.arange(inst.n), lam)


def _local_y_weights(inst: ProblemInstance) -> np.ndarray:
    """h_i^2 + sum_{j != i} J_ij^2 per site: the lam^2 part of the denominator."""
    return inst.field_array() ** 2 + (inst.coupling_matrix() ** 2).sum(axis=1)


def _local_y(
    fields: np.ndarray, weights: np.ndarray, sites: np.ndarray, lam: float
) -> np.ndarray:
    denominator = 2.0 * ((lam - 1.0) ** 2 + lam**2 * weights)
    small = np.flatnonzero(np.abs(denominator) < SINGULAR_FLOOR)
    if small.size:
        site = int(sites[small[0]])
        value = float(denominator[small[0]])
        raise SingularGaugeError(
            f"single-site Y denominator {value:.3e} below floor "
            f"{SINGULAR_FLOOR:.0e} at site {site}, lam={lam}",
            site=site,
            lam=lam,
            value=value,
        )
    return fields / denominator


def nc1_coefficient(gauge: ProblemInstance | CompiledGauge, lam: float) -> float:
    """Closed-form global coefficient of the first-order nested-commutator family.

    alpha_1 = -(1/4) [sum h_i^2 + 2 sum_{i<j} J_ij^2] / R(lam) with

    R = (1 - 2 lam) [sum h_i^2 + 8 sum J_ij^2]
        + lam^2 [sum h_i^2 + sum h_i^4 + 8 sum J_ij^2 + 2 sum J_ij^4
                 + 6 sum_{i != j} h_i^2 J_ij^2 + 6 C],

    where C sums J_ij^2 J_kl^2 over unordered pairs of distinct couplings
    sharing exactly one site (equivalently sum_a sum_{b<c, b,c != a}
    J_ab^2 J_ac^2).  This reading of the shared-index constraint is the one
    that reproduces the variational normal equations; ``minimize_action`` on
    the single nested-commutator basis operator is the authoritative oracle
    and the validation suite checks the two against each other.  ``gauge``
    may be an nc1 ``CompiledGauge``, whose stored sums are then read.
    """
    sums = gauge.nc1_sums if isinstance(gauge, CompiledGauge) else _nc1_sums(gauge)
    return _nc1_alpha(sums, lam)


@np.errstate(over="ignore", invalid="ignore")  # callers check the coefficients
def _nc1_sums(inst: ProblemInstance) -> tuple[float, float, float]:
    """The instance sums of the nc1 closed form: numerator, quadratic, quartic."""
    h = inst.field_array()
    jmat = inst.coupling_matrix()
    j2 = jmat**2
    sum_h2 = float((h**2).sum())
    sum_h4 = float((h**4).sum())
    sum_j2 = float(j2.sum()) / 2.0
    sum_j4 = float((j2**2).sum()) / 2.0
    cross_hj = float((h**2 @ j2.sum(axis=1)))
    row_j2 = j2.sum(axis=1)
    shared_site = float(((row_j2**2 - (j2**2).sum(axis=1)).sum()) / 2.0)

    quadratic = sum_h2 + 8.0 * sum_j2
    quartic = (
        sum_h2
        + sum_h4
        + 8.0 * sum_j2
        + 2.0 * sum_j4
        + 6.0 * cross_hj
        + 6.0 * shared_site
    )
    return sum_h2 + 2.0 * sum_j2, quadratic, quartic


def _nc1_alpha(sums: tuple[float, float, float], lam: float) -> float:
    numerator, quadratic, quartic = sums
    denominator = (1.0 - 2.0 * lam) * quadratic + lam**2 * quartic
    if abs(denominator) < SINGULAR_FLOOR:
        raise SingularGaugeError(
            f"nested-commutator denominator {denominator:.3e} below floor "
            f"{SINGULAR_FLOOR:.0e} at lam={lam}",
            lam=lam,
            value=float(denominator),
        )
    return -0.25 * numerator / denominator


def nc1_operator(H: PauliSum, dH: PauliSum) -> PauliSum:
    """The first-order nested-commutator basis operator i[H, dH].

    It is Hermitian, and every string carries an odd number of Y factors
    because H and dH are real.
    """
    if not H.is_hermitian() or not dH.is_hermitian():
        raise ParameterError("nested-commutator generation requires Hermitian inputs")
    return 1j * commutator(H, dH)


def minimize_action(basis: list[PauliSum], H: PauliSum, dH: PauliSum) -> GaugeSolution:
    """Least-squares coefficients minimizing S = Tr[(dH + i[A, H])^2] / 2^n.

    With A = sum_b c_b B_b and L_b = i[B_b, H], the action is quadratic in c,
    so the minimizer solves M c = -v with M_bb' = <L_b, L_b'> and
    v_b = <dH, L_b>.  A symmetric eigendecomposition handles the solve;
    eigenvalues below max(eig)/CONDITION_THRESHOLD are truncated (pseudo-inverse
    path) and flagged via ``condition_warning``, and a direction whose
    projected source is at rounding level gets coefficient 0.
    """
    if not basis:
        raise ParameterError("variational basis must be non-empty")
    for op in basis:
        if not op.is_hermitian():
            raise ParameterError("variational basis operators must be Hermitian")

    images = [1j * commutator(op, H) for op in basis]
    size = len(basis)
    gram = np.empty((size, size))
    for a in range(size):
        for b in range(a, size):
            value = trace_inner(images[a], images[b]).real
            gram[a, b] = gram[b, a] = value
    source = np.array([trace_inner(dH, img).real for img in images])

    coefficients, condition_warning = _solve_normal(gram, source)

    residual_op = dH
    for c, img in zip(coefficients, images):
        residual_op = residual_op + float(c) * img
    residual = max(0.0, trace_inner(residual_op, residual_op).real)

    return GaugeSolution(coefficients, residual, condition_warning)


def two_local_basis(n: int) -> list[PauliSum]:
    """Symmetrized 2-local basis: {Y_i}, {Z_i Y_j + Z_j Y_i}, {X_i Y_j + X_j Y_i}."""
    _check_two_local(n)
    basis = [PauliSum(n, {PauliString.single(n, i, "Y"): 1.0}) for i in range(n)]
    for first, second in (("Y", "Z"), ("X", "Y")):
        for i in range(n):
            for j in range(i + 1, n):
                pair = (_two_site(n, i, first, j, second), _two_site(n, i, second, j, first))
                basis.append(PauliSum(n, dict.fromkeys(pair, 1.0)))
    return basis


def _check_two_local(n: int) -> None:
    if n < 2:
        raise ParameterError(f"the 2-local family needs n >= 2, got {n}")


def _solve_normal(gram: np.ndarray, source: np.ndarray) -> tuple[np.ndarray, bool]:
    """Minimizer of c^T gram c + 2 c^T source, truncated as a pseudo-inverse.

    The reference solve: ``minimize_action`` always takes it, and the compiled
    2-local solve only for a Gram matrix that ``_solve_certified`` cannot
    certify.  Eigenvalues of the symmetric ``gram`` below
    max(eig)/CONDITION_THRESHOLD are dropped; the flag reports whether any
    were.  A kept direction whose projected source is within rounding of
    zero (size * eps * |source|) gets coefficient 0: its source is noise,
    which a small eigenvalue would otherwise amplify into a coefficient that
    depends on how the Gram matrix and source were summed.  Dropping it
    changes the action by O(eps^2).
    """
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    top = float(eigenvalues.max(initial=0.0))
    cutoff = top / CONDITION_THRESHOLD if top > 0.0 else 0.0
    keep = eigenvalues > cutoff
    projected = eigenvectors.T @ (-source)
    noise = len(source) * np.finfo(float).eps * float(np.linalg.norm(source))
    resolved = keep & (np.abs(projected) > noise)
    scaled = np.where(resolved, projected / np.where(resolved, eigenvalues, 1.0), 0.0)
    return eigenvectors @ scaled, bool((~keep).any())


def _solve_certified(
    grams: np.ndarray, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_solve_normal`` for a stack of Gram matrices, without eigendecompositions.

    A Gram matrix whose shifted copy gram - shift I, shift = CERTIFIED_FRACTION
    * trace / size, has a Cholesky factor has every eigenvalue at or above
    ``shift``: far above the truncation cutoff, and so far above zero that
    the rounding-level sources ``_solve_normal`` drops would move a
    coefficient by at most size * eps * |source| / shift.  Such a matrix is
    solved directly, unflagged.  Any other, such as a zero Gram matrix or one
    with a symmetry-forbidden direction, takes ``_solve_normal`` itself.
    Returns the (points, size) coefficients and the per-point flags.
    """
    coefficients = np.empty_like(sources)
    flags = np.zeros(len(grams), dtype=bool)
    certified = _certified(grams)
    if certified.any():
        coefficients[certified] = np.linalg.solve(
            grams[certified], -sources[certified, :, None]
        )[..., 0]
    for k in np.flatnonzero(~certified):
        coefficients[k], flags[k] = _solve_normal(grams[k], sources[k])
    return coefficients, flags


def _certified(grams: np.ndarray) -> np.ndarray:
    """Per stacked Gram matrix, whether its shifted copy has a Cholesky factor.

    The whole stack is factored at once; only a stack that fails is taken
    apart, to find the matrices that fail.
    """
    size = grams.shape[-1]
    shift = np.trace(grams, axis1=1, axis2=2) * (CERTIFIED_FRACTION / size)
    try:
        np.linalg.cholesky(grams - shift[:, None, None] * np.eye(size))
    except np.linalg.LinAlgError:
        if len(grams) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_certified(gram[None]) for gram in grams])
    return np.ones(len(grams), dtype=bool)


class CompiledGauge:
    """The CD drive of one instance, compiled once per (instance, drive).

    Holds the drive's strings (``terms``, in ``cd_terms`` order) and every
    part of its coefficient solve that does not depend on lam:

    * local-y: the fields and the lam^2 denominator weights of the sites
      that carry a Y term (h_i != 0); no other site is ever divided for;
    * nc1: the three instance sums of the closed form and each string's
      source value (h_i for Y_i, J_ij for both strings of a coupling);
    * two-local: the action as a quadratic in lam.  With H = (1-lam) H_x +
      lam H_p the images i[B_b, H] are (1-lam) i[B_b, H_x] + lam i[B_b, H_p],
      so the Gram matrix is (1-lam)^2 G_xx + lam (1-lam) G_xp + lam^2 G_pp,
      the source vector is (1-lam) v_x + lam v_p, and the action at the
      minimizer needs only ||dH||^2 besides.  Each lam then costs one
      Cholesky factorization and one small linear solve, and the points of
      a grid are stacked into one call of each (``_solve_certified``).

    ``string_basis`` maps each two-local string to its basis element: the
    symmetrized ZY and XY elements own two strings each.
    """

    def __init__(self, inst: ProblemInstance, ansatz: Ansatz):
        self.inst = inst
        self.ansatz = ansatz
        self.terms = cd_terms(inst, ansatz)
        if ansatz is Ansatz.LOCAL_Y:
            self.sites = np.flatnonzero(inst.field_array())
            self.fields = inst.field_array()[self.sites]
            self.weights = _local_y_weights(inst)[self.sites]
        elif ansatz is Ansatz.NC1:
            self.nc1_sums = _nc1_sums(inst)
            pairs = [value for _, _, value in inst.couplings if value != 0.0]
            self.sources = np.array(
                [h for h in inst.fields if h != 0.0] + list(np.repeat(pairs, 2))
            )
        elif ansatz is Ansatz.TWO_LOCAL:
            self._compile_two_local()

    def _compile_two_local(self) -> None:
        n = self.inst.n
        _check_two_local(n)
        # n Y elements, then n(n-1)/2 ZY and n(n-1)/2 XY elements.
        size = n * n
        self.string_basis = np.concatenate(
            [np.arange(n), np.repeat(np.arange(n, size), 2)]
        )
        # H_x = -sum X_i and H_p (couplings, then fields) as (x, z, coefficient)
        # arrays in PauliSum order, pruned as PauliSum prunes.
        inst, zeros = self.inst, np.zeros(n, dtype=np.int64)
        mixer = (1 << np.arange(n, dtype=np.int64), zeros, np.full(n, -1.0))
        z_p = np.array(
            [(1 << i) | (1 << j) for i, j, _ in inst.couplings] + [1 << i for i in range(n)],
            dtype=np.int64,
        )
        c_p = np.array([value for *_, value in inst.couplings] + list(inst.fields))
        kept = np.abs(c_p) > PRUNE_TOLERANCE
        problem = (np.zeros(kept.sum(), dtype=np.int64), z_p[kept], c_p[kept])
        self.problem_scale = float(np.abs(problem[2]).max(initial=0.0))
        d_h = (
            np.concatenate([problem[0], mixer[0]]),
            np.concatenate([problem[1], zeros]),
            np.concatenate([problem[2], np.ones(n)]),
        )
        # Row 0 is dH = H_p - H_x, rows 1..B the images i[B_b, H_x] and rows
        # B+1..2B the images i[B_b, H_p], entries in the order in which the
        # PauliSum commutators visit them.
        x_b = np.array([s.x_mask for s in self.terms], dtype=np.int64)
        z_b = np.array([s.z_mask for s in self.terms], dtype=np.int64)
        parts = (
            (np.zeros(len(d_h[0]), dtype=np.int64), *d_h),
            _image_entries(x_b, z_b, 1 + self.string_basis, *mixer),
            _image_entries(x_b, z_b, 1 + size + self.string_basis, *problem),
        )
        table = _string_table(n, 1 + 2 * size, *(np.concatenate(c) for c in zip(*parts)))
        source, image_x, image_p = table[0], table[1 : 1 + size], table[1 + size :]
        self.gram_xx = image_x @ image_x.T
        cross = image_x @ image_p.T
        self.gram_xp = cross + cross.T
        self.gram_pp = image_p @ image_p.T
        self.source_x = image_x @ source
        self.source_p = image_p @ source
        self.norm_dh = float(source @ source)

    def normal_equations(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """Gram matrix and source vector of the two-local action at ``lam``.

        ``lam`` is a scalar, or a 1-D array of points that becomes the
        leading axis of both results.  H = (1-lam) H_x + lam H_p as
        ``adiabatic_pair`` builds it: a part whose every coefficient is at or
        below ``PRUNE_TOLERANCE`` is the zero operator, as ``PauliSum``
        prunes it.  So within 1e-12 of lam = 1 on an instance without fields
        or couplings, H is zero and the solve takes the pseudo-inverse path,
        as ``minimize_action`` does.
        """
        if self.ansatz is not Ansatz.TWO_LOCAL:
            raise ParameterError(f"gauge compiled for {self.ansatz.value}, not two-local")
        lam = np.asarray(lam, dtype=float)
        mix = np.where(np.abs(1.0 - lam) > PRUNE_TOLERANCE, 1.0 - lam, 0.0)[..., None]
        lam = np.where(np.abs(lam) * self.problem_scale > PRUNE_TOLERANCE, lam, 0.0)[..., None]
        gram = (
            (mix**2)[..., None] * self.gram_xx
            + (lam * mix)[..., None] * self.gram_xp
            + (lam**2)[..., None] * self.gram_pp
        )
        return gram, mix * self.source_x + lam * self.source_p

    @property
    def point_bytes(self) -> int:
        """Bytes one point of a stacked two-local solve holds at its peak (0 otherwise).

        Three Gram-sized arrays: the sum being formed and two of its terms,
        or the Gram matrix, its shifted copy and the Cholesky factor.
        """
        return 3 * self.gram_xx.nbytes if self.ansatz is Ansatz.TWO_LOCAL else 0

    def solve_two_local(self, lam: float) -> GaugeSolution:
        """The two-local action minimizer at ``lam``, as ``minimize_action`` gives it."""
        gram, source = self.normal_equations(lam)
        (coefficients,), (warning,) = _solve_certified(gram[None], source[None])
        residual = self.norm_dh + 2.0 * coefficients @ source + coefficients @ gram @ coefficients
        return GaugeSolution(coefficients, max(0.0, float(residual)), bool(warning))


def _image_entries(x_b, z_b, rows, x_h, z_h, c_h) -> tuple[np.ndarray, ...]:
    """Real coefficients of i[B, H] for unit basis strings B against H.

    Returns (row, x, z, value) per anticommuting (basis string, H string)
    pair, basis-major as the commutator loop visits them.  For anticommuting
    Hermitian words the product phase i**e has e odd, so the entry of
    i * 2 c P_b P_h is -2 c Im(i**e) = (e - 2) 2 c, exact.
    """
    x_b, z_b, x_h, z_h = x_b[:, None], z_b[:, None], x_h[None, :], z_h[None, :]
    anti = (np.bitwise_count(x_b & z_h) + np.bitwise_count(z_b & x_h)) % 2 == 1
    x, z = x_b ^ x_h, z_b ^ z_h
    exponent = (
        np.bitwise_count(x_b & z_b).astype(np.int64)
        + np.bitwise_count(x_h & z_h)
        - np.bitwise_count(x & z)
        + 2 * np.bitwise_count(z_b & x_h)
    ) % 4
    value = (exponent - 2) * (2.0 * c_h[None, :])
    row = np.broadcast_to(rows[:, None], anti.shape)
    return row[anti], x[anti], z[anti], value[anti]


def _string_table(n: int, height: int, row, x, z, value) -> np.ndarray:
    """Scatter (row, string, value) entries into a ``height``-row table.

    Entries of one row that share a string are summed in entry order, sums
    at or below ``PRUNE_TOLERANCE`` are dropped, and columns follow each
    string's first surviving appearance: the table a row-by-row loop over
    pruned ``PauliSum`` terms builds, bit for bit.
    """
    key = (x << n) | z
    group, first, inverse = np.unique(
        (row << (2 * n)) | key, return_index=True, return_inverse=True
    )
    sums = np.zeros(len(group))
    np.add.at(sums, inverse, value)
    kept = np.flatnonzero(np.abs(sums) > PRUNE_TOLERANCE)
    kept = kept[np.argsort(first[kept])]
    _, seen, column = np.unique(key[first[kept]], return_index=True, return_inverse=True)
    table = np.zeros((height, len(seen)))
    table[group[kept] >> (2 * n), np.argsort(np.argsort(seen))[column]] = sums[kept]
    return table


def cd_terms(inst: ProblemInstance, ansatz: Ansatz) -> list[PauliString]:
    """Static string structure of the CD operator, in canonical order.

    Canonical order: Y by ascending site, then per coupling (i<j) the pair
    (Y_i Z_j, Z_i Y_j), then per pair the (X_i Y_j, Y_i X_j) family.  Sources
    that are exactly zero for the whole protocol (h_i = 0 for a Y term,
    J_ij = 0 for a coupling term) are dropped for the closed-form families.
    """
    n = inst.n
    if ansatz is Ansatz.NONE:
        return []
    if ansatz is Ansatz.LOCAL_Y:
        return [
            PauliString.single(n, i, "Y") for i in range(n) if inst.fields[i] != 0.0
        ]
    if ansatz is Ansatz.NC1:
        strings = [
            PauliString.single(n, i, "Y") for i in range(n) if inst.fields[i] != 0.0
        ]
        for i, j, value in inst.couplings:
            if value == 0.0:
                continue
            strings.append(_two_site(n, i, "Y", j, "Z"))
            strings.append(_two_site(n, i, "Z", j, "Y"))
        return strings
    if ansatz is Ansatz.TWO_LOCAL:
        strings = [PauliString.single(n, i, "Y") for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                strings.append(_two_site(n, i, "Y", j, "Z"))
                strings.append(_two_site(n, i, "Z", j, "Y"))
        for i in range(n):
            for j in range(i + 1, n):
                strings.append(_two_site(n, i, "X", j, "Y"))
                strings.append(_two_site(n, i, "Y", j, "X"))
        return strings
    raise ParameterError(f"unknown ansatz {ansatz!r}")


def cd_coefficients(
    gauge: ProblemInstance | CompiledGauge, ansatz: Ansatz, lam, lam_dot
) -> np.ndarray:
    """Coefficients aligned with ``cd_terms``, including the lam_dot factor.

    ``lam`` and ``lam_dot`` are scalars, or equal-length 1-D arrays of
    points, which give one row of coefficients per point.  ``gauge`` may be
    the ``CompiledGauge`` already built for (instance, ``ansatz``), so that
    callers evaluating many points compile once; an instance is compiled for
    this call alone.  The CD contribution is lam_dot * A(lam), so a point
    with zero rate gets zeros without touching any denominator: the driving
    vanishes identically there regardless of whether A is well defined.
    The closed forms run point by point, and the first singular point
    raises ``SingularGaugeError`` with its 1-based index as ``step``; the
    two-local points are solved as one stack.
    """
    if isinstance(gauge, CompiledGauge):
        if gauge.ansatz is not ansatz:
            raise ParameterError(
                f"gauge compiled for {gauge.ansatz.value}, asked for {ansatz.value}"
            )
    else:
        gauge = CompiledGauge(gauge, ansatz)
    lams, rates = np.asarray(lam, dtype=float), np.asarray(lam_dot, dtype=float)
    if lams.shape != rates.shape or lams.ndim > 1:
        raise ParameterError("lam and lam_dot must be scalars or equal-length 1-D arrays")
    lams, rates = lams.reshape(-1), rates.reshape(-1)
    values = np.zeros((len(lams), len(gauge.terms)))
    live = np.flatnonzero(rates) if gauge.terms else np.zeros(0, dtype=int)
    if ansatz is Ansatz.TWO_LOCAL:
        if len(live):
            coefficients, _ = _solve_certified(*gauge.normal_equations(lams[live]))
            values[live] = rates[live, None] * coefficients[:, gauge.string_basis]
    else:
        for row, point, rate in zip(live, lams[live].tolist(), rates[live].tolist()):
            try:
                if ansatz is Ansatz.LOCAL_Y:
                    values[row] = rate * _local_y(gauge.fields, gauge.weights, gauge.sites, point)
                else:
                    values[row] = -2.0 * rate * nc1_coefficient(gauge, point) * gauge.sources
            except SingularGaugeError as exc:
                exc.step = int(row) + 1
                raise
    return values if np.ndim(lam) else values[0]


def assemble_hamiltonian(
    inst: ProblemInstance, lam: float, lam_dot: float, ansatz: Ansatz
) -> PauliSum:
    """(1-lam) * mixer + lam * problem + CD contribution, as an operator sum.

    The CD contribution is lam_dot * A(lam) on the strings of ``cd_terms``.
    With ``lam_dot = 0`` the result is exactly the undriven interpolation for
    every ansatz choice.
    """
    if not -1e-12 <= lam <= 1.0 + 1e-12:
        raise ParameterError(f"lam must lie in [0, 1], got {lam}")
    lam = min(max(lam, 0.0), 1.0)
    base = (1.0 - lam) * mixer_hamiltonian(inst.n) + lam * problem_hamiltonian(inst)
    if ansatz is Ansatz.NONE or lam_dot == 0.0:
        return base
    gauge = CompiledGauge(inst, ansatz)
    return base + PauliSum(inst.n, zip(gauge.terms, cd_coefficients(gauge, ansatz, lam, lam_dot)))


def _two_site(n: int, i: int, axis_i: str, j: int, axis_j: str) -> PauliString:
    xi, zi = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}[axis_i]
    xj, zj = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}[axis_j]
    return PauliString(n, (xi << i) | (xj << j), (zi << i) | (zj << j))
