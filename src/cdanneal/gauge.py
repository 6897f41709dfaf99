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

``CompiledGauge`` compiles a drive once per instance: its string masks
(``_cd_masks``, which ``cd_terms`` turns into strings), the instance sums of
the closed forms, and for the 2-local family the blocks of the action's
Gram matrix G(lam) = (1-lam)^2 G_xx + lam (1-lam) G_xp + lam^2 G_pp and
source vector s(lam) = (1-lam) v_x + lam v_p.  These are products of one
string table, dH and the commutator images of the basis.  What depends on
n alone is formed once per size (``_two_local_frame``): the strings, G_xx
and the table's entries for an H_p with every coupling and field, each
entry a fixed factor times one coefficient.  An instance's table is one
weighted sum per cell, in which a missing coupling is 0 and what
``PauliSum`` prunes is 0; its columns are the strings that keep a cell, in
ascending (x << n) | z order.

The 2-local solve rests on a lemma.  Split the basis as A = {Y_i} u
{Z_i Y_j} (k = n(n+1)/2 elements) and XY = {X_i Y_j} (m = n(n-1)/2).  Then
G_xx is the diagonal 4 on Y, 32 on ZY and 8 on XY for every instance; the
XY x XY block of G_pp is diagonal and its A x XY block zero; G_xp is zero
outside XY x A and its transpose, which is B; and the XY sources are 0.  So

    G = [[A, w B^T], [w B, D]],  w = lam (1-lam),  D = (1-lam)^2 G_xx,XY + lam^2 G_pp,XY

with D diagonal, and the minimizer solves the k x k Schur complement
S = A - w^2 B^T D^-1 B: S c_A = -s_A, then c_XY = -w D^-1 B c_A.  A point
is solved so only when G - shift I, shift = ``CERTIFIED_FRACTION`` *
trace(G) / n^2, is certified positive definite blockwise: D - shift > 0
and (A - shift I) - w^2 B^T (D - shift)^-1 B has a Cholesky factor
(Haynsworth).  Any other point takes the eigendecomposition of its full
Gram matrix (``_solve_normal``).  The test suite checks the lemma on the
PauliSum commutators.  ``cd_coefficients`` evaluates a drive at all its
points in one stacked call.
``minimize_action`` stays the general PauliSum solver, with its
eigendecomposition, that the compiled solve is checked against, and
``assemble_hamiltonian`` the PauliSum driven Hamiltonian that the compiled
operator is checked against.  Both solvers return a ``GaugeSolution`` whose
coefficients are a float64 array in basis order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import IntegratorError, ParameterError, SingularGaugeError
from .pauli import PRUNE_TOLERANCE, PauliString, PauliSum, commutator, trace_inner
from .problem import ProblemInstance, mixer_hamiltonian, problem_hamiltonian

#: Denominators with magnitude below this raise ``SingularGaugeError``.
SINGULAR_FLOOR = 1e-10

#: Relative condition threshold that switches the solver to a pseudo-inverse.
CONDITION_THRESHOLD = 1e12

#: A compiled 2-local Gram matrix skips the eigendecomposition when one
#: Cholesky factorization certifies its smallest eigenvalue to be at least
#: this fraction of its mean eigenvalue (see ``CompiledGauge._solve``).
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
    lams = np.array([lam], dtype=float)
    return _local_y(inst.field_array(), _local_y_weights(inst), np.arange(inst.n), lams)[0]


@np.errstate(over="ignore")  # callers check the coefficients
def _local_y_weights(inst: ProblemInstance) -> np.ndarray:
    """h_i^2 + sum_{j != i} J_ij^2 per site: the lam^2 part of the denominator."""
    return inst.field_array() ** 2 + (inst.coupling_matrix() ** 2).sum(axis=1)


def _local_y(
    fields: np.ndarray, weights: np.ndarray, sites: np.ndarray, lams: np.ndarray
) -> np.ndarray:
    """beta per point of ``lams`` and site; the first singular point raises
    (see ``_refuse_singular``)."""
    points = lams[:, None]
    denominator = 2.0 * ((points - 1.0) ** 2 + points**2 * weights)
    _refuse_singular("single-site Y", denominator, lams, sites)
    return fields / denominator


def _refuse_singular(family: str, denominator: np.ndarray, lams: np.ndarray, sites=None) -> None:
    """Raise ``SingularGaugeError`` at the first point with a denominator below the floor.

    ``denominator`` holds a row per point of ``lams`` and a column per site
    of ``sites``, or a single column and no sites for a global coefficient.
    The error names the point's first singular site, if any, and, as
    ``step``, the point's 1-based index.
    """
    small = np.argwhere(np.abs(denominator) < SINGULAR_FLOOR)
    if len(small):
        point, column = small[0]
        site = None if sites is None else int(sites[column])
        lam, value = float(lams[point]), float(denominator[point, column])
        place = "" if site is None else f"site {site}, "
        raise SingularGaugeError(
            f"{family} denominator {value:.3e} below floor "
            f"{SINGULAR_FLOOR:.0e} at {place}lam={lam}",
            site=site,
            lam=lam,
            value=value,
            step=int(point) + 1,
        )


def nc1_coefficient(inst: ProblemInstance, lam: float) -> float:
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
    and the validation suite checks the two against each other.
    """
    return float(_nc1_alpha(_nc1_sums(inst), np.array([lam], dtype=float))[0])


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


@np.errstate(over="ignore", invalid="ignore")  # callers check the coefficients
def _nc1_alpha(sums: tuple[float, float, float], lams: np.ndarray) -> np.ndarray:
    """alpha_1 per point of ``lams``; the first singular point raises
    (see ``_refuse_singular``)."""
    numerator, quadratic, quartic = sums
    denominator = (1.0 - 2.0 * lams) * quadratic + lams**2 * quartic
    _refuse_singular("nested-commutator", denominator[:, None], lams)
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
    """Symmetrized 2-local basis: {Y_i}, {Z_i Y_j + Z_j Y_i}, {X_i Y_j + X_j Y_i}.

    Its strings are the two-local strings of ``cd_terms``, which depend on n
    alone: the n Y strings, then each symmetrized pair as two consecutive ones.
    """
    _check_two_local(n)
    strings = cd_terms(ProblemInstance(n, (), (0.0,) * n, seed=0), Ansatz.TWO_LOCAL)
    pairs = [strings[k : k + 2] for k in range(n, len(strings), 2)]
    return [PauliSum(n, {s: 1.0}) for s in strings[:n]] + [
        PauliSum(n, dict.fromkeys(pair, 1.0)) for pair in pairs
    ]


def _check_two_local(n: int) -> None:
    if n < 2:
        raise ParameterError(f"the 2-local family needs n >= 2, got {n}")


def _solve_normal(gram: np.ndarray, source: np.ndarray) -> tuple[np.ndarray, bool]:
    """Minimizer of c^T gram c + 2 c^T source, truncated as a pseudo-inverse.

    The reference solve: ``minimize_action`` always takes it, and the compiled
    2-local solve only for a Gram matrix that ``CompiledGauge._solve`` cannot
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


class CompiledGauge:
    """The CD drive of one instance, compiled once per (instance, drive).

    Holds the drive's strings as int64 ``x_masks`` and ``z_masks`` (in
    ``cd_terms`` order, see ``_cd_masks``) and every part of its
    coefficient solve that does not depend on lam:

    * local-y: the fields and the lam^2 denominator weights of the sites
      that carry a Y term (h_i != 0); no other site is ever divided for;
    * nc1: the three instance sums of the closed form and each string's
      source value (h_i for Y_i, J_ij for both strings of a coupling);
    * two-local: the action as a quadratic in lam, kept as the blocks the
      lemma of the module docstring leaves: ``xx_diagonal`` (G_xx, the same
      for every instance of a size), ``pp_a`` (the A block of G_pp),
      ``pp_xy`` (the diagonal XY block of G_pp), ``xp_b`` (B, the XY x A
      block of G_xp), ``source_x_a`` and ``source_p_a`` (the A parts of
      v_x and v_p) and ``norm_dh`` = ||dH||^2.  Each grid is solved in one
      stacked call on the k x k Schur complement of the diagonal XY block.
      A block that is not finite raises ``IntegratorError`` at compile,
      before any solver sees it.

    ``string_basis`` maps each two-local string to its basis element: the
    symmetrized ZY and XY elements own two strings each.  The masks,
    ``string_basis``, G_xx and the entries of the string table come from
    one per-size ``_two_local_frame``, whose one layout serves every
    instance; the products sum over the table's strings in ascending
    (x << n) | z order.
    """

    def __init__(self, inst: ProblemInstance, ansatz: Ansatz):
        self.inst = inst
        self.ansatz = ansatz
        if ansatz is Ansatz.TWO_LOCAL:
            self._compile_two_local()
            return
        self.x_masks, self.z_masks = _cd_masks(inst, ansatz)
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

    @np.errstate(over="ignore", invalid="ignore")  # non-finite blocks are refused below
    def _compile_two_local(self) -> None:
        n = self.inst.n
        _check_two_local(n)
        frame = _two_local_frame(n)
        self.x_masks, self.z_masks = frame.x_masks, frame.z_masks
        self.string_basis, self.xx_diagonal = frame.string_basis, frame.xx_diagonal
        inst, size, k = self.inst, n * n, n * (n + 1) // 2
        c_p = [value for *_, value in inst.couplings] + list(inst.fields)
        scale = float(np.abs(c_p).max(initial=0.0))
        self.problem_scale = scale if scale > PRUNE_TOLERANCE else 0.0
        table = frame.table(inst)
        source, image_x, image_p = table[0], table[1 : 1 + size], table[1 + size :]
        self.pp_a = image_p[:k] @ image_p[:k].T
        self.pp_xy = np.einsum("ij,ij->i", image_p[k:], image_p[k:])
        self.xp_b = image_x[k:] @ image_p[:k].T + (image_x[:k] @ image_p[k:].T).T
        self.source_x_a = image_x[:k] @ source
        self.source_p_a = image_p[:k] @ source
        self.norm_dh = float(source @ source)
        for name in ("pp_a", "pp_xy", "xp_b", "source_x_a", "source_p_a", "norm_dh"):
            if not np.isfinite(getattr(self, name)).all():
                raise IntegratorError(
                    f"two-local Gram block {name} at n={n} is not finite:"
                    " the fields or couplings are too large"
                )

    def _blocks(self, lams: np.ndarray) -> tuple[np.ndarray, ...]:
        """The two-local action's blocks at each point of the 1-D ``lams``.

        Returns A(lam) (points, k, k), the coupling weight lam (1-lam), the
        diagonal D(lam) (points, m) and s_A(lam) (points, k).  H = (1-lam) H_x
        + lam H_p as ``adiabatic_pair`` builds it: a part whose every
        coefficient is at or below ``PRUNE_TOLERANCE`` is the zero operator,
        as ``PauliSum`` prunes it.  ``_full`` assembles the full Gram matrix
        (1-lam)^2 G_xx + lam (1-lam) G_xp + lam^2 G_pp from these blocks.
        """
        if self.ansatz is not Ansatz.TWO_LOCAL:
            raise ParameterError(f"gauge compiled for {self.ansatz.value}, not two-local")
        mix = np.where(np.abs(1.0 - lams) > PRUNE_TOLERANCE, 1.0 - lams, 0.0)
        lam = np.where(np.abs(lams) * self.problem_scale > PRUNE_TOLERANCE, lams, 0.0)
        k = len(self.pp_a)
        a = (lam**2)[:, None, None] * self.pp_a
        a.reshape(len(lams), -1)[:, :: k + 1] += (mix**2)[:, None] * self.xx_diagonal[:k]
        d = (mix**2)[:, None] * self.xx_diagonal[k:] + (lam**2)[:, None] * self.pp_xy
        s = mix[:, None] * self.source_x_a + lam[:, None] * self.source_p_a
        return a, lam * mix, d, s

    def _full(self, a, weight, d, s) -> tuple[np.ndarray, np.ndarray]:
        """The full (points, n^2, n^2) Gram matrices and (points, n^2) sources of stacked blocks."""
        points, k = a.shape[:2]
        size = k + d.shape[-1]
        gram = np.zeros((points, size, size))
        gram[:, :k, :k] = a
        gram[:, k:, :k] = weight[:, None, None] * self.xp_b
        gram[:, :k, k:] = gram[:, k:, :k].swapaxes(1, 2)
        gram.reshape(points, -1)[:, k * (size + 1) :: size + 1] = d
        source = np.zeros((points, size))
        source[:, :k] = s
        return gram, source

    def normal_equations(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """Full Gram matrix and source vector of the two-local action at ``lam``.

        ``lam`` is a scalar, or a 1-D array of points that becomes the
        leading axis of both results.  Within 1e-12 of lam = 1 on an
        instance without fields or couplings, H is zero and the solve takes
        the pseudo-inverse path, as ``minimize_action`` does.
        """
        lam = np.asarray(lam, dtype=float)
        gram, source = self._full(*self._blocks(lam.reshape(-1)))
        return gram.reshape(lam.shape + gram.shape[1:]), source.reshape(lam.shape + (-1,))

    def _solve(self, a, weight, d, s) -> tuple[np.ndarray, np.ndarray]:
        """``_solve_normal`` for stacked blocks, on the Schur complement of D.

        A point is certified when G - shift I, shift = CERTIFIED_FRACTION *
        trace(G) / n^2, is positive definite: by Haynsworth, when D - shift
        is positive and (A - shift I) - w^2 B^T (D - shift)^-1 B, w = lam
        (1-lam), has a Cholesky factor.  Every eigenvalue of G is then at
        least ``shift``: far above the truncation cutoff, and so far above
        zero that the rounding-level sources ``_solve_normal`` drops would
        move a coefficient by at most n^2 eps |source| / shift.  A certified
        point solves S c_A = -s_A with S = A - w^2 B^T D^-1 B and sets
        c_XY = -w D^-1 B c_A, unflagged.  D - shift is checked before it
        divides.  Any other point, such as a zero Gram matrix or one with a
        symmetry-forbidden direction, takes ``_solve_normal`` on its full
        Gram matrix.  Returns the (points, n^2) coefficients and the
        per-point flags.
        """
        k, size = a.shape[-1], a.shape[-1] + d.shape[-1]
        shift = (np.trace(a, axis1=1, axis2=2) + d.sum(axis=1)) * (CERTIFIED_FRACTION / size)
        gap = d - shift[:, None]
        certified = (gap > 0.0).all(axis=1)
        live = np.flatnonzero(certified)
        shifted = a[live] - shift[live, None, None] * np.eye(k)
        certified[live] = _has_cholesky(self._schur(shifted, weight[live], gap[live]))
        del shifted
        live = np.flatnonzero(certified)
        coefficients = np.empty((len(a), size))
        flags = np.zeros(len(a), dtype=bool)
        if len(live):
            schur = self._schur(a[live], weight[live], d[live])
            c_a = np.linalg.solve(schur, -s[live, :, None])[..., 0]
            coefficients[live, :k] = c_a
            # One product per point, so that a point gets the same bits in any stack.
            coupled = (self.xp_b @ c_a[:, :, None])[..., 0]
            coefficients[live, k:] = -weight[live, None] * coupled / d[live]
        for p in np.flatnonzero(~certified):
            gram, source = self._full(a[p : p + 1], weight[p : p + 1], d[p : p + 1], s[p : p + 1])
            coefficients[p], flags[p] = _solve_normal(gram[0], source[0])
        return coefficients, flags

    def _schur(self, a: np.ndarray, weight: np.ndarray, d: np.ndarray) -> np.ndarray:
        """a - w^2 B^T diag(1 / d) B per point; every entry of ``d`` is positive."""
        update = (self.xp_b.T / d[:, None, :]) @ self.xp_b
        update *= (weight**2)[:, None, None]
        return a - update

    @property
    def point_bytes(self) -> int:
        """Bytes one point of a stacked two-local solve holds at its peak (0 otherwise).

        Four k x k arrays, the A block, its shifted copy, B^T (D - shift)^-1 B
        and their difference, which its Cholesky factor then replaces, and
        the k x m scaled B^T.
        """
        if self.ansatz is not Ansatz.TWO_LOCAL:
            return 0
        return self.pp_a.nbytes * 4 + self.xp_b.nbytes

    def solve_two_local(self, lam: float) -> GaugeSolution:
        """The two-local action minimizer at ``lam``, as ``minimize_action`` gives it."""
        a, weight, d, s = blocks = self._blocks(np.array([lam], dtype=float))
        (coefficients,), (warning,) = self._solve(*blocks)
        k = a.shape[-1]
        c_a, c_xy = coefficients[:k], coefficients[k:]
        residual = (
            self.norm_dh
            + 2.0 * c_a @ s[0]
            + c_a @ a[0] @ c_a
            + 2.0 * weight[0] * (c_xy @ self.xp_b @ c_a)
            + c_xy @ (d[0] * c_xy)
        )
        return GaugeSolution(coefficients, max(0.0, float(residual)), bool(warning))


def _has_cholesky(stack: np.ndarray) -> np.ndarray:
    """Per stacked symmetric matrix, whether it has a Cholesky factor.

    The whole stack is factored at once; only a stack that fails is taken
    apart, to find the matrices that fail.
    """
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        if len(stack) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_has_cholesky(matrix[None]) for matrix in stack])
    return np.ones(len(stack), dtype=bool)


class _TwoLocalFrame(NamedTuple):
    """The part of a two-local compile that depends on n alone.

    Besides the masks, ``string_basis`` and G_xx, it holds the entries of
    the string table of H_p with every coupling, in lexicographic order,
    and every field: dH, the mixer images, then the problem images.  Entry
    e is ``factors[e]`` times coefficient ``terms[e]`` of (H_p's
    coefficients, 1), exactly.
    """

    n: int
    x_masks: np.ndarray
    z_masks: np.ndarray
    string_basis: np.ndarray
    #: The diagonal of G_xx: 4 on Y, 32 on ZY, 8 on XY.
    xx_diagonal: np.ndarray
    #: The position of coupling (i, j) among H_p's terms.
    pair_index: np.ndarray
    factors: np.ndarray
    terms: np.ndarray
    #: Each entry's (row, string) cell, each cell's row, and the rank of
    #: its string among every string of the table.
    inverse: np.ndarray
    rows: np.ndarray
    ranks: np.ndarray

    def table(self, inst: ProblemInstance) -> np.ndarray:
        """dH and the images of the basis as one string table.

        Row 0 is dH = H_p - H_x, rows 1..B the images i[B_b, H_x] and rows
        B+1..2B the images i[B_b, H_p].  A missing coupling is 0, and H_p's
        coefficients and the cell sums at or below ``PRUNE_TOLERANCE`` are
        0, as ``PauliSum`` prunes them.  Each cell sums its entries in the
        order in which the PauliSum commutators visit them, and the columns
        are the strings that keep a cell, in ascending (x << n) | z order.
        """
        n = self.n
        coefficients = np.concatenate([np.zeros(n * (n - 1) // 2), inst.fields, [1.0]])
        if inst.couplings:
            i, j, value = zip(*inst.couplings)
            coefficients[self.pair_index[i, j]] = value
        coefficients[np.abs(coefficients) <= PRUNE_TOLERANCE] = 0.0
        values = self.factors * coefficients[self.terms]
        sums = np.bincount(self.inverse, weights=values, minlength=len(self.rows))
        kept = np.flatnonzero(np.abs(sums) > PRUNE_TOLERANCE)
        ranks = self.ranks[kept]
        columns = np.cumsum(np.bincount(ranks) > 0) - 1
        table = np.zeros((1 + 2 * len(self.xx_diagonal), columns[-1] + 1))
        table[self.rows[kept], columns[ranks]] = sums[kept]
        return table


@lru_cache(maxsize=16)
def _two_local_frame(n: int) -> _TwoLocalFrame:
    """The two-local strings, their basis map, G_xx and the table entries for size n.

    The strings are those of ``cd_terms``: n Y elements, then n(n-1)/2 ZY
    and n(n-1)/2 XY elements of two strings each.  Every array is read-only.
    """
    size, m = n * n, n * (n - 1) // 2
    x_masks, z_masks = _cd_masks(ProblemInstance(n, (), (0.0,) * n, seed=0), Ansatz.TWO_LOCAL)
    string_basis = np.concatenate([np.arange(n), np.repeat(np.arange(n, size), 2)])
    bit = 1 << np.arange(n, dtype=np.int64)
    zeros = np.zeros(n, dtype=np.int64)
    i, j = np.triu_indices(n, 1)
    pair_index = np.zeros((n, n), dtype=np.int64)
    pair_index[i, j] = np.arange(m)
    # H_p's terms, then H_x = -sum X_i.  An image entry is (e - 2) 2 c_t for
    # the coefficient c_t of its term t: formed with every c_t = 1 they give
    # the factors, with c_t = t the terms times the factors.
    z_p = np.concatenate([bit[i] | bit[j], bit])
    count = len(z_p)
    problem = (1 + size + string_basis, np.zeros(count, dtype=np.int64), z_p)
    mixer = _image_entries(x_masks, z_masks, 1 + string_basis, bit, zeros, np.full(n, -1.0))
    unit = _image_entries(x_masks, z_masks, *problem, np.ones(count))
    terms = _image_entries(x_masks, z_masks, *problem, np.arange(count, dtype=float))[3] / unit[3]
    # dH = H_p - H_x in row 0: H_p's strings, then each X_i.
    dh = (
        np.zeros(count + n, dtype=np.int64),
        np.concatenate([problem[1], bit]),
        np.concatenate([z_p, zeros]),
        np.ones(count + n),
    )
    row, x, z, factors = (np.concatenate(c) for c in zip(dh, mixer, unit))
    cells, inverse = np.unique((row << (2 * n)) | (x << n) | z, return_inverse=True)
    _, ranks = np.unique(cells & ((1 << (2 * n)) - 1), return_inverse=True)
    frame = _TwoLocalFrame(
        n,
        x_masks,
        z_masks,
        string_basis,
        np.repeat([4.0, 32.0, 8.0], [n, m, m]),
        pair_index,
        factors,
        # dH's H_p strings, then its X strings and the mixer images, which
        # scale with the trailing 1.
        np.concatenate([np.arange(count), np.full(n + len(mixer[0]), count), terms]).astype(
            np.int64
        ),
        inverse,
        cells >> (2 * n),
        ranks,
    )
    for array in frame[1:]:
        array.flags.writeable = False
    return frame


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


def cd_terms(inst: ProblemInstance, ansatz: Ansatz) -> list[PauliString]:
    """Static string structure of the CD operator, in canonical order.

    Canonical order: Y by ascending site, then per coupling (i<j) the pair
    (Y_i Z_j, Z_i Y_j), then per pair the (X_i Y_j, Y_i X_j) family.  Sources
    that are exactly zero for the whole protocol (h_i = 0 for a Y term,
    J_ij = 0 for a coupling term) are dropped for the closed-form families.
    """
    x_masks, z_masks = _cd_masks(inst, ansatz)
    return [PauliString(inst.n, x, z) for x, z in zip(x_masks.tolist(), z_masks.tolist())]


def _cd_masks(inst: ProblemInstance, ansatz: Ansatz) -> tuple[np.ndarray, np.ndarray]:
    """The int64 X and Z masks of the CD strings, in ``cd_terms`` order."""
    bit = 1 << np.arange(inst.n, dtype=np.int64)
    if ansatz is Ansatz.TWO_LOCAL:
        y, (i, j) = bit, np.triu_indices(inst.n, 1)
    elif ansatz in (Ansatz.LOCAL_Y, Ansatz.NC1):
        y = bit[inst.field_array() != 0.0]
        table = np.array(inst.couplings if ansatz is Ansatz.NC1 else (), dtype=float)
        table = table.reshape(-1, 3)
        i, j = table[table[:, 2] != 0.0, :2].astype(np.int64).T
    elif ansatz is Ansatz.NONE:
        y = i = j = np.zeros(0, dtype=np.int64)
    else:
        raise ParameterError(f"unknown ansatz {ansatz!r}")
    # Per pair i < j: Y_i Z_j and Z_i Y_j; for two-local then X_i Y_j and Y_i X_j.
    single = np.stack([bit[i], bit[j]], axis=1).ravel()
    both = np.repeat(bit[i] | bit[j], 2)
    x_masks, z_masks = [y, single], [y, both]
    if ansatz is Ansatz.TWO_LOCAL:
        x_masks.append(both)
        z_masks.append(single.reshape(-1, 2)[:, ::-1].ravel())
    return np.concatenate(x_masks), np.concatenate(z_masks)


@np.errstate(over="ignore")  # a large rate times a coefficient; callers check the coefficients
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
    Every drive solves all points of nonzero rate in one stacked call, and
    the first singular point raises with its 1-based index as ``step``.
    """
    if not isinstance(gauge, CompiledGauge):
        gauge = CompiledGauge(gauge, ansatz)
    elif gauge.ansatz is not ansatz:
        raise ParameterError(f"gauge compiled for {gauge.ansatz.value}, asked for {ansatz.value}")
    lams, rates = np.asarray(lam, dtype=float), np.asarray(lam_dot, dtype=float)
    if lams.shape != rates.shape or lams.ndim > 1:
        raise ParameterError("lam and lam_dot must be scalars or equal-length 1-D arrays")
    lams, rates = lams.reshape(-1), rates.reshape(-1)
    values = np.zeros((len(lams), len(gauge.x_masks)))
    live = np.flatnonzero(rates) if len(gauge.x_masks) else np.zeros(0, dtype=int)
    points, rate = lams[live], rates[live, None]
    try:
        if ansatz is Ansatz.TWO_LOCAL and len(live):
            coefficients, _ = gauge._solve(*gauge._blocks(points))
            values[live] = rate * coefficients[:, gauge.string_basis]
        elif ansatz is Ansatz.LOCAL_Y:
            values[live] = rate * _local_y(gauge.fields, gauge.weights, gauge.sites, points)
        elif ansatz is Ansatz.NC1:
            alphas = _nc1_alpha(gauge.nc1_sums, points)[:, None]
            values[live] = -2.0 * rate * alphas * gauge.sources
    except SingularGaugeError as exc:
        exc.step = int(live[exc.step - 1]) + 1
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
    values = cd_coefficients(inst, ansatz, lam, lam_dot)
    return base + PauliSum(inst.n, zip(cd_terms(inst, ansatz), values))
