"""Counterdiabatic driving operators for the interpolated spin-glass problem.

Three constructions are provided on top of the same driven Hamiltonian
``H(lam) = (1-lam) * mixer + lam * problem``:

* a closed-form single-site Y family whose per-site coefficients solve the
  quadratic action minimization exactly (the normal equations decouple site
  by site),
* the first-order nested-commutator family, a single global coefficient on
  the fixed operator i[H, dH], again in closed form,
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
so each coefficient evaluation is one small eigensolve.  ``minimize_action``
stays the general PauliSum solver that the compiled solve is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ParameterError, ResourceCapError, SingularGaugeError
from .pauli import PauliString, PauliSum, commutator, trace_inner
from .problem import ProblemInstance, mixer_hamiltonian, problem_hamiltonian

#: Denominators with magnitude below this raise ``SingularGaugeError``.
SINGULAR_FLOOR = 1e-10

#: Relative condition threshold that switches the solver to a pseudo-inverse.
CONDITION_THRESHOLD = 1e12

#: Default cap on generated nested-commutator strings per term.
NC_STRING_CAP = 10**6

#: Default cap on the nested-commutator expansion order; raise explicitly to
#: generate deeper terms (term count grows steeply with order).
NC_ORDER_CAP = 2


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


@dataclass(frozen=True)
class GaugeSolution:
    """Variational coefficients plus the residual action they achieve."""

    coefficients: dict[str, float]
    residual_action: float
    lam: float | None = None
    condition_warning: bool = False
    labels: tuple[str, ...] = field(default=(), repr=False)

    def vector(self) -> np.ndarray:
        return np.array([self.coefficients[lbl] for lbl in self.labels])


def adiabatic_pair(inst: ProblemInstance, lam: float) -> tuple[PauliSum, PauliSum]:
    """The driven Hamiltonian at ``lam`` (no CD) and its lam derivative."""
    problem = problem_hamiltonian(inst)
    mixer = mixer_hamiltonian(inst.n)
    return (1.0 - lam) * mixer + lam * problem, problem - mixer


def local_y_coefficients(
    inst: ProblemInstance, lam: float, *, floor: float = SINGULAR_FLOOR
) -> np.ndarray:
    """Closed-form per-site coefficients of the single-site Y family.

    beta_i = h_i / (2 [ (lam-1)^2 + lam^2 (h_i^2 + sum_{j != i} J_ij^2) ]).
    The joint least-squares problem over {Y_i} has a diagonal normal matrix,
    so this site-wise form is the exact joint minimizer.
    """
    return _local_y(
        inst.field_array(), _local_y_weights(inst), np.arange(inst.n), lam, floor
    )


def _local_y_weights(inst: ProblemInstance) -> np.ndarray:
    """h_i^2 + sum_{j != i} J_ij^2 per site: the lam^2 part of the denominator."""
    return inst.field_array() ** 2 + (inst.coupling_matrix() ** 2).sum(axis=1)


def _local_y(
    fields: np.ndarray, weights: np.ndarray, sites: np.ndarray, lam: float, floor: float
) -> np.ndarray:
    denominator = 2.0 * ((lam - 1.0) ** 2 + lam**2 * weights)
    small = np.flatnonzero(np.abs(denominator) < floor)
    if small.size:
        site = int(sites[small[0]])
        value = float(denominator[small[0]])
        raise SingularGaugeError(
            f"single-site Y denominator {value:.3e} below floor "
            f"{floor:.0e} at site {site}, lam={lam}",
            site=site,
            lam=lam,
            value=value,
        )
    return fields / denominator


def nc1_coefficient(
    inst: ProblemInstance, lam: float, *, floor: float = SINGULAR_FLOOR
) -> float:
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
    return _nc1_alpha(_nc1_sums(inst), lam, floor)


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


def _nc1_alpha(sums: tuple[float, float, float], lam: float, floor: float) -> float:
    numerator, quadratic, quartic = sums
    denominator = (1.0 - 2.0 * lam) * quadratic + lam**2 * quartic
    if abs(denominator) < floor:
        raise SingularGaugeError(
            f"nested-commutator denominator {denominator:.3e} below floor "
            f"{floor:.0e} at lam={lam}",
            lam=lam,
            value=float(denominator),
        )
    return -0.25 * numerator / denominator


def nc_ansatz_terms(
    H: PauliSum,
    dH: PauliSum,
    order: int,
    *,
    string_cap: int = NC_STRING_CAP,
    order_cap: int = NC_ORDER_CAP,
) -> list[PauliSum]:
    """Nested-commutator basis operators up to ``order``.

    Term k is i times the (2k-1)-fold nested commutator of H with dH; odd
    depth makes each term Hermitian, and every generated string carries an
    odd number of Y factors because H and dH are real.
    """
    if order < 1:
        raise ParameterError(f"order must be >= 1, got {order}")
    if order > order_cap:
        raise ResourceCapError(
            f"expansion order {order} exceeds cap {order_cap}; pass order_cap "
            f"explicitly to go deeper"
        )
    if not H.is_hermitian() or not dH.is_hermitian():
        raise ParameterError("nested-commutator generation requires Hermitian inputs")
    terms: list[PauliSum] = []
    current = dH
    depth = 0
    for k in range(1, order + 1):
        while depth < 2 * k - 1:
            current = commutator(H, current)
            depth += 1
            if len(current) > string_cap:
                raise ResourceCapError(
                    f"nested commutator at depth {depth} has {len(current)} "
                    f"strings, cap {string_cap}"
                )
        terms.append(1j * current)
    return terms


def minimize_action(
    basis: list[PauliSum],
    H: PauliSum,
    dH: PauliSum,
    *,
    labels: tuple[str, ...] | list[str] | None = None,
    lam: float | None = None,
    cond_threshold: float = CONDITION_THRESHOLD,
) -> GaugeSolution:
    """Least-squares coefficients minimizing S = Tr[(dH + i[A, H])^2] / 2^n.

    With A = sum_b c_b B_b and L_b = i[B_b, H], the action is quadratic in c,
    so the minimizer solves M c = -v with M_bb' = <L_b, L_b'> and
    v_b = <dH, L_b>.  A symmetric eigendecomposition handles the solve;
    eigenvalues below max(eig)/cond_threshold are truncated (pseudo-inverse
    path) and flagged via ``condition_warning``.
    """
    if not basis:
        raise ParameterError("variational basis must be non-empty")
    for op in basis:
        if not op.is_hermitian():
            raise ParameterError("variational basis operators must be Hermitian")
    if labels is None:
        labels = tuple(f"b{i}" for i in range(len(basis)))
    labels = tuple(labels)
    if len(labels) != len(basis):
        raise ParameterError("labels must align with the basis")

    images = [1j * commutator(op, H) for op in basis]
    size = len(basis)
    gram = np.empty((size, size))
    for a in range(size):
        for b in range(a, size):
            value = trace_inner(images[a], images[b]).real
            gram[a, b] = gram[b, a] = value
    source = np.array([trace_inner(dH, img).real for img in images])

    coefficients, condition_warning = _solve_normal(gram, source, cond_threshold)

    residual_op = dH
    for c, img in zip(coefficients, images):
        residual_op = residual_op + float(c) * img
    residual = max(0.0, trace_inner(residual_op, residual_op).real)

    return GaugeSolution(
        coefficients={lbl: float(c) for lbl, c in zip(labels, coefficients)},
        residual_action=residual,
        lam=lam,
        condition_warning=condition_warning,
        labels=labels,
    )


def two_local_basis(n: int) -> tuple[list[PauliSum], list[str]]:
    """Symmetrized 2-local basis: {Y_i}, {Z_i Y_j + Z_j Y_i}, {X_i Y_j + X_j Y_i}."""
    if n < 2:
        raise ParameterError(f"the 2-local family needs n >= 2, got {n}")
    basis: list[PauliSum] = []
    labels: list[str] = []
    for i in range(n):
        basis.append(PauliSum(n, {PauliString.single(n, i, "Y"): 1.0}))
        labels.append(f"y{i}")
    for i in range(n):
        for j in range(i + 1, n):
            basis.append(
                PauliSum(
                    n,
                    {
                        _two_site(n, i, "Y", j, "Z"): 1.0,
                        _two_site(n, i, "Z", j, "Y"): 1.0,
                    },
                )
            )
            labels.append(f"zy{i},{j}")
    for i in range(n):
        for j in range(i + 1, n):
            basis.append(
                PauliSum(
                    n,
                    {
                        _two_site(n, i, "X", j, "Y"): 1.0,
                        _two_site(n, i, "Y", j, "X"): 1.0,
                    },
                )
            )
            labels.append(f"xy{i},{j}")
    return basis, labels


def two_local_cd(inst: ProblemInstance, lam: float) -> tuple[PauliSum, GaugeSolution]:
    """Variationally optimal 2-local CD operator (rate factor applied later)."""
    gauge = CompiledGauge(inst, Ansatz.TWO_LOCAL)
    solution = gauge.solve_two_local(lam)
    values = solution.vector()[gauge.string_basis]
    return PauliSum(inst.n, zip(gauge.terms, values)), solution


def _solve_normal(
    gram: np.ndarray, source: np.ndarray, cond_threshold: float
) -> tuple[np.ndarray, bool]:
    """Minimizer of c^T gram c + 2 c^T source, truncated as a pseudo-inverse.

    Eigenvalues of the symmetric ``gram`` below max(eig)/cond_threshold are
    dropped; the flag reports whether any were.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    top = float(eigenvalues.max(initial=0.0))
    cutoff = top / cond_threshold if top > 0.0 else 0.0
    keep = eigenvalues > cutoff
    projected = eigenvectors.T @ (-source)
    scaled = np.where(keep, projected / np.where(keep, eigenvalues, 1.0), 0.0)
    return eigenvectors @ scaled, bool((~keep).any())


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
      minimizer needs only ||dH||^2 besides.  Each lam then costs one small
      ``eigh``.

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
        inst, n = self.inst, self.inst.n
        basis, labels = two_local_basis(n)
        self.labels = tuple(labels)
        self.string_basis = np.concatenate(
            [np.arange(n), np.repeat(np.arange(n, len(basis)), 2)]
        )
        mixer, problem = mixer_hamiltonian(n), problem_hamiltonian(inst)
        ops = (
            [problem - mixer]
            + [1j * commutator(op, mixer) for op in basis]
            + [1j * commutator(op, problem) for op in basis]
        )
        # One column per Pauli string met.  dH and the images of Hermitian
        # basis operators under i[., H] are Hermitian: every coefficient is real.
        columns: dict[PauliString, int] = {}
        rows, cols, values = [], [], []
        for row, op in enumerate(ops):
            for string, value in op:
                rows.append(row)
                cols.append(columns.setdefault(string, len(columns)))
                values.append(value.real)
        table = np.zeros((len(ops), len(columns)))
        table[rows, cols] = values
        source, image_x, image_p = table[0], table[1 : 1 + len(basis)], table[1 + len(basis) :]
        self.gram_xx = image_x @ image_x.T
        cross = image_x @ image_p.T
        self.gram_xp = cross + cross.T
        self.gram_pp = image_p @ image_p.T
        self.source_x = image_x @ source
        self.source_p = image_p @ source
        self.norm_dh = float(source @ source)

    def solve_two_local(self, lam: float) -> GaugeSolution:
        """The two-local action minimizer at ``lam``, as ``minimize_action`` gives it."""
        if self.ansatz is not Ansatz.TWO_LOCAL:
            raise ParameterError(f"gauge compiled for {self.ansatz.value}, not two-local")
        mix = 1.0 - lam
        gram = mix**2 * self.gram_xx + lam * mix * self.gram_xp + lam**2 * self.gram_pp
        source = mix * self.source_x + lam * self.source_p
        coefficients, warning = _solve_normal(gram, source, CONDITION_THRESHOLD)
        residual = self.norm_dh + 2.0 * coefficients @ source + coefficients @ gram @ coefficients
        return GaugeSolution(
            coefficients={lbl: float(c) for lbl, c in zip(self.labels, coefficients)},
            residual_action=max(0.0, float(residual)),
            lam=lam,
            condition_warning=warning,
            labels=self.labels,
        )


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
    gauge: ProblemInstance | CompiledGauge, ansatz: Ansatz, lam: float, lam_dot: float
) -> np.ndarray:
    """Coefficients aligned with ``cd_terms``, including the lam_dot factor.

    ``gauge`` may be the ``CompiledGauge`` already built for (instance,
    ``ansatz``), so that callers evaluating many points compile once; an
    instance is compiled for this call alone.  The CD contribution is
    lam_dot * A(lam), so a zero rate short-circuits to zeros without touching
    any denominator: the driving vanishes identically there regardless of
    whether A is well defined.
    """
    if isinstance(gauge, CompiledGauge):
        if gauge.ansatz is not ansatz:
            raise ParameterError(
                f"gauge compiled for {gauge.ansatz.value}, asked for {ansatz.value}"
            )
    else:
        gauge = CompiledGauge(gauge, ansatz)
    if not gauge.terms or lam_dot == 0.0:
        return np.zeros(len(gauge.terms))
    if ansatz is Ansatz.LOCAL_Y:
        beta = _local_y(gauge.fields, gauge.weights, gauge.sites, lam, SINGULAR_FLOOR)
        return lam_dot * beta
    if ansatz is Ansatz.NC1:
        alpha = _nc1_alpha(gauge.nc1_sums, lam, SINGULAR_FLOOR)
        return -2.0 * lam_dot * alpha * gauge.sources
    if ansatz is Ansatz.TWO_LOCAL:
        return lam_dot * gauge.solve_two_local(lam).vector()[gauge.string_basis]
    raise ParameterError(f"unknown ansatz {ansatz!r}")


def cd_operator(
    inst: ProblemInstance, ansatz: Ansatz, lam: float, lam_dot: float
) -> PauliSum:
    """The CD contribution lam_dot * A(lam) as an operator sum."""
    gauge = CompiledGauge(inst, ansatz)
    return PauliSum(inst.n, zip(gauge.terms, cd_coefficients(gauge, ansatz, lam, lam_dot)))


def assemble_hamiltonian(
    inst: ProblemInstance, lam: float, lam_dot: float, ansatz: Ansatz
) -> PauliSum:
    """(1-lam) * mixer + lam * problem + CD contribution.

    With ``lam_dot = 0`` the result is exactly the undriven interpolation for
    every ansatz choice.
    """
    if not -1e-12 <= lam <= 1.0 + 1e-12:
        raise ParameterError(f"lam must lie in [0, 1], got {lam}")
    lam = min(max(lam, 0.0), 1.0)
    base = (1.0 - lam) * mixer_hamiltonian(inst.n) + lam * problem_hamiltonian(inst)
    if ansatz is Ansatz.NONE or lam_dot == 0.0:
        return base
    return base + cd_operator(inst, ansatz, lam, lam_dot)


def _two_site(n: int, i: int, axis_i: str, j: int, axis_j: str) -> PauliString:
    xi, zi = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}[axis_i]
    xj, zj = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}[axis_j]
    return PauliString(n, (xi << i) | (xj << j), (zi << i) | (zj << j))
