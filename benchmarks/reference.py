"""Independent reference computations and the output checks built on them.

Nothing here uses cdanneal's own algebra: energies come from an explicit
enumeration of spin vectors, operators from ``np.kron`` products of 2x2
Pauli matrices, and the schedule from its closed form.  Each ``check_*``
function takes the program's output next to the reference and returns a list
of failure messages, empty when the output is right, so that ``self_test``
can feed it deliberately perturbed values and confirm that it objects.
"""

from __future__ import annotations

import math

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Classical energies closer than this to the minimum belong to the ground
#: manifold (the program documents the same tie tolerance).
TIE_TOL = 1e-9


# --------------------------------------------------------------- references


def spins(n: int) -> np.ndarray:
    """(2**n, n) array of spins s = 1 - 2 b, with bit i of the index on site i."""
    index = np.arange(1 << n)
    return 1.0 - 2.0 * ((index[:, None] >> np.arange(n)) & 1)


def energies(n: int, couplings, fields) -> np.ndarray:
    """E(s) = sum J_ij s_i s_j + sum h_i s_i for every spin vector."""
    s = spins(n)
    energy = s @ np.asarray(fields, dtype=float)
    for i, j, value in couplings:
        energy = energy + value * s[:, i] * s[:, j]
    return energy


def ground_manifold(energy: np.ndarray) -> tuple[float, tuple[int, ...]]:
    minimum = float(energy.min())
    return minimum, tuple(int(b) for b in np.flatnonzero(energy <= minimum + TIE_TOL))


def pauli(n: int, word: dict[int, str]) -> np.ndarray:
    """Dense matrix of a Pauli word given as {site: axis}; qubit 0 is the low bit."""
    matrix = np.ones((1, 1), dtype=complex)
    for site in reversed(range(n)):
        matrix = np.kron(matrix, PAULI[word.get(site, "I")])
    return matrix


def lam(t: float, total: float) -> float:
    return math.sin(0.5 * math.pi * math.sin(math.pi * t / (2.0 * total)) ** 2) ** 2


def lam_dot(t: float, total: float) -> float:
    v = math.pi * t / (2.0 * total)
    u = 0.5 * math.pi * math.sin(v) ** 2
    return math.pi**2 / (4.0 * total) * math.sin(2.0 * u) * math.sin(2.0 * v)


def cd_words(n: int, couplings, fields, drive: str) -> list[dict[int, str]]:
    """CD strings in the documented canonical order of each drive family."""
    if drive == "none":
        return []
    if drive == "local-y":
        return [{i: "Y"} for i in range(n) if fields[i] != 0.0]
    if drive == "nc1":
        words = [{i: "Y"} for i in range(n) if fields[i] != 0.0]
        for i, j, value in couplings:
            if value != 0.0:
                words += [{i: "Y", j: "Z"}, {i: "Z", j: "Y"}]
        return words
    if drive == "two-local":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        words = [{i: "Y"} for i in range(n)]
        words += [w for i, j in pairs for w in ({i: "Y", j: "Z"}, {i: "Z", j: "Y"})]
        words += [w for i, j in pairs for w in ({i: "X", j: "Y"}, {i: "Y", j: "X"})]
        return words
    raise ValueError(f"unknown drive {drive!r}")


class DenseModel:
    """Mixer and problem Hamiltonian of one instance as dense matrices.

    Only these two are kept; the single terms of the product formula are
    built on demand, so the checks at n = 8 stay small next to the program.
    """

    def __init__(self, n: int, couplings, fields):
        self.n = n
        self.couplings = couplings
        self.fields = fields
        self.energy = energies(n, couplings, fields)
        self.mixer = -sum(pauli(n, {i: "X"}) for i in range(n))
        self.problem = np.diag(self.energy).astype(complex)

    def adiabatic(self, lam_value: float) -> tuple[np.ndarray, np.ndarray]:
        """H(lam) = (1 - lam) mixer + lam problem, and dH/dlam."""
        return (
            (1.0 - lam_value) * self.mixer + lam_value * self.problem,
            self.problem - self.mixer,
        )

    def cd_matrices(self, drive: str) -> list[np.ndarray]:
        return [pauli(self.n, w) for w in cd_words(self.n, self.couplings, self.fields, drive)]

    def product_formula(self, drive: str, total: float, steps: int, cd_values) -> np.ndarray:
        """First-order product formula from |+...+>; cd_values(k) gives step k's CD coefficients.

        Term order per step: X by site, Z on nonzero fields, ZZ on nonzero
        couplings, then the drive's CD strings.
        """
        n = self.n
        static = [(pauli(n, {i: "X"}), None) for i in range(n)]
        static += [(pauli(n, {i: "Z"}), h) for i, h in enumerate(self.fields) if h != 0.0]
        static += [(pauli(n, {i: "Z", j: "Z"}), v) for i, j, v in self.couplings if v != 0.0]
        cd = self.cd_matrices(drive)
        dt = total / steps
        psi = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)
        for k in range(1, steps + 1):
            lam_k = lam(min(k * dt, total), total)
            terms = [(m, -(1.0 - lam_k) if base is None else lam_k * base) for m, base in static]
            values = np.asarray(cd_values(k), dtype=float)
            if len(values) != len(cd):
                raise ValueError(f"{len(values)} CD coefficients for {len(cd)} strings")
            terms += list(zip(cd, values))
            for matrix, c in terms:
                psi = math.cos(dt * c) * psi - 1j * math.sin(dt * c) * (matrix @ psi)
        return psi


def action(dH: np.ndarray, H: np.ndarray, A: np.ndarray) -> float:
    """Residual action Tr[G^2] / 2^n with G = dH + i[A, H]."""
    g = dH + 1j * (A @ H - H @ A)
    return float(np.vdot(g, g).real) / g.shape[0]


def two_local_solve(model: DenseModel, lam_value: float) -> np.ndarray:
    """Least-squares 2-local gauge coefficients, one per CD string of the family.

    Basis: Y_i, then Y_i Z_j + Z_i Y_j, then X_i Y_j + Y_i X_j; both strings
    of a symmetrized pair share one coefficient, so it is repeated.
    """
    n = model.n
    H, dH = model.adiabatic(lam_value)
    strings = model.cd_matrices("two-local")
    singles, pairs = strings[:n], strings[n:]
    basis = singles + [pairs[k] + pairs[k + 1] for k in range(0, len(pairs), 2)]
    images = np.stack([(1j * (B @ H - H @ B)).ravel() for B in basis], axis=1)
    rows = np.vstack([images.real, images.imag])
    target = -np.concatenate([dH.ravel().real, dH.ravel().imag])
    solution = np.linalg.lstsq(rows, target, rcond=None)[0]
    return np.concatenate([solution[:n], np.repeat(solution[n:], 2)])


def operator(model: DenseModel, drive: str, values) -> np.ndarray:
    return sum(c * m for c, m in zip(values, model.cd_matrices(drive)))


def nc1_gap(model: DenseModel, lam_value: float, rate: float) -> float:
    """Gap of H(lam) + rate * alpha * i[H, dH], alpha from a dense 1-term solve."""
    H, dH = model.adiabatic(lam_value)
    B = 1j * (H @ dH - dH @ H)
    L = 1j * (B @ H - H @ B)
    alpha = -np.vdot(dH, L).real / np.vdot(L, L).real
    low = np.linalg.eigvalsh(H + rate * alpha * B)
    return float(low[1] - low[0])


def bare_gap(model: DenseModel, lam_value: float) -> float:
    low = np.linalg.eigvalsh(model.adiabatic(lam_value)[0])
    return float(low[1] - low[0])


# ------------------------------------------------------------------- checks


def check_close(label: str, got: float, want: float, tol: float) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{label}: got {got!r}, want {want!r} (tolerance {tol:g})"]
    return []


def check_ground(label, energy_got, states_got, degenerate_got, energy):
    minimum, states = ground_manifold(energy)
    fails = check_close(f"{label} ground energy", energy_got, minimum, TIE_TOL)
    if tuple(states_got) != states:
        fails.append(f"{label} ground states {tuple(states_got)} != brute force {states}")
    if degenerate_got != (len(states) > 1):
        fails.append(f"{label} degenerate flag {degenerate_got} != {len(states) > 1}")
    return fails


def check_probability(label: str, ps: float) -> list[str]:
    if not 0.0 <= ps <= 1.0:
        return [f"{label} P_s={ps!r} outside [0, 1]"]
    return []


def check_norms(label: str, norms) -> list[str]:
    worst = max(abs(v - 1.0) for v in norms)
    if not worst <= 1e-9:
        return [f"{label} step norm off by {worst:.3e}"]
    return []


def entangling_per_step(n: int, drive: str) -> int:
    """ZZ couplings plus the 2-local CD strings for an all-to-all instance."""
    pairs = n * (n - 1) // 2
    return {"none": 1, "local-y": 1, "nc1": 3, "two-local": 5}[drive] * pairs


def check_entangling(label, count, n, drive, steps) -> list[str]:
    want = entangling_per_step(n, drive) * steps
    if count != want:
        return [f"{label} entangling count {count} != {want}"]
    return []


def check_ordering(label, ps_by_drive: dict[str, list[float]], order, strict: bool):
    """Mean P_s must follow ``order`` (best first).

    With ``strict`` the means must be strictly ordered; otherwise each paired
    difference may not fall below zero by more than three standard errors,
    which is what a sample of this size can resolve.
    """
    fails = []
    for better, worse in zip(order, order[1:]):
        diff = np.asarray(ps_by_drive[better]) - np.asarray(ps_by_drive[worse])
        mean = float(diff.mean())
        if strict:
            ok = mean > 0.0
        else:
            err = float(diff.std(ddof=1)) / math.sqrt(len(diff)) if len(diff) > 1 else 0.0
            ok = mean > -3.0 * err
        if not ok:
            fails.append(f"{label} mean P_s {better} - {worse} = {mean:.3e} over {len(diff)}")
    return fails


def check_bytes(label: str, first: bytes, second: bytes) -> list[str]:
    if first != second:
        return [f"{label} differs between two runs in one process"]
    return []


def check_gap_curve(label, gaps, delta_min, final_energy, mid_index, mid_gap):
    """Endpoint, minimum and mid-schedule checks on one gap curve."""
    low = np.sort(final_energy)
    fails = check_close(f"{label} gap at t=0", gaps[0], 2.0, 1e-9)
    fails += check_close(f"{label} gap at t=T", gaps[-1], float(low[1] - low[0]), 1e-9)
    fails += check_close(f"{label} mid-schedule gap", gaps[mid_index], mid_gap, 1e-9)
    if not delta_min <= min(gaps):
        fails.append(f"{label} delta_min {delta_min!r} above the grid minimum {min(gaps)!r}")
    return fails


def check_endpoints_agree(label, bare, driven) -> list[str]:
    return check_close(f"{label} t=0 gaps", bare[0], driven[0], 1e-10) + check_close(
        f"{label} t=T gaps", bare[-1], driven[-1], 1e-10
    )


def check_coefficients(label, got, want, tol=1e-8) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label} {got.size} coefficients, reference has {want.size}"]
    worst = float(np.abs(got - want).max(initial=0.0))
    if not worst <= tol:
        return [f"{label} coefficients off by {worst:.3e}"]
    return []


def check_action(label, two_local: float, nc1: float) -> list[str]:
    if not two_local <= nc1 * (1.0 + 1e-9) + 1e-12:
        return [f"{label} two-local action {two_local!r} above nc1 {nc1!r}"]
    return []


# --------------------------------------------------------------- self-tests


#: For each check, perturbations of a real sample it saw (its arguments, as
#: stored by the workload); the check must object to every one of them.
PERTURBATIONS = {
    "ground": (
        lambda a: check_ground(a[0], a[1] + 1e-6, *a[2:]),
        lambda a: check_ground(a[0], a[1], a[2][:-1] or (a[2][0] ^ 1,), *a[3:]),
    ),
    "probability": (lambda a: check_probability(a[0], 1.0 + 1e-6),),
    "norms": (lambda a: check_norms(a[0], [a[1][0] + 1e-6, *a[1][1:]]),),
    "entangling": (lambda a: check_entangling(a[0], a[1] + 1, *a[2:]),),
    "product-formula": (lambda a: check_close(a[0], a[1] + 1e-6, *a[2:]),),
    "ordering": (lambda a: check_ordering(a[0], a[1], a[2][::-1], a[3]),),
    "bytes": (lambda a: check_bytes(a[0], a[1], a[2][:-1] + bytes([a[2][-1] ^ 1])),),
    "gap-curve": (
        lambda a: check_gap_curve(a[0], a[1][::-1], *a[2:]),
        lambda a: check_gap_curve(a[0], a[1], min(a[1]) + 1e-6, *a[3:]),
        lambda a: check_gap_curve(*a[:5], a[5] + 1e-6),
    ),
    "endpoints": (lambda a: check_endpoints_agree(a[0], a[1], [a[2][0] + 1e-6, *a[2][1:]]),),
    "coefficients": (lambda a: check_coefficients(a[0], np.asarray(a[1]) + 1e-6, a[2]),),
    "action": (lambda a: check_action(a[0], a[2], a[1]),),
}


def self_test(samples: dict[str, tuple]) -> list[str]:
    """Names of checks that accepted a perturbed copy of their sample.

    A check that was not exercised in this run has no sample and is skipped.
    """
    return [
        f"{name} (perturbation {k})"
        for name, perturbations in PERTURBATIONS.items()
        if name in samples
        for k, perturb in enumerate(perturbations)
        if not perturb(samples[name])
    ]
