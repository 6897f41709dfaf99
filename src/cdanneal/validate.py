"""Self-contained oracle checks behind the ``validate`` CLI subcommand.

Each check pits a closed-form or digitized result against an independent
reference (dense matrices, least-squares solves, adaptive integration).
They are intentionally small and fast: the same comparisons run at larger
scale in the test suite; this module is the release gate and a mutation
probe (the tests patch in a broken coefficient function to prove the oracle
actually bites).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .gauge import (
    Ansatz,
    CompiledGauge,
    adiabatic_pair,
    assemble_hamiltonian,
    cd_coefficients,
    cd_terms,
    local_y_coefficients,
    minimize_action,
    nc1_coefficient,
    nc1_operator,
    two_local_basis,
)
from .pauli import PauliString, PauliSum, commutator, is_stoquastic, multiply, to_dense, trace_inner
from .problem import ProblemInstance, generate_instance, instance_seed
from .schedule import Schedule
from .simulator import DrivenHamiltonian, apply_pauli_exponential, ode_reference, trotter_evolve
from .spectrum import instantaneous_spectrum


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_string(rng: np.random.Generator, n: int) -> PauliString:
    return PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))


def _check_pauli_identities(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    n = 3
    worst = 0.0
    for _ in range(200):
        a, b, c = (_random_string(rng, n) for _ in range(3))
        ab, p_ab = multiply(a, b)
        left, p_left = multiply(ab, c)
        bc, p_bc = multiply(b, c)
        right, p_right = multiply(a, bc)
        if left != right or p_ab * p_left != p_bc * p_right:
            return CheckResult("pauli-identities", False, "associativity violated")
    for _ in range(40):
        a = PauliSum(n, {_random_string(rng, n): complex(*rng.standard_normal(2)) for _ in range(4)})
        b = PauliSum(n, {_random_string(rng, n): complex(*rng.standard_normal(2)) for _ in range(4)})
        anti = commutator(a, b) + commutator(b, a)
        worst = max(worst, max((abs(v) for _, v in anti), default=0.0))
        dense = to_dense(commutator(a, b))
        da, db = to_dense(a), to_dense(b)
        worst = max(worst, float(np.abs(dense - (da @ db - db @ da)).max()))
        self_inner = trace_inner(a, a)
        worst = max(worst, abs(self_inner.imag))
    passed = worst <= 1e-10
    return CheckResult("pauli-identities", passed, f"max residual {worst:.2e}")


def _check_local_y(seed: int) -> CheckResult:
    worst = 0.0
    for n in (1, 2, 3):
        for rep in range(5):
            inst = generate_instance(n, instance_seed(seed, 100 * n + rep))
            basis = [
                PauliSum(n, {PauliString.single(n, i, "Y"): 1.0}) for i in range(n)
            ]
            for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
                beta = local_y_coefficients(inst, lam)
                H, dH = adiabatic_pair(inst, lam)
                solved = minimize_action(basis, H, dH)
                worst = max(worst, float(np.abs(beta - solved.coefficients).max()))
    passed = worst <= 1e-10
    return CheckResult("local-y-oracle", passed, f"max |closed form - solver| {worst:.2e}")


def _check_nc1(seed: int) -> CheckResult:
    worst = 0.0
    for n in (2, 3, 4):
        for rep in range(5):
            inst = generate_instance(n, instance_seed(seed, 200 * n + rep))
            for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
                H, dH = adiabatic_pair(inst, lam)
                solved = minimize_action([nc1_operator(H, dH)], H, dH)
                worst = max(
                    worst, float(abs(nc1_coefficient(inst, lam) - solved.coefficients[0]))
                )
    passed = worst <= 1e-8
    return CheckResult("nc1-oracle", passed, f"max |closed form - solver| {worst:.2e}")


def _check_two_local(seed: int) -> CheckResult:
    """The compiled two-local solve against ``minimize_action`` at n = 2 to 4.

    Per size, three generated instances and two variants of the first: its
    fields zeroed, and its first coupling removed.  Without fields, the XY
    images of H_p vanish at n = 2, so lam = 1 leaves a zero XY diagonal that
    the certificate rejects: the check runs the Schur solve and its
    ``_solve_normal`` fallback both.
    """
    worst = 0.0
    for n in (2, 3, 4):
        basis = two_local_basis(n)
        generated = [generate_instance(n, instance_seed(seed, 300 * n + rep)) for rep in range(3)]
        first = generated[0]
        variants = [
            ProblemInstance(n, first.couplings, (0.0,) * n, seed=first.seed),
            ProblemInstance(n, first.couplings[1:], first.fields, seed=first.seed),
        ]
        for inst in generated + variants:
            gauge = CompiledGauge(inst, Ansatz.TWO_LOCAL)
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                compiled = gauge.solve_two_local(lam)
                solved = minimize_action(basis, *adiabatic_pair(inst, lam))
                if compiled.condition_warning != solved.condition_warning:
                    return CheckResult(
                        "two-local-oracle", False, f"condition flags differ at n={n}, lam={lam}"
                    )
                worst = max(
                    worst,
                    float(np.abs(compiled.coefficients - solved.coefficients).max()),
                    abs(compiled.residual_action - solved.residual_action),
                )
    passed = worst <= 1e-10
    return CheckResult("two-local-oracle", passed, f"max |compiled - solver| {worst:.2e}")


def _check_closed_form_blocks(seed: int) -> CheckResult:
    """The local-y and nc1 closed forms against the compiled two-local action.

    Both families lie inside the two-local basis.  local-y minimizes the
    action over the Y_i sub-block; nc1 over the single direction whose
    basis weights are its source values (h_i on Y_i, J_ij on the symmetrized
    Y_i Z_j element, 0 on the X_i Y_j elements), where the minimizing scale
    is the per-source coefficient -2 alpha_1.
    """
    worst = 0.0
    for n in (2, 3, 4):
        pairs = np.triu_indices(n, 1)
        for rep in range(3):
            inst = generate_instance(n, instance_seed(seed, 400 * n + rep))
            gauge = CompiledGauge(inst, Ansatz.TWO_LOCAL)
            direction = np.concatenate(
                [inst.field_array(), inst.coupling_matrix()[pairs], np.zeros(len(pairs[0]))]
            )
            for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
                gram, source = gauge.normal_equations(lam)
                beta = np.linalg.solve(gram[:n, :n], -source[:n])
                scale = -(direction @ source) / (direction @ gram @ direction)
                worst = max(
                    worst,
                    float(np.abs(local_y_coefficients(inst, lam) - beta).max()),
                    float(abs(-2.0 * nc1_coefficient(inst, lam) - scale)),
                )
    passed = worst <= 1e-10
    return CheckResult(
        "closed-form-blocks", passed, f"max |closed form - two-local blocks| {worst:.2e}"
    )


def _check_compiled_table(seed: int) -> CheckResult:
    """The compiled operators against the Pauli algebra they replace.

    For every drive at n = 2 to 6, ``DrivenHamiltonian.dense``, built from
    the per-X-mask rows, against ``to_dense(assemble_hamiltonian(...))``
    and one fused ``step`` against the canonical-order product of
    ``apply_pauli_exponential``: X by site, nonzero Z and ZZ terms, then the
    CD strings.  At n = 5 and 6 the nc1 and two-local steps move the state
    through several layouts.
    """
    worst = 0.0
    dt = 0.3
    for n in (2, 3, 4, 5, 6):
        inst = generate_instance(n, instance_seed(seed, 500 + n))
        rng = np.random.default_rng(instance_seed(seed, 600 + n))
        psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        psi /= np.linalg.norm(psi)
        for ansatz in Ansatz:
            hamiltonian = DrivenHamiltonian(inst, ansatz)
            for lam, lam_dot in ((0.3, 0.8), (0.6, 1.7)):
                reference = to_dense(assemble_hamiltonian(inst, lam, lam_dot, ansatz))
                worst = max(worst, float(np.abs(hamiltonian.dense(lam, lam_dot) - reference).max()))
                terms = [(PauliString.single(n, i, "X"), -(1.0 - lam)) for i in range(n)]
                terms += [(PauliString.single(n, i, "Z"), lam * h) for i, h in enumerate(inst.fields)]
                terms += [
                    (PauliString(n, 0, (1 << i) | (1 << j)), lam * value)
                    for i, j, value in inst.couplings
                ]
                terms += zip(cd_terms(inst, ansatz), cd_coefficients(inst, ansatz, lam, lam_dot))
                expected = psi.copy()
                for string, value in terms:
                    if value != 0.0:
                        apply_pauli_exponential(expected, string, dt * value)
                stepped = psi.copy()
                hamiltonian.step(stepped, dt, lam, lam_dot)
                worst = max(worst, float(np.abs(stepped - expected).max()))
    return CheckResult(
        "compiled-table", worst <= 1e-12, f"max |compiled - Pauli algebra| {worst:.2e}"
    )


def _check_cd_non_stoquastic(seed: int) -> CheckResult:
    """The paper's premise: every CD drive leaves the stoquastic class, and ``none`` stays.

    At one point of nonzero rate, n = 2 to 4.  The CD strings have odd Y
    counts, which put imaginary entries off the diagonal.
    """
    wrong = []
    for n in (2, 3, 4):
        inst = generate_instance(n, instance_seed(seed, 700 + n))
        for tag in Ansatz:
            if is_stoquastic(assemble_hamiltonian(inst, 0.4, 1.3, tag)) != (tag is Ansatz.NONE):
                wrong.append(f"{tag.value} at n={n}")
    detail = f"wrong class: {', '.join(wrong)}" if wrong else "only none is stoquastic"
    return CheckResult("cd-non-stoquastic", not wrong, detail)


def _check_trotter_scaling(seed: int) -> CheckResult:
    ratios = []
    for tag in (Ansatz.NONE, Ansatz.LOCAL_Y, Ansatz.NC1):
        inst = generate_instance(3, instance_seed(seed, 17))
        reference = ode_reference(inst, Schedule(1.0, 1), tag, 1e-11)
        errors = []
        for steps in (20, 40, 80):
            final = trotter_evolve(inst, Schedule(1.0, steps), tag).final_state
            errors.append(float(np.linalg.norm(final - reference)))
        ratios.extend(errors[i] / errors[i + 1] for i in range(2))
    passed = all(1.5 <= r <= 3.0 for r in ratios)
    return CheckResult(
        "trotter-scaling",
        passed,
        "halving ratios " + ", ".join(f"{r:.2f}" for r in ratios),
    )


def _check_endpoint_gaps(seed: int) -> CheckResult:
    sched = Schedule(1.0, 20)
    worst = 0.0
    for n, index in ((4, 23), (9, 24)):  # a dense and a Lanczos solve
        inst = generate_instance(n, instance_seed(seed, index))
        none, nc1 = (DrivenHamiltonian(inst, tag) for tag in (Ansatz.NONE, Ansatz.NC1))
        for t in (0.0, sched.total_time):
            point = (sched.lam(t), sched.lam_dot(t))
            gaps = [np.diff(instantaneous_spectrum(h, *point))[0] for h in (none, nc1)]
            worst = max(worst, float(abs(gaps[0] - gaps[1])))
    return CheckResult(
        "endpoint-gap-equality", worst <= 1e-10, f"endpoint mismatch {worst:.2e}"
    )


def _check_unitarity(seed: int) -> CheckResult:
    worst = 0.0
    for tag in (Ansatz.NONE, Ansatz.NC1):
        report = trotter_evolve(
            generate_instance(5, instance_seed(seed, 31)), Schedule(1.0, 20), tag
        )
        worst = max(worst, max(abs(norm - 1.0) for norm in report.step_norms))
    return CheckResult("unitarity", worst <= 1e-9, f"max |norm - 1| {worst:.2e}")


def run_validation_checks(*, seed: int = 20220301) -> list[CheckResult]:
    """Run every oracle check; a thrown exception fails its check."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    specs = [
        ("pauli-identities", lambda: _check_pauli_identities(seed)),
        ("local-y-oracle", lambda: _check_local_y(seed)),
        ("nc1-oracle", lambda: _check_nc1(seed)),
        ("two-local-oracle", lambda: _check_two_local(seed)),
        ("closed-form-blocks", lambda: _check_closed_form_blocks(seed)),
        ("compiled-table", lambda: _check_compiled_table(seed)),
        ("cd-non-stoquastic", lambda: _check_cd_non_stoquastic(seed)),
        ("trotter-scaling", lambda: _check_trotter_scaling(seed)),
        ("endpoint-gap-equality", lambda: _check_endpoint_gaps(seed)),
        ("unitarity", lambda: _check_unitarity(seed)),
    ]
    results = []
    for name, runner in specs:
        try:
            results.append(runner())
        except Exception as exc:  # the gate must report, not crash
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
