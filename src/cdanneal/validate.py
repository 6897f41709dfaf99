"""Self-contained oracle checks behind the ``validate`` CLI subcommand.

Each check pits a closed-form or digitized result against an independent
reference (dense matrices, least-squares solves, adaptive integration).
They are intentionally small and fast: the same comparisons run at larger
scale in the test suite; this module is the release gate and a mutation
probe (a broken coefficient function can be injected to prove the oracle
actually bites).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gauge import (
    Ansatz,
    CompiledGauge,
    adiabatic_pair,
    local_y_coefficients,
    minimize_action,
    nc1_coefficient,
    nc_ansatz_terms,
    two_local_basis,
)
from .pauli import PauliString, PauliSum, commutator, multiply, to_dense, trace_inner
from .problem import generate_instance, instance_seed
from .schedule import Schedule
from .simulator import ode_reference, trotter_evolve
from .spectrum import gap_curve


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
                solved = minimize_action(basis, H, dH, lam=lam)
                reference = np.array([solved.coefficients[f"b{i}"] for i in range(n)])
                worst = max(worst, float(np.abs(beta - reference).max()))
    passed = worst <= 1e-10
    return CheckResult("local-y-oracle", passed, f"max |closed form - solver| {worst:.2e}")


def _check_nc1(seed: int, nc1_fn: Callable | None) -> CheckResult:
    fn = nc1_fn if nc1_fn is not None else nc1_coefficient
    worst = 0.0
    for n in (2, 3, 4):
        for rep in range(5):
            inst = generate_instance(n, instance_seed(seed, 200 * n + rep))
            for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
                H, dH = adiabatic_pair(inst, lam)
                basis_op = nc_ansatz_terms(H, dH, 1)[0]
                solved = minimize_action([basis_op], H, dH, lam=lam)
                worst = max(
                    worst, abs(fn(inst, lam) - solved.coefficients["b0"])
                )
    passed = worst <= 1e-8
    return CheckResult("nc1-oracle", passed, f"max |closed form - solver| {worst:.2e}")


def _check_two_local(seed: int) -> CheckResult:
    worst = 0.0
    for n in (2, 3):
        basis, labels = two_local_basis(n)
        for rep in range(3):
            inst = generate_instance(n, instance_seed(seed, 300 * n + rep))
            gauge = CompiledGauge(inst, Ansatz.TWO_LOCAL)
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                compiled = gauge.solve_two_local(lam)
                solved = minimize_action(basis, *adiabatic_pair(inst, lam), labels=labels)
                if compiled.condition_warning != solved.condition_warning:
                    return CheckResult(
                        "two-local-oracle", False, f"condition flags differ at n={n}, lam={lam}"
                    )
                worst = max(
                    worst,
                    float(np.abs(compiled.vector() - solved.vector()).max()),
                    abs(compiled.residual_action - solved.residual_action),
                )
    passed = worst <= 1e-10
    return CheckResult("two-local-oracle", passed, f"max |compiled - solver| {worst:.2e}")


def _check_trotter_scaling(seed: int) -> CheckResult:
    ratios = []
    for tag in (Ansatz.NONE, Ansatz.LOCAL_Y, Ansatz.NC1):
        inst = generate_instance(3, instance_seed(seed, 17))
        reference = ode_reference(inst, Schedule(1.0, 1), tag, 1e-11)
        errors = []
        for steps in (20, 40, 80):
            final = trotter_evolve(inst, Schedule(1.0, steps), tag).final_state
            errors.append(
                float(np.linalg.norm(final.amplitudes - reference.amplitudes))
            )
        ratios.extend(errors[i] / errors[i + 1] for i in range(2))
    passed = all(1.5 <= r <= 3.0 for r in ratios)
    return CheckResult(
        "trotter-scaling",
        passed,
        "halving ratios " + ", ".join(f"{r:.2f}" for r in ratios),
    )


def _check_endpoint_gaps(seed: int) -> CheckResult:
    inst = generate_instance(4, instance_seed(seed, 23))
    sched = Schedule(1.0, 20)
    curves = {
        tag: gap_curve(inst, sched, tag, samples=21, refine=False)
        for tag in (Ansatz.NONE, Ansatz.NC1)
    }
    start = abs(curves[Ansatz.NONE].gaps[0] - curves[Ansatz.NC1].gaps[0])
    end = abs(curves[Ansatz.NONE].gaps[-1] - curves[Ansatz.NC1].gaps[-1])
    worst = max(start, end)
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


def run_validation_checks(
    *, seed: int = 20220301, nc1_fn: Callable | None = None
) -> list[CheckResult]:
    """Run every oracle check; a thrown exception fails its check."""
    specs = [
        ("pauli-identities", lambda: _check_pauli_identities(seed)),
        ("local-y-oracle", lambda: _check_local_y(seed)),
        ("nc1-oracle", lambda: _check_nc1(seed, nc1_fn)),
        ("two-local-oracle", lambda: _check_two_local(seed)),
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
