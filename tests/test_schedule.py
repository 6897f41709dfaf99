import math

import numpy as np
import pytest

from cdanneal.errors import ParameterError
from cdanneal.gauge import Ansatz
from cdanneal.problem import generate_instance, instance_seed
from cdanneal.schedule import Schedule
from cdanneal.simulator import DrivenHamiltonian


def test_endpoint_values():
    sched = Schedule(1.0, 20)
    assert sched.lam(0.0) == 0.0
    assert sched.lam(1.0) == pytest.approx(1.0, abs=1e-15)
    assert sched.lam(0.5) == pytest.approx(0.5, abs=1e-12)


def test_endpoint_rates_vanish():
    # Exactly, so that the CD terms switch off exactly at the endpoints,
    # also at times a hair outside [0, T] that clamp to them.
    for total in (1.0, 2.5, 50.0):
        sched = Schedule(total, 10)
        assert sched.lam_dot(0.0) == sched.lam_dot(total) == 0.0
        assert sched.lam_dot(-1e-12 * total) == sched.lam_dot(total * (1 + 1e-12)) == 0.0
        assert sched.grid[-1].lam_dot == 0.0


def test_last_grid_point_has_real_operator_rows():
    # lam_dot = 0 at t = T switches nc1's CD values off, so its operator
    # rows there are real, and so is the gap solve that reads them.
    sched = Schedule(1.0, 20)
    inst = generate_instance(9, instance_seed(20220301, 24))
    hamiltonian = DrivenHamiltonian(inst, Ansatz.NC1)
    last = sched.grid[-1]
    rows = hamiltonian.operator_rows(hamiltonian.coefficients(last.lam, last.lam_dot))
    assert rows.dtype == np.float64


def test_midpoint_rate_analytic():
    # Frozen from the chain rule at t = T/2, T = 1: pi^2 / 4.
    sched = Schedule(1.0, 20)
    assert sched.lam_dot(0.5) == pytest.approx(math.pi**2 / 4.0, abs=1e-12)


def test_rate_matches_finite_differences():
    sched = Schedule(1.0, 20)
    rng = np.random.default_rng(0)
    step = 1e-6
    for t in rng.uniform(step, 1.0 - step, size=100):
        numeric = (sched.lam(t + step) - sched.lam(t - step)) / (2.0 * step)
        assert sched.lam_dot(t) == pytest.approx(numeric, abs=1e-7)


def test_monotone_profile():
    sched = Schedule(1.0, 20)
    values = [sched.lam(t) for t in np.linspace(0.0, 1.0, 501)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_grid_default_protocol():
    sched = Schedule(1.0, 20)
    grid = sched.grid
    assert sched.grid is grid  # formed once per schedule
    assert len(grid) == 20
    assert [p.t for p in grid] == pytest.approx(
        [0.05 * k for k in range(1, 21)], abs=1e-12
    )
    lams = [p.lam for p in grid]
    assert all(b >= a for a, b in zip(lams, lams[1:]))
    assert lams[-1] == pytest.approx(1.0, abs=1e-15)
    assert grid[-1].lam_dot == pytest.approx(0.0, abs=1e-12)


def test_grid_single_step():
    (point,) = Schedule(1.0, 1).grid
    assert point.t == 1.0
    assert point.lam == pytest.approx(1.0, abs=1e-15)
    assert point.lam_dot == pytest.approx(0.0, abs=1e-12)


def test_rate_integrates_to_unity():
    sched = Schedule(1.0, 400)
    total = sum(p.lam_dot for p in sched.grid) * sched.dt
    assert total == pytest.approx(1.0, abs=1e-4)


def test_domain_validation():
    sched = Schedule(1.0, 20)
    with pytest.raises(ParameterError):
        sched.lam(-0.1)
    with pytest.raises(ParameterError):
        sched.lam(1.1)
    with pytest.raises(ParameterError):
        sched.lam_dot(2.0)
    with pytest.raises(ParameterError):
        Schedule(1.0, 0)
    with pytest.raises(ParameterError):
        Schedule(0.0, 5)


def test_total_time_range():
    # lam computes pi t / 2T and lam_dot pi^2 / 4T; a T at which either
    # overflows is refused, while T just inside the range keeps both finite.
    for total in (1e308, 1e-310, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="finite"):
            Schedule(total, 5)
    for total in (5e307, 1e-307):
        for point in Schedule(total, 5).grid:
            assert math.isfinite(point.lam) and math.isfinite(point.lam_dot)
