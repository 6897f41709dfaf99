"""Annealing schedule: the interpolation profile, its rate, and the time grid.

The default profile is the nested-sine form
``lam(t) = sin^2[(pi/2) sin^2(pi t / 2T)]``, which rises monotonically from 0
to 1 with zero rate at both endpoints, so rate-proportional driving terms
switch off exactly at the start and end of the protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import ParameterError

_TIME_SLACK = 1e-9  # relative slack for endpoint rounding in t checks


class GridPoint(NamedTuple):
    t: float
    lam: float
    lam_dot: float


@dataclass(frozen=True)
class Schedule:
    """Total time and step count for one digitized evolution."""

    total_time: float = 1.0
    steps: int = 20

    def __post_init__(self):
        # lam computes pi t / 2T and lam_dot pi^2 / 4T: both must stay finite.
        T = self.total_time
        if not (T > 0.0 and math.isfinite(math.pi * T) and math.isfinite(math.pi**2 / (4.0 * T))):
            raise ParameterError(
                f"total time must be positive, with pi T and pi^2/4T finite, got {T}"
            )
        if self.steps < 1:
            raise ParameterError(f"step count must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.total_time / self.steps

    def _check_time(self, t: float) -> float:
        slack = _TIME_SLACK * self.total_time
        if not -slack <= t <= self.total_time + slack:
            raise ParameterError(
                f"time {t} outside [0, {self.total_time}]"
            )
        return min(max(t, 0.0), self.total_time)

    def lam(self, t: float) -> float:
        """Interpolation value in [0, 1]; 0 at t=0 and 1 at t=T."""
        t = self._check_time(t)
        inner = math.sin(math.pi * t / (2.0 * self.total_time)) ** 2
        return math.sin(0.5 * math.pi * inner) ** 2

    def lam_dot(self, t: float) -> float:
        """Analytic time derivative of ``lam``; exactly 0 at both endpoints."""
        t = self._check_time(t)
        if t in (0.0, self.total_time):
            # At t = T the formula's sin(pi) rounds to 1.2e-16, not 0.
            return 0.0
        v = math.pi * t / (2.0 * self.total_time)
        u = 0.5 * math.pi * math.sin(v) ** 2
        return (
            math.pi**2 / (4.0 * self.total_time) * math.sin(2.0 * u) * math.sin(2.0 * v)
        )

    @cached_property
    def grid(self) -> tuple[GridPoint, ...]:
        """Per-step coefficient evaluation points t_k = k*dt for k = 1..M.

        Each point carries (t, lam, lam_dot), evaluated at the right end of
        its step; the last is exactly (T, 1, 0), as M*dt can round below T.
        Formed on first read and kept with the schedule.
        """
        times = [k * self.dt for k in range(1, self.steps)] + [self.total_time]
        return tuple(GridPoint(t, self.lam(t), self.lam_dot(t)) for t in times)
