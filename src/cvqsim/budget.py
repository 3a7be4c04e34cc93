"""Fiber-loop resource arithmetic: transmission and pulse capacity.

A delay loop of length L meters at group velocity v holds floor(L/(v*tau))
pulses of width tau, and a pulse circulating through it keeps a fraction
10^(-loss_db_per_km * L_km / 10) of its energy per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 299792458.0
GROUP_VELOCITY_SILICA = SPEED_OF_LIGHT / 1.5    # ~2e8 m/s in fiber

# guards floor() against 100/(2e8*50e-9) style float dust just below an
# integer; physical capacities are nowhere near 1e-9 pulses of ambiguity
_CAPACITY_EPS = 1e-9


@dataclass(frozen=True)
class BudgetInput:
    fiber_loss_db_per_km: float
    length_m: float
    pulse_width_s: float
    group_velocity: float = GROUP_VELOCITY_SILICA

    def __post_init__(self):
        if not 0 <= self.fiber_loss_db_per_km < math.inf:
            raise ValueError("fiber loss must be finite and >= 0 dB/km")
        for name in ("length_m", "pulse_width_s", "group_velocity"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class BudgetReport:
    transmission: float
    capacity: int
    circulation_time_s: float
    loss_per_circulation_db: float

    def to_dict(self) -> dict:
        return {"transmission": self.transmission,
                "capacity": self.capacity,
                "circulation_time_s": self.circulation_time_s,
                "loss_per_circulation_db": self.loss_per_circulation_db}

    def to_csv(self) -> str:
        d = self.to_dict()
        keys = sorted(d)
        return (",".join(keys) + "\n"
                + ",".join(repr(d[k]) if isinstance(d[k], float) else str(d[k])
                           for k in keys) + "\n")


def transmission(loss_db_per_km: float, length_m: float) -> float:
    """Power transmission of a fiber span; multiplicative in length."""
    if not 0 <= loss_db_per_km < math.inf:
        raise ValueError("fiber loss must be finite and >= 0 dB/km")
    if not 0 <= length_m < math.inf:
        raise ValueError("length must be finite and >= 0")
    return 10.0 ** (-loss_db_per_km * (length_m / 1000.0) / 10.0)


def capacity(length_m: float, pulse_width_s: float,
             group_velocity: float = GROUP_VELOCITY_SILICA) -> int:
    """Number of pulses a loop of this length holds at once."""
    if not 0 <= length_m < math.inf:
        raise ValueError("length must be finite and >= 0")
    if not (0 < pulse_width_s < math.inf and 0 < group_velocity < math.inf):
        raise ValueError(
            "pulse width and group velocity must be finite and positive")
    pulse_length_m = group_velocity * pulse_width_s
    pulses = length_m / pulse_length_m if pulse_length_m else math.inf
    if pulses == math.inf:
        raise ValueError("pulse capacity overflows: the loop is too long "
                         "for the pulse width and group velocity")
    return int(math.floor(pulses + _CAPACITY_EPS))


def report(budget: BudgetInput) -> BudgetReport:
    eta = transmission(budget.fiber_loss_db_per_km, budget.length_m)
    return BudgetReport(
        transmission=eta,
        capacity=capacity(budget.length_m, budget.pulse_width_s,
                          budget.group_velocity),
        circulation_time_s=budget.length_m / budget.group_velocity,
        loss_per_circulation_db=(budget.fiber_loss_db_per_km
                                 * budget.length_m / 1000.0),
    )
