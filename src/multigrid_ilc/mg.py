"""Aggregate microgrid dynamics.

Each microgrid is a single-input single-output system: input is the net
power deviation entering the MG (W), output its frequency deviation
(rad/s).  Two model forms are provided:

* ``FirstOrderDroop`` -- a first-order lag dominated by the droop
  characteristic:  T * dw/dt = -D*w + p_in + p_load.
* ``SwingGovernor``   -- swing dynamics with a first-order governor:
  M * dw/dt = -D*w + p_m + p_in + p_load,  T_g * dp_m/dt = -p_m - w/R.

All quantities are SI deviations from the nominal operating point.  Each
model's ``law`` method gives its equations, which the engine traces into
the simulation and ``analysis.mg_linearize`` into the MG's linearization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import ValidationError


def _require_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not (value > 0.0) or not math.isfinite(value):
            raise ValidationError(f"{name} must be strictly positive, got {value!r}")


@dataclass(frozen=True)
class FirstOrderDroop:
    """Droop-dominated first-order MG model.

    T : lag time constant (s);  D : droop coefficient (W*s/rad).
    """

    T: float
    D: float
    p_load: float = 0.0
    rating: float | None = None
    name: str = ""

    def __post_init__(self):
        _require_positive(T=self.T, D=self.D)
        if self.rating is not None:
            _require_positive(rating=self.rating)

    states = dict(omega="frequency")  # each state's kind (see engine.KINDS)
    state_names = tuple(states)

    @property
    def droop_total(self) -> float:
        return self.D

    def law(self, y, p):
        """The MG equations: rates at the state ``y``, with ``p`` the net
        power entering the MG, load deviation included."""
        return ((-self.D * y[0] + p) / self.T,)


@dataclass(frozen=True)
class SwingGovernor:
    """Swing equation with first-order turbine governor.

    M : inertia (W*s^2/rad);  D : damping (W*s/rad);
    T_g : governor time constant (s);  inv_R : inverse droop 1/R (W*s/rad).
    """

    M: float
    D: float
    T_g: float
    inv_R: float
    p_load: float = 0.0
    rating: float | None = None
    name: str = ""

    def __post_init__(self):
        _require_positive(M=self.M, D=self.D, T_g=self.T_g, inv_R=self.inv_R)
        if self.rating is not None:
            _require_positive(rating=self.rating)

    states = dict(omega="frequency", p_m="power")
    state_names = tuple(states)

    @property
    def droop_total(self) -> float:
        return self.D + self.inv_R

    def law(self, y, p):
        """The MG equations (see :meth:`FirstOrderDroop.law`)."""
        w, p_m = y
        return ((-self.D * w + p_m + p) / self.M, (-p_m - self.inv_R * w) / self.T_g)


MgModel = Union[FirstOrderDroop, SwingGovernor]


def default_rating(model: MgModel, omega_nominal: float = 2.0 * math.pi * 50.0) -> float:
    """MG power rating used for standardized disturbances.

    When no explicit rating is configured, assume the total droop response
    corresponds to the full rating at a 5 % frequency excursion.
    """
    if model.rating is not None:
        return model.rating
    return 0.05 * omega_nominal * model.droop_total
