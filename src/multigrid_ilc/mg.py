"""Aggregate microgrid dynamics.

Each microgrid is a single-input single-output system: input is the net
power deviation entering the MG (W), output its frequency deviation
(rad/s).  Two model forms are provided:

* ``FirstOrderDroop`` -- a first-order lag dominated by the droop
  characteristic:  T * dw/dt = -D*w + p_in + p_load.
* ``SwingGovernor``   -- swing dynamics with a first-order governor:
  M * dw/dt = -D*w + p_m + p_in + p_load,  T_g * dp_m/dt = -p_m - w/R.

All quantities are SI deviations from the nominal operating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import NonFiniteInput, ValidationError
from .linear import LinearSystem


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

    state_names = ("omega",)

    @property
    def droop_total(self) -> float:
        return self.D


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

    state_names = ("omega", "p_m")

    @property
    def droop_total(self) -> float:
        return self.D + self.inv_R


MgModel = Union[FirstOrderDroop, SwingGovernor]


def default_rating(model: MgModel, omega_nominal: float = 2.0 * math.pi * 50.0) -> float:
    """MG power rating used for standardized disturbances.

    When no explicit rating is configured, assume the total droop response
    corresponds to the full rating at a 5 % frequency excursion.
    """
    if model.rating is not None:
        return model.rating
    return 0.05 * omega_nominal * model.droop_total


def mg_rhs(model: MgModel) -> Callable:
    """The MG equations: rhs(state, p) -> rates, with ``p`` the net power
    entering the MG, load deviation included."""
    if isinstance(model, FirstOrderDroop):
        t_lag, d = model.T, model.D

        def rhs(y, p):
            return ((-d * y[0] + p) / t_lag,)

        return rhs
    m, d, t_g, inv_r = model.M, model.D, model.T_g, model.inv_R

    def rhs(y, p):
        w, p_m = y
        return ((-d * w + p_m + p) / m, (-p_m - inv_r * w) / t_g)

    return rhs


def mg_derivative(
    model: MgModel, state: tuple[float, ...], p_in: float, p_load: float | None = None
) -> tuple[float, ...]:
    """State derivative of one MG given the net power entering it.

    ``p_load`` overrides the model's baseline load deviation when given
    (the engine schedules load steps this way).
    """
    if not math.isfinite(p_in):
        raise NonFiniteInput(f"p_in={p_in!r}")
    load = model.p_load if p_load is None else p_load
    return mg_rhs(model)(tuple(state), p_in + load)


def mg_linearize(model: MgModel) -> LinearSystem:
    """Exact linearization with input p (W) and output omega (rad/s).

    A and B are derived from :func:`mg_rhs`, the equations the engine
    integrates, evaluated on the unit vectors of (state, p); the model is
    linear in them.  Adding 0.0 turns the signed zeros of that evaluation
    into plain zeros.
    """
    n = len(model.state_names)
    eye = np.eye(n + 1)
    ab = np.array(mg_rhs(model)(eye[:n], eye[n])) + 0.0
    return LinearSystem(
        a=ab[:, :n], b=ab[:, n:], c=eye[:1, :n], d=np.zeros((1, 1)),
        state_labels=model.state_names, input_labels=("p",), output_labels=("omega",),
    )
