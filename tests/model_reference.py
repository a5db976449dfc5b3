"""Test-only references for the ILC models.

The package defines each scheme by its law alone (``ilc.SCHEME``).  This
module states each scheme's steady state a second time, in closed form and
derived by hand, so that the tests can check the law and the numeric
equilibria against it.  It also keeps the scalar wrappers of the unit and
simulated laws that only the tests call.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from multigrid_ilc import ilc
from multigrid_ilc.errors import NumericalError
from multigrid_ilc.ilc import GFM, Gains, IlcPhysical, IlcUnit, make_sim_derivative


class NoEquilibrium(NumericalError):
    """The requested boundary conditions admit no equilibrium."""


@dataclass(frozen=True)
class EquilibriumBoundary:
    """Boundary conditions for an ILC equilibrium.

    ``omega1, omega2`` are the steady frequencies of the two connected MGs;
    ``p1`` is the steady power the ILC injects into the side-1 MG (the
    side-2 power follows from the DC balance).
    """

    omega1: float = 0.0
    omega2: float = 0.0
    p1: float = 0.0


def _consistent(a: float, b: float, what: str) -> None:
    tol = 1e-9 * max(abs(a), abs(b)) + 1e-15
    if abs(a - b) > tol:
        raise NoEquilibrium(f"inconsistent boundary: {what} ({a:g} vs {b:g})")


def _steady_vdc_balance(phys: IlcPhysical, vdc: float, p1: float) -> float:
    """Side-2 power that holds the DC bus at ``vdc`` given side-1 power."""
    return -p1 - phys.k_dc * vdc * (vdc + phys.v_dc_ref)


def _asin_power(p: float, b: float, what: str) -> float:
    if abs(p) > b:
        raise NoEquilibrium(f"required transfer {p:g} W exceeds filter limit {b:g} W ({what})")
    return math.asin(p / b)


def _dfd1_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    _consistent(g.k_omega1 * w1, g.k_omega2 * w2, "k_omega1*w1 = k_omega2*w2")
    p2 = -p1
    return (p1, p2, 0.0, p1 / g.k_i, p2 / g.k_idc)


def _dfd2_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    _consistent(w1, w2, "w1 = w2")
    xi = (p1 + (g.k_omega1 - g.k_omega2) * w1) / g.k_i
    return (p1, -p1, 0.0, xi, 0.0)


def _dacd_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = g.k_omega1 * w1 / g.k_v1
    _consistent(vdc, g.k_omega2 * w2 / g.k_v2, "normalized frequencies")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    xi1 = (p1 - g.k_v1 * vdc + g.k_omega1 * w1) / g.k_i1
    xi2 = (p2 - g.k_v2 * vdc + g.k_omega2 * w2) / g.k_i2
    return (p1, p2, vdc, xi1, xi2)


def _matching_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = w1 / g.m1
    _consistent(vdc, w2 / g.m2, "w1/m1 = w2/m2")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    eta1 = _asin_power(p1, phys.b, "side 1")
    eta2 = _asin_power(p2, phys.b, "side 2")
    return (eta1, eta2, vdc)


def _gfmfd_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    _consistent(w1, w2, "w1 = w2")
    p2 = -p1
    # two linear steady-state relations in (zeta, p_eq)
    a11, a12 = -g.kappa_s1 * g.k_idc, g.k_i1
    a21, a22 = -g.kappa_s2 * g.k_idc, -g.k_i2
    r1 = -w1 / g.m_p1 - p1
    r2 = -w2 / g.m_p2 - p2
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-300:
        raise NoEquilibrium("degenerate DC/equalization gain combination")
    zeta = (r1 * a22 - a12 * r2) / det
    p_eq = (a11 * r2 - r1 * a21) / det
    eta1 = _asin_power(p1, phys.b, "side 1")
    eta2 = _asin_power(p2, phys.b, "side 2")
    return (eta1, eta2, 0.0, zeta, p_eq, p1, p2)


def _gfmdd_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = g.k_omega1 * w1 / g.k_v1
    _consistent(vdc, g.k_omega2 * w2 / g.k_v2, "normalized frequencies")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    xi1 = (w1 / g.m_p1 + p1 - g.k_v1 * vdc) / g.k_i1
    xi2 = (w2 / g.m_p2 + p2 - g.k_v2 * vdc) / g.k_i2
    eta1 = _asin_power(p1, phys.b, "side 1")
    eta2 = _asin_power(p2, phys.b, "side 2")
    return (eta1, eta2, vdc, xi1, xi2, p1, p2)


def _ddm_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = w1 / g.m1
    _consistent(g.k_v2 * vdc, g.k_omega2 * w2, "normalized frequencies")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    eta = _asin_power(p1, phys.b, "side 1")
    xi2 = (p2 - g.k_v2 * vdc + g.k_omega2 * w2) / g.k_i2
    return (eta, xi2, p2, vdc)


def _gflgfm_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = g.k_omega1 * w1 / g.k_v1
    _consistent(vdc, g.k_omega2 * w2 / g.k_v2, "normalized frequencies")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    eta = _asin_power(p1, phys.b, "side 1")
    xi1 = (w1 / g.m_p1 + p1 - g.k_v1 * vdc) / g.k_i1
    xi2 = (p2 - g.k_v2 * vdc + g.k_omega2 * w2) / g.k_i2
    return (eta, xi1, p1, xi2, p2, vdc)


# per scheme: (gains, physical, w1, w2, p1) -> the steady state in
# simulation order, where w1, w2 are the steady frequencies of the two MGs
# and p1 the steady power injected into the side-1 MG
EQUILIBRIUM: dict[str, Callable[..., tuple[float, ...]]] = {
    "dual-freq-droop-1": _dfd1_equilibrium,
    "dual-freq-droop-2": _dfd2_equilibrium,
    "dual-acdc-droop": _dacd_equilibrium,
    "matching": _matching_equilibrium,
    "gfm-freq-droop": _gfmfd_equilibrium,
    "gfm-dual-droop": _gfmdd_equilibrium,
    "dual-droop-matching": _ddm_equilibrium,
    "gfl-gfm-dual-droop": _gflgfm_equilibrium,
}


def ilc_equilibrium(unit: IlcUnit, boundary: EquilibriumBoundary) -> tuple[float, ...]:
    """Closed-form equilibrium of one ILC in simulation state order.

    Raises :class:`NoEquilibrium` when the boundary violates the scheme's
    steady-state constraints (e.g. inconsistent normalized frequencies, or
    a transfer beyond the filter limit of a grid-forming side).
    """
    return EQUILIBRIUM[unit.scheme](
        unit.gains, unit.physical, boundary.omega1, boundary.omega2, boundary.p1
    )


@lru_cache(maxsize=None)
def unit_rhs(unit: IlcUnit) -> Callable:
    """The unit equations on the real DC bus and filter, built once per unit."""
    return ilc._unit_law(unit, ilc._dc_bus(unit.physical), ilc._filter_power(unit.physical.b))


def ilc_derivative(unit: IlcUnit, state, inputs) -> tuple[float, ...]:
    """Full state derivative of one ILC unit.

    ``inputs`` is ``(omega1, omega2)`` for GFL and partial schemes and
    ``(p1, p2)`` -- the powers leaving the converter -- for GFM schemes.
    """
    ilc._check_state(unit, state, inputs)
    rates, _, _ = unit_rhs(unit)(tuple(state), *inputs)
    return rates


def ilc_output(unit: IlcUnit, state, inputs=(0.0, 0.0)) -> tuple[float, float]:
    """Port outputs of one ILC unit.

    GFL/partial: the powers *entering* the ILC, ``(-p1, -p2)``.
    GFM: the frequency references ``(omega_ref1, omega_ref2)``.
    """
    ilc._check_state(unit, state)
    _, out1, out2 = unit_rhs(unit)(tuple(state), *inputs)
    if unit.port_kind == GFM:
        return out1, out2
    return -out1, -out2


def connection_powers(ode, y) -> list[tuple[float, float]]:
    """Per-ILC (p1, p2) at the state ``y`` of an ``OdeSystem``: the powers
    injected into the two connected MGs, from each unit's scalar simulated
    law (the reference for ``Trajectory.connection_power``)."""
    out = []
    for l, unit in enumerate(ode.units):
        names = ilc.sim_state_names(unit)
        lo = ode.column("ilc", l, names[0])
        _, pa, pb = make_sim_derivative(unit)(y[lo:lo + len(names)], 0.0, 0.0)
        out.append((pa, pb))
    return out
