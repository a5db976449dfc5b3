"""Test-only references for the ILC models.

The package defines each scheme by its law alone (``ilc.SCHEME``).  This
module states each scheme's steady state a second time, in closed form and
derived by hand, so that the tests can check the law and the numeric
equilibria against it.  It also keeps the scalar wrappers of the unit,
simulated and MG laws that only the tests call, and the interpreted
derivative of an ``OdeSystem`` (every law run on the real DC bus and filter
at each call), the reference the compiled derivative must equal bit for
bit, and the per-step dense output of a Rodas4 run, the reference of the
vectorised ``engine._hermite_samples``.
"""

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from multigrid_ilc import ilc
from multigrid_ilc.engine import _MAX_PIECES
from multigrid_ilc.errors import NumericalError, ValidationError
from multigrid_ilc.ilc import GFM, Gains, IlcPhysical, IlcUnit
from multigrid_ilc.mg import MgModel


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
    return -p1 - phys.K_dc * vdc * (vdc + phys.V_dc_ref)


def _asin_power(p: float, b: float, what: str) -> float:
    if abs(p) > b:
        raise NoEquilibrium(f"required transfer {p:g} W exceeds filter limit {b:g} W ({what})")
    return math.asin(p / b)


def _dfd1_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    _consistent(g.K_omega1 * w1, g.K_omega2 * w2, "K_omega1*w1 = K_omega2*w2")
    p2 = -p1
    return (p1, p2, 0.0, p1 / g.K_i, p2 / g.K_idc)


def _dfd2_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    _consistent(w1, w2, "w1 = w2")
    xi = (p1 + (g.K_omega1 - g.K_omega2) * w1) / g.K_i
    return (p1, -p1, 0.0, xi, 0.0)


def _dacd_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = g.K_omega1 * w1 / g.K_v1
    _consistent(vdc, g.K_omega2 * w2 / g.K_v2, "normalized frequencies")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    xi1 = (p1 - g.K_v1 * vdc + g.K_omega1 * w1) / g.K_i1
    xi2 = (p2 - g.K_v2 * vdc + g.K_omega2 * w2) / g.K_i2
    return (p1, p2, vdc, xi1, xi2)


def _matching_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = w1 / g.m1
    _consistent(vdc, w2 / g.m2, "w1/m1 = w2/m2")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    eta1 = _asin_power(p1, phys.B, "side 1")
    eta2 = _asin_power(p2, phys.B, "side 2")
    return (eta1, eta2, vdc)


def _gfmfd_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    _consistent(w1, w2, "w1 = w2")
    p2 = -p1
    # two linear steady-state relations in (zeta, p_eq)
    a11, a12 = -g.kappa_s1 * g.K_idc, g.K_i1
    a21, a22 = -g.kappa_s2 * g.K_idc, -g.K_i2
    r1 = -w1 / g.m_p1 - p1
    r2 = -w2 / g.m_p2 - p2
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-300:
        raise NoEquilibrium("degenerate DC/equalization gain combination")
    zeta = (r1 * a22 - a12 * r2) / det
    p_eq = (a11 * r2 - r1 * a21) / det
    eta1 = _asin_power(p1, phys.B, "side 1")
    eta2 = _asin_power(p2, phys.B, "side 2")
    return (eta1, eta2, 0.0, zeta, p_eq, p1, p2)


def _gfmdd_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = g.K_omega1 * w1 / g.K_v1
    _consistent(vdc, g.K_omega2 * w2 / g.K_v2, "normalized frequencies")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    xi1 = (w1 / g.m_p1 + p1 - g.K_v1 * vdc) / g.K_i1
    xi2 = (w2 / g.m_p2 + p2 - g.K_v2 * vdc) / g.K_i2
    eta1 = _asin_power(p1, phys.B, "side 1")
    eta2 = _asin_power(p2, phys.B, "side 2")
    return (eta1, eta2, vdc, xi1, xi2, p1, p2)


def _ddm_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = w1 / g.m1
    _consistent(g.K_v2 * vdc, g.K_omega2 * w2, "normalized frequencies")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    eta = _asin_power(p1, phys.B, "side 1")
    xi2 = (p2 - g.K_v2 * vdc + g.K_omega2 * w2) / g.K_i2
    return (eta, xi2, p2, vdc)


def _gflgfm_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = g.K_omega1 * w1 / g.K_v1
    _consistent(vdc, g.K_omega2 * w2 / g.K_v2, "normalized frequencies")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    eta = _asin_power(p1, phys.B, "side 1")
    xi1 = (w1 / g.m_p1 + p1 - g.K_v1 * vdc) / g.K_i1
    xi2 = (p2 - g.K_v2 * vdc + g.K_omega2 * w2) / g.K_i2
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


def dc_bus(phys: IlcPhysical) -> Callable:
    """The DC-bus law: dc(p1, p2, vdc) -> dV/dt (V/s), with p1, p2 the powers
    leaving the two VSCs."""
    C, V_dc_ref, K_dc = phys.C, phys.V_dc_ref, phys.K_dc

    def dc(p1, p2, vdc):
        v_total = vdc + V_dc_ref
        if v_total <= 0.0:
            raise ilc._collapse(vdc, V_dc_ref)
        return (-p1 / v_total - p2 / v_total - K_dc * vdc) / C

    return dc


def filter_power(B: float) -> Callable:
    """The inductive filter's law: power(eta) -> B*sin(eta) (W)."""

    def power(eta):
        return B * math.sin(eta)

    return power


@lru_cache(maxsize=None)
def unit_rhs(unit: IlcUnit) -> Callable:
    """The unit equations on the real DC bus and filter, built once per unit."""
    return partial(ilc.SCHEME[unit.scheme].law, unit.gains, unit.physical,
                   dc_bus(unit.physical), filter_power(unit.physical.B))


def make_sim_derivative(unit: IlcUnit) -> Callable:
    """Simulation-facing derivative: rhs(y, w1, w2) -> (rates, p1, p2).

    ``w1, w2`` are the frequencies of the two connected MGs; ``p1, p2`` are
    the powers the ILC injects into them.  Grid-forming sides go through
    the inductive filter: the returned state starts with the two filter
    angles and p_i = B*sin(eta_i).
    """
    return partial(ilc.sim_law, unit, dc_bus(unit.physical), filter_power(unit.physical.B))


def reference_derivative(ode, t, y, loads=None) -> list:
    """The interpreted ``ode.derivative``: each ILC's simulated law, its port
    powers added into its MGs' inputs, then each MG's law."""
    if loads is None:
        loads = ode.base_loads
    omegas = [y[lo] for lo, _ in ode._mg_spans]
    p_in = list(loads)
    rates = [0.0] * ode.dim
    for unit, (lo, hi), (a, b) in zip(ode.units, ode._ilc_spans, ode.net.ends):
        seg_rates, pa, pb = make_sim_derivative(unit)(y[lo:hi], omegas[a], omegas[b])
        rates[lo:hi] = seg_rates
        p_in[a] += pa
        p_in[b] += pb
    for model, (lo, hi), p in zip(ode.models, ode._mg_spans, p_in):
        rates[lo:hi] = model.law(y[lo:hi], p)
    return rates


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
    ilc._check_state(unit, state, inputs)
    _, out1, out2 = unit_rhs(unit)(tuple(state), *inputs)
    if unit.port_kind == GFM:
        return out1, out2
    return -out1, -out2


def sim_state_names(unit: IlcUnit) -> tuple[str, ...]:
    """The names of the states the engine integrates for ``unit``."""
    return tuple(ilc.sim_states(unit))


def mg_derivative(
    model: MgModel, state: tuple[float, ...], p_in: float, p_load: float | None = None
) -> tuple[float, ...]:
    """State derivative of one MG given the net power entering it.

    ``p_load`` overrides the model's baseline load deviation when given.
    """
    if not math.isfinite(p_in):
        raise ValidationError(f"p_in={p_in!r}")
    load = model.p_load if p_load is None else p_load
    return model.law(tuple(state), p_in + load)


def connection_powers(ode, y) -> list[tuple[float, float]]:
    """Per-ILC (p1, p2) at the state ``y`` of an ``OdeSystem``: the powers
    injected into the two connected MGs, from each unit's scalar simulated
    law (the reference for ``ilc.injected_powers``)."""
    out = []
    for l, unit in enumerate(ode.units):
        names = sim_state_names(unit)
        lo = ode.column("ilc", l, names[0])
        _, pa, pb = make_sim_derivative(unit)(y[lo:lo + len(names)], 0.0, 0.0)
        out.append((pa, pb))
    return out


def step_samples(y0, f0, y1, f1, h, atol, rtol):
    """Interior points of the cubic Hermite interpolant on one step, spaced
    so that linear interpolation between consecutive samples stays within
    the step's error norm: (step fractions, states)."""
    y0, f0, y1, f1 = (np.asarray(v, dtype=float) for v in (y0, f0, y1, f1))
    d = y1 - y0
    # |p''| is linear in the step fraction, so its maximum sits at an end
    curv = np.maximum(np.abs(6.0 * d - h * (4.0 * f0 + 2.0 * f1)),
                      np.abs(6.0 * d - h * (2.0 * f0 + 4.0 * f1)))
    sc = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    worst = float(np.sqrt(np.mean((curv / sc) ** 2)))
    if not worst > 8.0:  # one piece suffices (also catches NaN)
        return np.empty(0), np.empty((0, y0.size))
    pieces = min(math.ceil(math.sqrt(worst / 8.0)), _MAX_PIECES)
    s = np.arange(1, pieces)[:, None] / pieces
    states = ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * y0 + s * (1.0 - s) ** 2 * (h * f0)
              + s * s * (3.0 - 2.0 * s) * y1 + s * s * (s - 1.0) * (h * f1))
    return s[:, 0], states


def dense_output(t, y, starts, steps, rates, atol, rtol):
    """The dense output of ``engine._hermite_samples`` (same arguments), one
    Rodas4 step at a time: each step's samples go in after its start."""
    ts, ys, done = array("d"), array("d"), 0
    for i, h, (f0, f1) in zip(starts.tolist(), steps.tolist(), rates):
        fractions, states = step_samples(y[i], f0, y[i + 1], f1, h, atol, rtol)
        ts.frombytes(t[done : i + 1].tobytes())
        ys.frombytes(y[done : i + 1].tobytes())
        ts.frombytes((t[i] + fractions * h).tobytes())
        ys.frombytes(states.tobytes())
        done = i + 1
    ts.frombytes(t[done:].tobytes())
    ys.frombytes(y[done:].tobytes())
    return np.frombuffer(ts), np.frombuffer(ys).reshape(-1, y.shape[1])
