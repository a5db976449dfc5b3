"""AC-AC interlinking converter models and outer-loop controllers.

An ILC is two back-to-back VSCs sharing a DC bus.  Depending on the scheme,
each AC side is grid-following (measures frequency, controls power through a
first-order lag), grid-forming (sets its frequency reference directly), or
the two sides are mixed ("partial").  The shared DC bus obeys

    C * dV/dt = -p1/(V + Vref) - p2/(V + Vref) - Kdc*V

with V the DC-voltage deviation and p1, p2 the powers leaving each VSC into
its grid.  Grid-forming sides transfer power through an inductive filter:
the angle eta accumulates the frequency mismatch and p = B*sin(eta).

Scheme tags (scenario-file spelling):

======================  ====  ==========================================
tag                     port  outer loop
======================  ====  ==========================================
dual-freq-droop-1       GFL   frequency droop + integral on side 1,
                              PI DC-voltage regulation on side 2
dual-freq-droop-2       GFL   frequency droop + integral, DC regulation
                              shared between both sides
dual-acdc-droop         GFL   per-side droop on DC voltage and frequency
                              with integral action
matching                GFM   frequencies proportional to DC voltage
gfm-freq-droop          GFM   power-frequency droop + shared DC PI term
                              + frequency-equalizing integrator
gfm-dual-droop          GFM   grid-forming rewrite of dual-acdc-droop
dual-droop-matching     mixed matching on the forming side, dual droop
                              on the following side
gfl-gfm-dual-droop      mixed gfm-dual-droop on the forming side, dual
                              droop on the following side
======================  ====  ==========================================

Each scheme is defined by one :class:`Scheme` record in :data:`SCHEME`:
its port kind, unit states, required gains, the builder of its equations
(controller law, converter lags and DC bus in one closure) and its
closed-form equilibrium.  Everything else in this module reads the record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import (
    DcVoltageCollapse,
    NoEquilibrium,
    NonFiniteInput,
    SchemeStateMismatch,
    UnknownScheme,
    ValidationError,
)

GFL = "gfl"
GFM = "gfm"
PARTIAL = "partial"


def filter_susceptance_power(v_ac: float, l: float, f_nominal: float = 50.0) -> float:
    """Power constant of the inductive filter: V_ac^2 / (2*pi*f*L)  (W)."""
    return v_ac * v_ac / (2.0 * math.pi * f_nominal * l)


@dataclass(frozen=True)
class IlcPhysical:
    """Physical converter parameters (SI units)."""

    c: float = 1e-3          # DC capacitance (F)
    v_dc_ref: float = 1e4    # nominal DC voltage (V)
    k_dc: float = 1.0        # DC support/load coefficient (A/V)
    tau1: float = 0.05       # side-1 converter lag (s)
    tau2: float = 0.05       # side-2 converter lag (s)
    b: float = filter_susceptance_power(3300.0, 1e-3)  # filter power constant (W)

    def __post_init__(self):
        for name in ("c", "v_dc_ref", "tau1", "tau2", "b"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be strictly positive, got {value!r}")
        if not (self.k_dc >= 0.0 and math.isfinite(self.k_dc)):
            raise ValidationError(f"k_dc must be non-negative, got {self.k_dc!r}")


@dataclass(frozen=True)
class Gains:
    """Outer-loop controller gains; only those a scheme requires are used."""

    k_omega1: float = 0.0    # frequency droop, side 1 (W*s/rad)
    k_omega2: float = 0.0
    k_v1: float = 0.0        # DC-voltage droop (W/V)
    k_v2: float = 0.0
    k_i: float = 0.0         # equalizing integral gain (1/s scaled)
    k_i1: float = 0.0
    k_i2: float = 0.0
    k_pdc: float = 0.0       # DC PI proportional gain (W/V)
    k_idc: float = 0.0       # DC PI integral gain (W/(V*s))
    m1: float = 0.0          # matching gain (rad/(s*V))
    m2: float = 0.0
    m_p1: float = 0.0        # power-frequency droop gain (rad/(s*W))
    m_p2: float = 0.0
    kappa_s1: float = 0.5    # DC-regulation sharing factors
    kappa_s2: float = 0.5


@dataclass(frozen=True)
class IlcUnit:
    """One configured ILC: scheme tag, physical parameters, gains."""

    scheme: str
    physical: IlcPhysical = IlcPhysical()
    gains: Gains = Gains()
    name: str = ""

    def __post_init__(self):
        if self.scheme not in SCHEME:
            raise UnknownScheme(f"unknown ILC scheme {self.scheme!r}")
        for gain in SCHEME[self.scheme].gains:
            value = getattr(self.gains, gain)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(
                    f"scheme {self.scheme!r} requires gain {gain} > 0, got {value!r}"
                )

    @property
    def port_kind(self) -> str:
        return SCHEME[self.scheme].port


def _dc_bus(phys: IlcPhysical) -> Callable:
    """The DC-bus law: dc(p1, p2, vdc) -> dV/dt (V/s), with p1, p2 the powers
    leaving the two VSCs."""
    c, vref, k_dc = phys.c, phys.v_dc_ref, phys.k_dc

    def dc(p1, p2, vdc):
        v_total = vdc + vref
        if v_total <= 0.0:
            raise DcVoltageCollapse(
                f"DC voltage collapsed: deviation {vdc:g} V at nominal {vref:g} V"
            )
        return (-p1 / v_total - p2 / v_total - k_dc * vdc) / c

    return dc


# --- equilibrium helpers -------------------------------------------------


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


# --- the schemes ---------------------------------------------------------
# Per scheme: an rhs builder (gains, physical) -> rhs(y, in1, in2) that
# returns (rates, out1, out2), and the closed-form equilibrium
# (gains, physical, w1, w2, p1) -> state in simulation order.  Inputs are
# the two connection frequencies for GFL/partial units and the two powers
# leaving the converter (p1, p2) for GFM units; outputs are those powers
# for GFL/partial units and the frequency references for GFM units.


def _dfd1_rhs(g: Gains, phys: IlcPhysical) -> Callable:
    k_omega1, k_omega2, k_i = g.k_omega1, g.k_omega2, g.k_i
    k_pdc, k_idc = g.k_pdc, g.k_idc
    tau1, tau2, dc = phys.tau1, phys.tau2, _dc_bus(phys)

    def rhs(y, w1, w2):
        p1, p2, vdc, xi, zeta = y
        droop = -k_omega1 * w1 + k_omega2 * w2
        pref1 = droop + k_i * xi
        pref2 = k_pdc * vdc + k_idc * zeta
        return (
            ((-p1 + pref1) / tau1, (-p2 + pref2) / tau2, dc(p1, p2, vdc), droop, vdc),
            p1, p2,
        )

    return rhs


def _dfd1_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    _consistent(g.k_omega1 * w1, g.k_omega2 * w2, "k_omega1*w1 = k_omega2*w2")
    p2 = -p1
    return (p1, p2, 0.0, p1 / g.k_i, p2 / g.k_idc)


def _dfd2_rhs(g: Gains, phys: IlcPhysical) -> Callable:
    k_omega1, k_omega2, k_i = g.k_omega1, g.k_omega2, g.k_i
    k_pdc, k_idc = g.k_pdc, g.k_idc
    tau1, tau2, dc = phys.tau1, phys.tau2, _dc_bus(phys)

    def rhs(y, w1, w2):
        p1, p2, vdc, xi, zeta = y
        # the DC PI term is shared by both references
        p_dc = k_pdc * vdc + k_idc * zeta
        base = -k_omega1 * w1 + k_omega2 * w2 + k_i * xi
        pref1 = base + p_dc
        pref2 = -base + p_dc
        return (
            ((-p1 + pref1) / tau1, (-p2 + pref2) / tau2, dc(p1, p2, vdc),
             -w1 + w2, vdc),
            p1, p2,
        )

    return rhs


def _dfd2_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    _consistent(w1, w2, "w1 = w2")
    xi = (p1 + (g.k_omega1 - g.k_omega2) * w1) / g.k_i
    return (p1, -p1, 0.0, xi, 0.0)


def _dacd_rhs(g: Gains, phys: IlcPhysical) -> Callable:
    k_omega1, k_omega2, k_v1, k_v2 = g.k_omega1, g.k_omega2, g.k_v1, g.k_v2
    k_i1, k_i2 = g.k_i1, g.k_i2
    tau1, tau2, dc = phys.tau1, phys.tau2, _dc_bus(phys)

    def rhs(y, w1, w2):
        p1, p2, vdc, xi1, xi2 = y
        d1 = k_v1 * vdc - k_omega1 * w1
        d2 = k_v2 * vdc - k_omega2 * w2
        pref1 = d1 + k_i1 * xi1
        pref2 = d2 + k_i2 * xi2
        return (
            ((-p1 + pref1) / tau1, (-p2 + pref2) / tau2, dc(p1, p2, vdc), d1, d2),
            p1, p2,
        )

    return rhs


def _dacd_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = g.k_omega1 * w1 / g.k_v1
    _consistent(vdc, g.k_omega2 * w2 / g.k_v2, "normalized frequencies")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    xi1 = (p1 - g.k_v1 * vdc + g.k_omega1 * w1) / g.k_i1
    xi2 = (p2 - g.k_v2 * vdc + g.k_omega2 * w2) / g.k_i2
    return (p1, p2, vdc, xi1, xi2)


def _matching_rhs(g: Gains, phys: IlcPhysical) -> Callable:
    m1, m2, dc = g.m1, g.m2, _dc_bus(phys)

    def rhs(y, p1, p2):
        (vdc,) = y
        return ((dc(p1, p2, vdc),), m1 * vdc, m2 * vdc)

    return rhs


def _matching_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = w1 / g.m1
    _consistent(vdc, w2 / g.m2, "w1/m1 = w2/m2")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    eta1 = _asin_power(p1, phys.b, "side 1")
    eta2 = _asin_power(p2, phys.b, "side 2")
    return (eta1, eta2, vdc)


def _gfmfd_rhs(g: Gains, phys: IlcPhysical) -> Callable:
    m_p1, m_p2, k_pdc, k_idc = g.m_p1, g.m_p2, g.k_pdc, g.k_idc
    k_i1, k_i2, kappa_s1, kappa_s2 = g.k_i1, g.k_i2, g.kappa_s1, g.kappa_s2
    tau1, tau2, dc = phys.tau1, phys.tau2, _dc_bus(phys)

    def rhs(y, p1, p2):
        vdc, zeta, p_eq, pf1, pf2 = y
        # P_dc and P_eq act as power setpoints: positive P_dc (excess DC
        # energy) raises the frequency references to export more, and the
        # equalizing integrator feeds back negatively, like secondary control
        p_dc = k_pdc * vdc + k_idc * zeta
        wref1 = -m_p1 * (pf1 - kappa_s1 * p_dc + k_i1 * p_eq)
        wref2 = -m_p2 * (pf2 - kappa_s2 * p_dc - k_i2 * p_eq)
        return (
            (dc(p1, p2, vdc), vdc, wref1 - wref2, (-pf1 + p1) / tau1,
             (-pf2 + p2) / tau2),
            wref1, wref2,
        )

    return rhs


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


def _gfmdd_rhs(g: Gains, phys: IlcPhysical) -> Callable:
    m_p1, m_p2, k_v1, k_v2 = g.m_p1, g.m_p2, g.k_v1, g.k_v2
    k_omega1, k_omega2, k_i1, k_i2 = g.k_omega1, g.k_omega2, g.k_i1, g.k_i2
    tau1, tau2, dc = phys.tau1, phys.tau2, _dc_bus(phys)

    def rhs(y, p1, p2):
        vdc, xi1, xi2, pf1, pf2 = y
        wref1 = m_p1 * (-pf1 + k_v1 * vdc + k_i1 * xi1)
        wref2 = m_p2 * (-pf2 + k_v2 * vdc + k_i2 * xi2)
        return (
            (dc(p1, p2, vdc), k_v1 * vdc - k_omega1 * wref1,
             k_v2 * vdc - k_omega2 * wref2, (-pf1 + p1) / tau1, (-pf2 + p2) / tau2),
            wref1, wref2,
        )

    return rhs


def _gfmdd_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = g.k_omega1 * w1 / g.k_v1
    _consistent(vdc, g.k_omega2 * w2 / g.k_v2, "normalized frequencies")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    xi1 = (w1 / g.m_p1 + p1 - g.k_v1 * vdc) / g.k_i1
    xi2 = (w2 / g.m_p2 + p2 - g.k_v2 * vdc) / g.k_i2
    eta1 = _asin_power(p1, phys.b, "side 1")
    eta2 = _asin_power(p2, phys.b, "side 2")
    return (eta1, eta2, vdc, xi1, xi2, p1, p2)


def _ddm_rhs(g: Gains, phys: IlcPhysical) -> Callable:
    m1, k_v2, k_omega2, k_i2 = g.m1, g.k_v2, g.k_omega2, g.k_i2
    tau2, b, dc = phys.tau2, phys.b, _dc_bus(phys)

    def rhs(y, w1, w2):
        eta, xi2, p2, vdc = y
        p1 = b * math.sin(eta)
        wref1 = m1 * vdc
        d2 = k_v2 * vdc - k_omega2 * w2
        pref2 = d2 + k_i2 * xi2
        return (
            (wref1 - w1, d2, (-p2 + pref2) / tau2, dc(p1, p2, vdc)),
            p1, p2,
        )

    return rhs


def _ddm_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = w1 / g.m1
    _consistent(g.k_v2 * vdc, g.k_omega2 * w2, "normalized frequencies")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    eta = _asin_power(p1, phys.b, "side 1")
    xi2 = (p2 - g.k_v2 * vdc + g.k_omega2 * w2) / g.k_i2
    return (eta, xi2, p2, vdc)


def _gflgfm_rhs(g: Gains, phys: IlcPhysical) -> Callable:
    m_p1, k_v1, k_omega1, k_i1 = g.m_p1, g.k_v1, g.k_omega1, g.k_i1
    k_v2, k_omega2, k_i2 = g.k_v2, g.k_omega2, g.k_i2
    tau1, tau2, b, dc = phys.tau1, phys.tau2, phys.b, _dc_bus(phys)

    def rhs(y, w1, w2):
        eta, xi1, pf1, xi2, p2, vdc = y
        p1 = b * math.sin(eta)
        wref1 = m_p1 * (-pf1 + k_v1 * vdc + k_i1 * xi1)
        d2 = k_v2 * vdc - k_omega2 * w2
        pref2 = d2 + k_i2 * xi2
        return (
            (wref1 - w1, k_v1 * vdc - k_omega1 * wref1, (-pf1 + p1) / tau1, d2,
             (-p2 + pref2) / tau2, dc(p1, p2, vdc)),
            p1, p2,
        )

    return rhs


def _gflgfm_equilibrium(g: Gains, phys: IlcPhysical, w1, w2, p1):
    vdc = g.k_omega1 * w1 / g.k_v1
    _consistent(vdc, g.k_omega2 * w2 / g.k_v2, "normalized frequencies")
    p2 = _steady_vdc_balance(phys, vdc, p1)
    eta = _asin_power(p1, phys.b, "side 1")
    xi1 = (w1 / g.m_p1 + p1 - g.k_v1 * vdc) / g.k_i1
    xi2 = (p2 - g.k_v2 * vdc + g.k_omega2 * w2) / g.k_i2
    return (eta, xi1, p1, xi2, p2, vdc)


@dataclass(frozen=True)
class Scheme:
    """The one definition of an ILC control scheme.

    ``states`` are the states of the converter unit itself (the object the
    passivity analysis sees); grid-forming units add one filter-angle state
    per connection in simulation.  ``gains`` are the :class:`Gains` fields
    the scheme requires to be positive.
    """

    port: str
    states: tuple[str, ...]
    gains: tuple[str, ...]
    rhs: Callable[[Gains, IlcPhysical], Callable]
    equilibrium: Callable[..., tuple[float, ...]]


SCHEME: dict[str, Scheme] = {
    "dual-freq-droop-1": Scheme(
        GFL, ("p1", "p2", "vdc", "xi", "zeta"),
        ("k_omega1", "k_omega2", "k_i", "k_pdc", "k_idc"),
        _dfd1_rhs, _dfd1_equilibrium,
    ),
    "dual-freq-droop-2": Scheme(
        GFL, ("p1", "p2", "vdc", "xi", "zeta"),
        ("k_omega1", "k_omega2", "k_i", "k_pdc", "k_idc"),
        _dfd2_rhs, _dfd2_equilibrium,
    ),
    "dual-acdc-droop": Scheme(
        GFL, ("p1", "p2", "vdc", "xi1", "xi2"),
        ("k_omega1", "k_omega2", "k_v1", "k_v2", "k_i1", "k_i2"),
        _dacd_rhs, _dacd_equilibrium,
    ),
    "matching": Scheme(
        GFM, ("vdc",), ("m1", "m2"), _matching_rhs, _matching_equilibrium,
    ),
    "gfm-freq-droop": Scheme(
        GFM, ("vdc", "zeta", "p_eq", "pf1", "pf2"),
        ("m_p1", "m_p2", "k_pdc", "k_idc", "k_i1", "k_i2", "kappa_s1", "kappa_s2"),
        _gfmfd_rhs, _gfmfd_equilibrium,
    ),
    "gfm-dual-droop": Scheme(
        GFM, ("vdc", "xi1", "xi2", "pf1", "pf2"),
        ("m_p1", "m_p2", "k_v1", "k_v2", "k_omega1", "k_omega2", "k_i1", "k_i2"),
        _gfmdd_rhs, _gfmdd_equilibrium,
    ),
    "dual-droop-matching": Scheme(
        PARTIAL, ("eta", "xi2", "p2", "vdc"), ("m1", "k_v2", "k_omega2", "k_i2"),
        _ddm_rhs, _ddm_equilibrium,
    ),
    "gfl-gfm-dual-droop": Scheme(
        PARTIAL, ("eta", "xi1", "pf1", "xi2", "p2", "vdc"),
        ("m_p1", "k_v1", "k_omega1", "k_i1", "k_v2", "k_omega2", "k_i2"),
        _gflgfm_rhs, _gflgfm_equilibrium,
    ),
}

SCHEMES = tuple(SCHEME)


def unit_state_names(unit: IlcUnit) -> tuple[str, ...]:
    """States of the converter unit (passivity-analysis state vector)."""
    return SCHEME[unit.scheme].states


def sim_state_names(unit: IlcUnit) -> tuple[str, ...]:
    """States the engine integrates; grid-forming sides add filter angles."""
    if unit.port_kind == GFM:
        return ("eta1", "eta2") + unit_state_names(unit)
    return unit_state_names(unit)


@lru_cache(maxsize=None)
def _unit_rhs(unit: IlcUnit) -> Callable:
    """rhs(state, in1, in2) -> (rates, out1, out2) of one unit; the single
    source of the unit equations, shared by the public operations and the
    simulation engine."""
    return SCHEME[unit.scheme].rhs(unit.gains, unit.physical)


def _check_state(unit: IlcUnit, state) -> None:
    names = unit_state_names(unit)
    if len(state) != len(names):
        raise SchemeStateMismatch(
            f"scheme {unit.scheme!r} expects {len(names)} states "
            f"{names}, got {len(state)}"
        )


def ilc_derivative(unit: IlcUnit, state, inputs) -> tuple[float, ...]:
    """Full state derivative of one ILC unit.

    ``inputs`` is ``(omega1, omega2)`` for GFL and partial schemes and
    ``(p1, p2)`` -- the powers leaving the converter -- for GFM schemes.
    """
    _check_state(unit, state)
    u1, u2 = inputs
    if not all(math.isfinite(v) for v in (*state, u1, u2)):
        raise NonFiniteInput(
            f"ILC state and inputs must be finite, got {state!r}, {inputs!r}"
        )
    rates, _, _ = _unit_rhs(unit)(tuple(state), u1, u2)
    return rates


def ilc_output(unit: IlcUnit, state, inputs=(0.0, 0.0)) -> tuple[float, float]:
    """Port outputs of one ILC unit.

    GFL/partial: the powers *entering* the ILC, ``(-p1, -p2)``.
    GFM: the frequency references ``(omega_ref1, omega_ref2)``.
    """
    _check_state(unit, state)
    _, out1, out2 = _unit_rhs(unit)(tuple(state), *inputs)
    if unit.port_kind == GFM:
        return out1, out2
    return -out1, -out2


def make_sim_derivative(unit: IlcUnit) -> Callable:
    """Simulation-facing derivative: rhs(y, w1, w2) -> (rates, p1, p2).

    ``w1, w2`` are the frequencies of the two connected MGs; ``p1, p2`` are
    the powers the ILC injects into them.  Grid-forming sides go through
    the inductive filter: the returned state starts with the two filter
    angles and p_i = B*sin(eta_i).
    """
    rhs = _unit_rhs(unit)
    if unit.port_kind != GFM:
        return rhs
    b = unit.physical.b

    def sim_rhs(y, w1, w2):
        eta1, eta2 = y[0], y[1]
        p1 = b * math.sin(eta1)
        p2 = b * math.sin(eta2)
        rates, wref1, wref2 = rhs(y[2:], p1, p2)
        return ((wref1 - w1, wref2 - w2) + rates, p1, p2)

    return sim_rhs


def ilc_equilibrium(unit: IlcUnit, boundary: EquilibriumBoundary) -> tuple[float, ...]:
    """Closed-form equilibrium of one ILC in simulation state order.

    Raises :class:`NoEquilibrium` when the boundary violates the scheme's
    steady-state constraints (e.g. inconsistent normalized frequencies, or
    a transfer beyond the filter limit of a grid-forming side).
    """
    return SCHEME[unit.scheme].equilibrium(
        unit.gains, unit.physical, boundary.omega1, boundary.omega2, boundary.p1
    )
