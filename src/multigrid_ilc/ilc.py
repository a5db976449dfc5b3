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
its port kind, unit states, required gains and the builder of its
equations (controller law and converter lags in one closure, on the DC-bus
and filter power laws it is given).  Everything else in this module reads
the record: the simulated equations, the exact Jacobians of the unit and
of its simulated form, and the powers a simulated unit injects into its
grids all come from the same equations, so a law is written once.

The converter catalogue, :data:`PHYSICAL_DEFAULTS` and
:data:`GAIN_DEFAULTS` in scenario-file spelling, gives the defaults of
:class:`IlcPhysical` and :class:`Gains` and of every scenario file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import (
    DcVoltageCollapse,
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
    if not (l > 0.0 and math.isfinite(l)):
        raise ValidationError(f"filter inductance L must be finite and positive, got {l!r}")
    return v_ac * v_ac / (2.0 * math.pi * f_nominal * l)


PHYSICAL_DEFAULTS = {
    "C": 1e-3,           # F
    "V_dc_ref": 1e4,     # V
    "K_dc": 1.0,         # A/V
    "V_ac": 3300.0,      # V
    "L": 1e-3,           # H
    "tau1": 0.05,        # s
    "tau2": 0.05,        # s
}

GAIN_DEFAULTS = {
    "K_omega1": 2.5e7,
    "K_omega2": 2.5e7,
    "K_v1": 2.5e4,
    "K_v2": 2.5e4,
    "K_i": 10.0,
    "K_i1": 10.0,
    "K_i2": 10.0,
    "m1": 1e-3,
    "m2": 1e-3,
    "m_p1": 5e-8,
    "m_p2": 5e-8,
    "kappa_s1": 0.5,
    "kappa_s2": 0.5,
    # K_pdc defaults to the resolved K_v1 and K_idc to 10*K_pdc; handled in
    # the scenario module
}


@dataclass(frozen=True)
class IlcPhysical:
    """Physical converter parameters (SI units)."""

    c: float = PHYSICAL_DEFAULTS["C"]                # DC capacitance (F)
    v_dc_ref: float = PHYSICAL_DEFAULTS["V_dc_ref"]  # nominal DC voltage (V)
    k_dc: float = PHYSICAL_DEFAULTS["K_dc"]          # DC support/load coefficient (A/V)
    tau1: float = PHYSICAL_DEFAULTS["tau1"]          # side-1 converter lag (s)
    tau2: float = PHYSICAL_DEFAULTS["tau2"]          # side-2 converter lag (s)
    # filter power constant (W)
    b: float = filter_susceptance_power(PHYSICAL_DEFAULTS["V_ac"], PHYSICAL_DEFAULTS["L"])

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
    kappa_s1: float = GAIN_DEFAULTS["kappa_s1"]  # DC-regulation sharing factors
    kappa_s2: float = GAIN_DEFAULTS["kappa_s2"]


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


def _collapse(vdc: float, vref: float) -> DcVoltageCollapse:
    return DcVoltageCollapse(
        f"DC voltage collapsed: deviation {vdc:g} V at nominal {vref:g} V"
    )


def _dc_bus(phys: IlcPhysical) -> Callable:
    """The DC-bus law: dc(p1, p2, vdc) -> dV/dt (V/s), with p1, p2 the powers
    leaving the two VSCs."""
    c, vref, k_dc = phys.c, phys.v_dc_ref, phys.k_dc

    def dc(p1, p2, vdc):
        v_total = vdc + vref
        if v_total <= 0.0:
            raise _collapse(vdc, vref)
        return (-p1 / v_total - p2 / v_total - k_dc * vdc) / c

    return dc


def _filter_power(b: float) -> Callable:
    """The inductive filter's law: power(eta) -> B*sin(eta) (W)."""

    def power(eta):
        return b * math.sin(eta)

    return power


def _column(v: np.ndarray) -> int:
    """The variable a unit vector stands for."""
    (k,) = np.flatnonzero(v)
    return int(k)


def _derive(build: Callable, n: int, phys: IlcPhysical) -> Callable:
    """jac(y, in1, in2) -> the exact partials of (rates, out1, out2) by
    (y, in1, in2) of the law ``build(dc, power)`` with ``n`` states.

    The law is evaluated once on the unit vectors of (y, in1, in2), which
    gives its linear partials, with stubs for its only nonlinear parts: the
    DC bus records which variables are p1, p2 and vdc and returns None for
    its row, and the filter power B*sin(eta) passes eta's unit vector
    through.  Each call fills in the DC-bus row and multiplies every
    filter-angle column by B*cos(eta).  Apart from those two laws, a law
    must be linear in its variables: a constant term or a product of two
    variables would derive silently wrong rows.
    """
    dc_cols, angles = [], set()

    def dc(p1, p2, vdc):
        dc_cols.extend(_column(v) for v in (p1, p2, vdc))

    def power(eta):
        angles.add(_column(eta))
        return eta

    eye = np.eye(n + 2)
    rates, out1, out2 = build(dc, power)(eye[:n], eye[n], eye[n + 1])
    rows = [*rates, out1, out2]
    r = next(i for i, row in enumerate(rows) if row is None)
    base = np.array([np.zeros(n + 2) if row is None else row for row in rows])
    c_p1, c_p2, c_v = dc_cols
    c, vref, k_dc, b = phys.c, phys.v_dc_ref, phys.k_dc, phys.b

    def jac(y, u1, u2):
        z = (*y, u1, u2)
        p1, p2 = (b * math.sin(z[k]) if k in angles else z[k] for k in (c_p1, c_p2))
        v_total = z[c_v] + vref
        if v_total <= 0.0:
            raise _collapse(z[c_v], vref)
        m = base.copy()
        m[r, c_p1] = m[r, c_p2] = -1.0 / (c * v_total)
        m[r, c_v] = ((p1 + p2) / (v_total * v_total) - k_dc) / c
        for k in angles:
            m[:, k] *= b * math.cos(z[k])
        return m

    return jac


# --- the schemes ---------------------------------------------------------
# Per scheme: an rhs builder (gains, physical, dc, power) -> rhs(y, in1,
# in2) that returns (rates, out1, out2), written on the DC-bus law dc(p1,
# p2, vdc) and the filter power law power(eta) it is given.  The simulation
# runs it on the real laws, _derive on stubs that give its Jacobians, and
# injected_powers on array stubs that give its port powers over a
# trajectory.  Inputs are the two connection frequencies for GFL/partial
# units and the two powers leaving the converter (p1, p2) for GFM units;
# outputs are those powers for GFL/partial units and the frequency
# references for GFM units.


def _dfd1_rhs(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable) -> Callable:
    k_omega1, k_omega2, k_i = g.k_omega1, g.k_omega2, g.k_i
    k_pdc, k_idc = g.k_pdc, g.k_idc
    tau1, tau2 = phys.tau1, phys.tau2

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


def _dfd2_rhs(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable) -> Callable:
    k_omega1, k_omega2, k_i = g.k_omega1, g.k_omega2, g.k_i
    k_pdc, k_idc = g.k_pdc, g.k_idc
    tau1, tau2 = phys.tau1, phys.tau2

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


def _dacd_rhs(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable) -> Callable:
    k_omega1, k_omega2, k_v1, k_v2 = g.k_omega1, g.k_omega2, g.k_v1, g.k_v2
    k_i1, k_i2 = g.k_i1, g.k_i2
    tau1, tau2 = phys.tau1, phys.tau2

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


def _matching_rhs(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable) -> Callable:
    m1, m2 = g.m1, g.m2

    def rhs(y, p1, p2):
        (vdc,) = y
        return ((dc(p1, p2, vdc),), m1 * vdc, m2 * vdc)

    return rhs


def _gfmfd_rhs(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable) -> Callable:
    m_p1, m_p2, k_pdc, k_idc = g.m_p1, g.m_p2, g.k_pdc, g.k_idc
    k_i1, k_i2, kappa_s1, kappa_s2 = g.k_i1, g.k_i2, g.kappa_s1, g.kappa_s2
    tau1, tau2 = phys.tau1, phys.tau2

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


def _gfmdd_rhs(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable) -> Callable:
    m_p1, m_p2, k_v1, k_v2 = g.m_p1, g.m_p2, g.k_v1, g.k_v2
    k_omega1, k_omega2, k_i1, k_i2 = g.k_omega1, g.k_omega2, g.k_i1, g.k_i2
    tau1, tau2 = phys.tau1, phys.tau2

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


def _ddm_rhs(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable) -> Callable:
    m1, k_v2, k_omega2, k_i2 = g.m1, g.k_v2, g.k_omega2, g.k_i2
    tau2 = phys.tau2

    def rhs(y, w1, w2):
        eta, xi2, p2, vdc = y
        p1 = power(eta)
        wref1 = m1 * vdc
        d2 = k_v2 * vdc - k_omega2 * w2
        pref2 = d2 + k_i2 * xi2
        return (
            (wref1 - w1, d2, (-p2 + pref2) / tau2, dc(p1, p2, vdc)),
            p1, p2,
        )

    return rhs


def _gflgfm_rhs(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable) -> Callable:
    m_p1, k_v1, k_omega1, k_i1 = g.m_p1, g.k_v1, g.k_omega1, g.k_i1
    k_v2, k_omega2, k_i2 = g.k_v2, g.k_omega2, g.k_i2
    tau1, tau2 = phys.tau1, phys.tau2

    def rhs(y, w1, w2):
        eta, xi1, pf1, xi2, p2, vdc = y
        p1 = power(eta)
        wref1 = m_p1 * (-pf1 + k_v1 * vdc + k_i1 * xi1)
        d2 = k_v2 * vdc - k_omega2 * w2
        pref2 = d2 + k_i2 * xi2
        return (
            (wref1 - w1, k_v1 * vdc - k_omega1 * wref1, (-pf1 + p1) / tau1, d2,
             (-p2 + pref2) / tau2, dc(p1, p2, vdc)),
            p1, p2,
        )

    return rhs


@dataclass(frozen=True)
class Scheme:
    """The one definition of an ILC control scheme.

    ``states`` are the states of the converter unit itself (the object the
    passivity analysis sees); grid-forming units add one filter-angle state
    per connection in simulation.  ``gains`` are the :class:`Gains` fields
    the scheme requires to be positive.  ``rhs`` builds the equations from
    the gains, the physical parameters, the DC-bus law and the filter power
    law; every Jacobian of the scheme is derived from them (:func:`_derive`).
    """

    port: str
    states: tuple[str, ...]
    gains: tuple[str, ...]
    rhs: Callable[[Gains, IlcPhysical, Callable, Callable], Callable]


SCHEME: dict[str, Scheme] = {
    "dual-freq-droop-1": Scheme(
        GFL, ("p1", "p2", "vdc", "xi", "zeta"),
        ("k_omega1", "k_omega2", "k_i", "k_pdc", "k_idc"), _dfd1_rhs,
    ),
    "dual-freq-droop-2": Scheme(
        GFL, ("p1", "p2", "vdc", "xi", "zeta"),
        ("k_omega1", "k_omega2", "k_i", "k_pdc", "k_idc"), _dfd2_rhs,
    ),
    "dual-acdc-droop": Scheme(
        GFL, ("p1", "p2", "vdc", "xi1", "xi2"),
        ("k_omega1", "k_omega2", "k_v1", "k_v2", "k_i1", "k_i2"), _dacd_rhs,
    ),
    "matching": Scheme(GFM, ("vdc",), ("m1", "m2"), _matching_rhs),
    "gfm-freq-droop": Scheme(
        GFM, ("vdc", "zeta", "p_eq", "pf1", "pf2"),
        ("m_p1", "m_p2", "k_pdc", "k_idc", "k_i1", "k_i2", "kappa_s1", "kappa_s2"),
        _gfmfd_rhs,
    ),
    "gfm-dual-droop": Scheme(
        GFM, ("vdc", "xi1", "xi2", "pf1", "pf2"),
        ("m_p1", "m_p2", "k_v1", "k_v2", "k_omega1", "k_omega2", "k_i1", "k_i2"),
        _gfmdd_rhs,
    ),
    "dual-droop-matching": Scheme(
        PARTIAL, ("eta", "xi2", "p2", "vdc"), ("m1", "k_v2", "k_omega2", "k_i2"), _ddm_rhs,
    ),
    "gfl-gfm-dual-droop": Scheme(
        PARTIAL, ("eta", "xi1", "pf1", "xi2", "p2", "vdc"),
        ("m_p1", "k_v1", "k_omega1", "k_i1", "k_v2", "k_omega2", "k_i2"), _gflgfm_rhs,
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


def _unit_law(unit: IlcUnit, dc: Callable, power: Callable) -> Callable:
    """rhs(state, in1, in2) -> (rates, out1, out2) of one unit, on the given
    DC-bus and filter power laws."""
    return SCHEME[unit.scheme].rhs(unit.gains, unit.physical, dc, power)


def _sim_law(unit: IlcUnit, dc: Callable, power: Callable) -> Callable:
    """rhs(y, w1, w2) -> (rates, p1, p2) of one unit as the engine integrates
    it, on the given laws: grid-forming units put the two filter angles
    first and feed the unit the filter powers."""
    rhs = _unit_law(unit, dc, power)
    if unit.port_kind != GFM:
        return rhs

    def sim_rhs(y, w1, w2):
        p1, p2 = power(y[0]), power(y[1])
        rates, wref1, wref2 = rhs(y[2:], p1, p2)
        return ((wref1 - w1, wref2 - w2) + rates, p1, p2)

    return sim_rhs


@lru_cache(maxsize=None)
def _unit_jacobian(unit: IlcUnit) -> Callable:
    return _derive(partial(_unit_law, unit), len(unit_state_names(unit)), unit.physical)


def _check_state(unit: IlcUnit, state, inputs=None) -> None:
    """The state's length, and with ``inputs``, that state and inputs are
    finite."""
    names = unit_state_names(unit)
    if len(state) != len(names):
        raise SchemeStateMismatch(
            f"scheme {unit.scheme!r} expects {len(names)} states "
            f"{names}, got {len(state)}"
        )
    if inputs is not None and not all(math.isfinite(v) for v in (*state, *inputs)):
        raise NonFiniteInput(
            f"ILC state and inputs must be finite, got {state!r}, {inputs!r}"
        )


def ilc_jacobian(unit: IlcUnit, state, inputs) -> np.ndarray:
    """Exact partials of one unit's (rates, out1, out2) by (state, in1,
    in2), derived from its law, as a new matrix.  Inputs and outputs are
    the law's own: GFL and partial units take (omega1, omega2) and put out
    the powers leaving the converter, GFM units take those powers and put
    out their frequency references (``linearize_unit`` turns them into the
    passivity port convention)."""
    _check_state(unit, state, inputs)
    return _unit_jacobian(unit)(tuple(state), *inputs)


def make_sim_derivative(unit: IlcUnit) -> Callable:
    """Simulation-facing derivative: rhs(y, w1, w2) -> (rates, p1, p2).

    ``w1, w2`` are the frequencies of the two connected MGs; ``p1, p2`` are
    the powers the ILC injects into them.  Grid-forming sides go through
    the inductive filter: the returned state starts with the two filter
    angles and p_i = B*sin(eta_i).
    """
    return _sim_law(unit, _dc_bus(unit.physical), _filter_power(unit.physical.b))


@lru_cache(maxsize=None)
def make_sim_jacobian(unit: IlcUnit) -> Callable:
    """jac(y, w1, w2) -> the exact partials of :func:`make_sim_derivative`'s
    (rates, p1, p2) by (y, w1, w2), derived from the same law."""
    return _derive(partial(_sim_law, unit), len(sim_state_names(unit)), unit.physical)


def injected_powers(unit: IlcUnit, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p1, p2): the powers the unit injects into its two MGs at each row of
    ``y``, its simulated states over time, from the simulated law evaluated
    on the columns with array stubs for the DC bus and B*sin(eta)."""
    b = unit.physical.b

    def dc(p1, p2, vdc):
        return None

    def power(eta):
        return b * np.sin(eta)

    with np.errstate(all="ignore"):  # a truncated run may end on a non-finite sample
        _, p1, p2 = _sim_law(unit, dc, power)(y.T, 0.0, 0.0)
    return p1, p2
