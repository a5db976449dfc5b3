"""AC-AC interlinking converter models and outer-loop controllers.

An ILC is two back-to-back VSCs sharing a DC bus.  Depending on the scheme,
each AC side is grid-following (measures frequency, controls power through a
first-order lag), grid-forming (sets its frequency reference directly), or
the two sides are mixed ("partial").  The shared DC bus obeys

    C * dV/dt = -p1/(V + V_dc_ref) - p2/(V + V_dc_ref) - K_dc*V

with V the DC-voltage deviation and p1, p2 the powers leaving each VSC into
its grid.  Grid-forming sides transfer power through an inductive filter:
the angle eta accumulates the frequency mismatch and p = B*sin(eta).  The
two laws are written once, as :func:`dc_bus` and :func:`filter_power`, plain
functions of their primitives: the bus's collapse guard and sin.

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
its port kind, unit states with their kinds, required gains and its law
(controller and converter lags in one plain function of the gains, the
physical parameters, the DC-bus and filter power laws, the state and the
two inputs).  Everything reads the record: the simulation's derivative and
the exact Jacobians of the unit and of the system (compiled from traces of
the laws, in ``engine``), and the powers a simulated unit injects into its
grids all come from the same equations, so a law is written once.

The converter catalogue, :data:`PHYSICAL_DEFAULTS` and
:data:`GAIN_DEFAULTS`, gives the defaults of :class:`IlcPhysical` and
:class:`Gains` and of every scenario file; :func:`scheme_gains` derives the
gains whose defaults follow other gains.  Each parameter has one name,
its scenario key (``C``, ``V_dc_ref``, ``K_dc``, ``B``, ``K_omega1``,
``m_p1``, ...): the fields, the gains a scheme requires and the laws all
use it, so a validation message names the key the user wrote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DcVoltageCollapse, SchemaViolation, ValidationError

GFL = "gfl"
GFM = "gfm"
PARTIAL = "partial"


def filter_susceptance_power(v_ac: float, l: float, f_nominal: float = 50.0) -> float:
    """Power constant of the inductive filter: V_ac^2 / (2*pi*f*L)  (W)."""
    if not (l > 0.0 and math.isfinite(l)):
        raise ValidationError(f"filter inductance L must be finite and positive, got {l!r}")
    b = v_ac * v_ac / (2.0 * math.pi * f_nominal * l)
    if not (b > 0.0 and math.isfinite(b)):
        raise ValidationError(f"V_ac = {v_ac!r}, L = {l!r} and f = {f_nominal!r} give a filter "
                              f"power constant B = {b!r}, which is not finite and positive")
    return b


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
}


def scheme_gains(scheme: str, given: dict[str, float], path: str) -> dict[str, float]:
    """Every gain of a ``scheme`` unit whose scenario sets the gains
    ``given`` at ``path``: each gain left out takes its catalogue default,
    except that K_pdc = K_v1, K_idc = 10*K_pdc and two integral gains are
    rescaled to keep the equalization bandwidth consistent across schemes.
    The shared-regulation dual-frequency-droop integrates the raw frequency
    mismatch (its sibling integrates the droop-weighted mismatch), so its
    default K_i is scaled by K_omega1; the grid-forming frequency-droop
    equalizer integrates a frequency difference that re-enters through the
    droop slope m_p, so its K_i1 and K_i2 are scaled by 1/m_p.  A slope
    that is not positive is left to the unit's own check; a derived gain
    that overflows is a :class:`SchemaViolation` at ``path.<key it derives
    from>``."""
    gains, source = {**GAIN_DEFAULTS, **given}, {}  # source: derived -> given key

    def derive(key, origin, value):
        if key not in given:
            gains[key], source[key] = value, source.get(origin, origin)
            if not math.isfinite(value):
                raise SchemaViolation(f"{path}.{source[key]}",
                                      f"derives {key} = {value!r}, which is not finite")

    derive("K_pdc", "K_v1", gains["K_v1"])
    derive("K_idc", "K_pdc", 10.0 * gains["K_pdc"])
    if scheme == "dual-freq-droop-2":
        derive("K_i", "K_omega1", GAIN_DEFAULTS["K_i"] * gains["K_omega1"])
    if scheme == "gfm-freq-droop":
        for k_i, m_p in (("K_i1", "m_p1"), ("K_i2", "m_p2")):
            if gains[m_p] > 0.0:
                derive(k_i, m_p, GAIN_DEFAULTS[k_i] / gains[m_p])
    return gains


@dataclass(frozen=True)
class IlcPhysical:
    """Physical converter parameters (SI units), named by their scenario keys."""

    C: float = PHYSICAL_DEFAULTS["C"]                # DC capacitance (F)
    V_dc_ref: float = PHYSICAL_DEFAULTS["V_dc_ref"]  # nominal DC voltage (V)
    K_dc: float = PHYSICAL_DEFAULTS["K_dc"]          # DC support/load coefficient (A/V)
    tau1: float = PHYSICAL_DEFAULTS["tau1"]          # side-1 converter lag (s)
    tau2: float = PHYSICAL_DEFAULTS["tau2"]          # side-2 converter lag (s)
    # filter power constant (W)
    B: float = filter_susceptance_power(PHYSICAL_DEFAULTS["V_ac"], PHYSICAL_DEFAULTS["L"])

    def __post_init__(self):
        for name in ("C", "V_dc_ref", "tau1", "tau2", "B"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be strictly positive, got {value!r}")
        if not (self.K_dc >= 0.0 and math.isfinite(self.K_dc)):
            raise ValidationError(f"K_dc must be non-negative, got {self.K_dc!r}")


@dataclass(frozen=True)
class Gains:
    """Outer-loop controller gains, named by their scenario keys; only those
    a scheme requires are used."""

    K_omega1: float = 0.0    # frequency droop, side 1 (W*s/rad)
    K_omega2: float = 0.0
    K_v1: float = 0.0        # DC-voltage droop (W/V)
    K_v2: float = 0.0
    K_i: float = 0.0         # equalizing integral gain (1/s scaled)
    K_i1: float = 0.0
    K_i2: float = 0.0
    K_pdc: float = 0.0       # DC PI proportional gain (W/V)
    K_idc: float = 0.0       # DC PI integral gain (W/(V*s))
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
            raise ValidationError(f"unknown ILC scheme {self.scheme!r}")
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


def dc_bus(phys: IlcPhysical, guard: Callable) -> Callable:
    """The DC-bus law dc(p1, p2, vdc) -> dV/dt (V/s), p1 and p2 the powers
    leaving the two VSCs; it calls ``guard(v_total, vdc, V_dc_ref)`` where
    the bus can collapse."""
    C, V_dc_ref, K_dc = phys.C, phys.V_dc_ref, phys.K_dc

    def dc(p1, p2, vdc):
        v_total = vdc + V_dc_ref
        guard(v_total, vdc, V_dc_ref)
        return (-p1 / v_total - p2 / v_total - K_dc * vdc) / C

    return dc


def filter_power(B: float, sin: Callable) -> Callable:
    """The inductive filter's law: power(eta) -> B*sin(eta) (W)."""
    return lambda eta: B * sin(eta)


# --- the schemes ---------------------------------------------------------
# Per scheme: its law (gains, physical, dc, power, y, in1, in2) -> (rates,
# out1, out2), written on the DC-bus law dc(p1, p2, vdc) and the filter power
# law power(eta) it is given, bound to the tape's sin and collapse guard where
# the engine traces it into its compiled derivative and Jacobians, and to
# np.sin and no guard where injected_powers evaluates it on arrays.  Inputs
# are the two connection frequencies for GFL/partial units and the two powers
# leaving the converter (p1, p2) for GFM units; outputs are those powers for
# GFL/partial units and the frequency references for GFM units.


def _dfd1_law(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable, y, w1, w2):
    p1, p2, vdc, xi, zeta = y
    droop = -g.K_omega1 * w1 + g.K_omega2 * w2
    pref1 = droop + g.K_i * xi
    pref2 = g.K_pdc * vdc + g.K_idc * zeta
    return (
        ((-p1 + pref1) / phys.tau1, (-p2 + pref2) / phys.tau2, dc(p1, p2, vdc), droop, vdc),
        p1, p2,
    )


def _dfd2_law(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable, y, w1, w2):
    p1, p2, vdc, xi, zeta = y
    # the DC PI term is shared by both references
    p_dc = g.K_pdc * vdc + g.K_idc * zeta
    base = -g.K_omega1 * w1 + g.K_omega2 * w2 + g.K_i * xi
    pref1 = base + p_dc
    pref2 = -base + p_dc
    return (
        ((-p1 + pref1) / phys.tau1, (-p2 + pref2) / phys.tau2, dc(p1, p2, vdc),
         -w1 + w2, vdc),
        p1, p2,
    )


def _dacd_law(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable, y, w1, w2):
    p1, p2, vdc, xi1, xi2 = y
    d1 = g.K_v1 * vdc - g.K_omega1 * w1
    d2 = g.K_v2 * vdc - g.K_omega2 * w2
    pref1 = d1 + g.K_i1 * xi1
    pref2 = d2 + g.K_i2 * xi2
    return (
        ((-p1 + pref1) / phys.tau1, (-p2 + pref2) / phys.tau2, dc(p1, p2, vdc), d1, d2),
        p1, p2,
    )


def _matching_law(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable, y, p1, p2):
    (vdc,) = y
    return ((dc(p1, p2, vdc),), g.m1 * vdc, g.m2 * vdc)


def _gfmfd_law(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable, y, p1, p2):
    vdc, zeta, p_eq, pf1, pf2 = y
    # P_dc and P_eq act as power setpoints: positive P_dc (excess DC energy)
    # raises the frequency references to export more, and the equalizing
    # integrator feeds back negatively, like secondary control
    p_dc = g.K_pdc * vdc + g.K_idc * zeta
    wref1 = -g.m_p1 * (pf1 - g.kappa_s1 * p_dc + g.K_i1 * p_eq)
    wref2 = -g.m_p2 * (pf2 - g.kappa_s2 * p_dc - g.K_i2 * p_eq)
    return (
        (dc(p1, p2, vdc), vdc, wref1 - wref2, (-pf1 + p1) / phys.tau1,
         (-pf2 + p2) / phys.tau2),
        wref1, wref2,
    )


def _gfmdd_law(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable, y, p1, p2):
    vdc, xi1, xi2, pf1, pf2 = y
    wref1 = g.m_p1 * (-pf1 + g.K_v1 * vdc + g.K_i1 * xi1)
    wref2 = g.m_p2 * (-pf2 + g.K_v2 * vdc + g.K_i2 * xi2)
    return (
        (dc(p1, p2, vdc), g.K_v1 * vdc - g.K_omega1 * wref1,
         g.K_v2 * vdc - g.K_omega2 * wref2, (-pf1 + p1) / phys.tau1, (-pf2 + p2) / phys.tau2),
        wref1, wref2,
    )


def _ddm_law(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable, y, w1, w2):
    eta, xi2, p2, vdc = y
    p1 = power(eta)
    wref1 = g.m1 * vdc
    d2 = g.K_v2 * vdc - g.K_omega2 * w2
    pref2 = d2 + g.K_i2 * xi2
    return (
        (wref1 - w1, d2, (-p2 + pref2) / phys.tau2, dc(p1, p2, vdc)),
        p1, p2,
    )


def _gflgfm_law(g: Gains, phys: IlcPhysical, dc: Callable, power: Callable, y, w1, w2):
    eta, xi1, pf1, xi2, p2, vdc = y
    p1 = power(eta)
    wref1 = g.m_p1 * (-pf1 + g.K_v1 * vdc + g.K_i1 * xi1)
    d2 = g.K_v2 * vdc - g.K_omega2 * w2
    pref2 = d2 + g.K_i2 * xi2
    return (
        (wref1 - w1, g.K_v1 * vdc - g.K_omega1 * wref1, (-pf1 + p1) / phys.tau1, d2,
         (-p2 + pref2) / phys.tau2, dc(p1, p2, vdc)),
        p1, p2,
    )


@dataclass(frozen=True)
class Scheme:
    """The one definition of an ILC control scheme.

    ``states`` maps each state of the converter unit itself (the object the
    passivity analysis sees) to its kind, a key of ``engine.KINDS``; a
    grid-forming unit adds two filter angles in simulation.  ``gains`` are
    the :class:`Gains` fields the scheme requires to be positive.  ``law``
    gives the equations from the gains, the physical parameters, the DC-bus
    law, the filter power law, the state and the two inputs; the engine's
    trace derives every Jacobian of the scheme from it (see ``engine._Tape``
    for the rule a law obeys).
    """

    port: str
    states: dict[str, str]
    gains: tuple[str, ...]
    law: Callable[..., tuple]


SCHEME: dict[str, Scheme] = {
    "dual-freq-droop-1": Scheme(
        GFL, dict(p1="power", p2="power", vdc="dc-voltage", xi="power", zeta="dc-integral"),
        ("K_omega1", "K_omega2", "K_i", "K_pdc", "K_idc"), _dfd1_law,
    ),
    "dual-freq-droop-2": Scheme(
        GFL, dict(p1="power", p2="power", vdc="dc-voltage", xi="angle", zeta="dc-integral"),
        ("K_omega1", "K_omega2", "K_i", "K_pdc", "K_idc"), _dfd2_law,
    ),
    "dual-acdc-droop": Scheme(
        GFL, dict(p1="power", p2="power", vdc="dc-voltage", xi1="power", xi2="power"),
        ("K_omega1", "K_omega2", "K_v1", "K_v2", "K_i1", "K_i2"), _dacd_law,
    ),
    "matching": Scheme(GFM, dict(vdc="dc-voltage"), ("m1", "m2"), _matching_law),
    "gfm-freq-droop": Scheme(
        GFM, dict(vdc="dc-voltage", zeta="dc-integral", p_eq="angle", pf1="power", pf2="power"),
        ("m_p1", "m_p2", "K_pdc", "K_idc", "K_i1", "K_i2", "kappa_s1", "kappa_s2"),
        _gfmfd_law,
    ),
    "gfm-dual-droop": Scheme(
        GFM, dict(vdc="dc-voltage", xi1="power", xi2="power", pf1="power", pf2="power"),
        ("m_p1", "m_p2", "K_v1", "K_v2", "K_omega1", "K_omega2", "K_i1", "K_i2"),
        _gfmdd_law,
    ),
    "dual-droop-matching": Scheme(
        PARTIAL, dict(eta="filter-angle", xi2="power", p2="power", vdc="dc-voltage"),
        ("m1", "K_v2", "K_omega2", "K_i2"), _ddm_law,
    ),
    "gfl-gfm-dual-droop": Scheme(
        PARTIAL, dict(eta="filter-angle", xi1="power", pf1="power", xi2="power", p2="power",
                      vdc="dc-voltage"),
        ("m_p1", "K_v1", "K_omega1", "K_i1", "K_v2", "K_omega2", "K_i2"), _gflgfm_law,
    ),
}

SCHEMES = tuple(SCHEME)


def unit_state_names(unit: IlcUnit) -> tuple[str, ...]:
    """States of the converter unit (passivity-analysis state vector)."""
    return tuple(SCHEME[unit.scheme].states)


def sim_states(unit: IlcUnit) -> dict[str, str]:
    """States the engine integrates, each mapped to its kind; grid-forming
    sides add filter angles."""
    angles = {"eta1": "filter-angle", "eta2": "filter-angle"} if unit.port_kind == GFM else {}
    return {**angles, **SCHEME[unit.scheme].states}


def sim_law(unit: IlcUnit, dc: Callable, power: Callable, y, w1, w2) -> tuple:
    """(rates, p1, p2) of one unit at its simulated state ``y`` and the
    frequencies ``w1``, ``w2`` of its MGs, on the given DC-bus and filter
    power laws: grid-forming units put the two filter angles first and feed
    the scheme's law the filter powers."""
    law = SCHEME[unit.scheme].law
    if unit.port_kind != GFM:
        return law(unit.gains, unit.physical, dc, power, y, w1, w2)
    p1, p2 = power(y[0]), power(y[1])
    rates, wref1, wref2 = law(unit.gains, unit.physical, dc, power, y[2:], p1, p2)
    return ((wref1 - w1, wref2 - w2) + rates, p1, p2)


def _check_state(unit: IlcUnit, state, inputs) -> None:
    """The state's length, and that state and inputs are finite."""
    names = unit_state_names(unit)
    if len(state) != len(names):
        raise ValidationError(
            f"scheme {unit.scheme!r} expects {len(names)} states "
            f"{names}, got {len(state)}"
        )
    if not all(math.isfinite(v) for v in (*state, *inputs)):
        raise ValidationError(
            f"ILC state and inputs must be finite, got {state!r}, {inputs!r}"
        )


def injected_powers(unit: IlcUnit, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p1, p2): the powers the unit injects into its two MGs at each row of
    ``y``, its simulated states over time, from the simulated law evaluated
    on the columns, with ``np.sin`` and no collapse guard."""
    phys = unit.physical
    with np.errstate(all="ignore"):  # a truncated run may end on a non-finite sample
        return sim_law(unit, dc_bus(phys, lambda *args: None), filter_power(phys.B, np.sin),
                       y.T, 0.0, 0.0)[1:]
