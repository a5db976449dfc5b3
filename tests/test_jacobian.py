"""The exact Jacobians against the central-difference reference.

Each comparison runs at 20 random states with a nonzero DC-voltage
deviation, nonzero filter angles and nonzero port inputs, their magnitudes
spread over four decades up to three times each variable's scale.  An
entry passes when it lies within 1e-6 of the reference entry, or within
the rounding error of the central difference itself: 1e3 machine epsilons
of the summed magnitudes of its row's terms, over the step.
"""

import math
import re

import numpy as np
import pytest

from multigrid_ilc import ilc
from multigrid_ilc.analysis import linearize_closed_loop, linearize_unit, mg_linearize
from multigrid_ilc.engine import OdeSystem, find_equilibrium, ilc_jacobian, kind_scales
from multigrid_ilc.errors import DcVoltageCollapse, ValidationError
from multigrid_ilc.ilc import (
    GFL,
    GFM,
    SCHEMES,
    Gains,
    IlcPhysical,
    IlcUnit,
    Scheme,
    unit_state_names,
)
from multigrid_ilc.mg import FirstOrderDroop, SwingGovernor
from multigrid_ilc.network import ValidatedNetwork
from multigrid_ilc.scenario import build_system, resolve, shipped_scenario
from multigrid_ilc.sweep import _scheme_scenario

from jacobian_reference import dc_bus_partials, finite_difference_jacobian
from model_reference import ilc_derivative, ilc_output, mg_derivative, unit_rhs
from test_ilc import unit_for

N_STATES = 20
EPS = np.finfo(float).eps
# steps well above the default 6e-6: the rounding error falls with the step,
# and the truncation error of the nonlinear entries stays below 1e-8
REL_STEP = 1e-4


def assert_matches(f, exact, z, scales):
    """``exact`` against the central difference of ``f`` at ``z``."""
    z = np.asarray(z, dtype=float)
    scales = np.asarray(scales, dtype=float)
    reference = finite_difference_jacobian(f, z, scales, REL_STEP)
    terms = np.abs(reference) @ np.abs(z) + np.abs(np.asarray(f(z), dtype=float))
    steps = REL_STEP * np.maximum(scales, np.abs(z))
    allowed = 1e-6 * np.abs(reference) + 1e3 * EPS * terms[:, None] / steps[None, :]
    excess = np.abs(exact - reference) - allowed
    worst = np.unravel_index(np.argmax(excess), excess.shape)
    assert np.all(excess <= 0.0), (
        f"entry {worst}: exact {exact[worst]!r}, reference {reference[worst]!r}"
    )


def random_points(kinds, scales, seed):
    """Random nonzero values of variables of the given kinds, of either
    sign, with magnitudes log-uniform over the four decades up to 3 times
    their scale (up to 1.2 rad for filter angles)."""
    rng = np.random.default_rng(seed)
    top = np.array([1.2 if kind == "filter-angle" else 3.0 for kind in kinds])
    magnitude = top * 10.0 ** rng.uniform(-4.0, 0.0, (N_STATES, len(kinds)))
    return magnitude * rng.choice((-1.0, 1.0), magnitude.shape) * np.asarray(scales)


def unit_kinds(unit):
    """The kinds of the unit's states and of its two port inputs: powers
    into a grid-forming unit, frequencies into the others."""
    inputs = ("power",) * 2 if unit.port_kind == GFM else ("frequency",) * 2
    return (*ilc.SCHEME[unit.scheme].states.values(), *inputs)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_scheme_record_jacobian(scheme):
    """ilc_jacobian against the record's rhs law: partials of (rates, out1,
    out2) by (state, in1, in2)."""
    unit = unit_for(scheme)
    rhs = unit_rhs(unit)
    n = len(unit_state_names(unit))
    kinds = unit_kinds(unit)
    scales = kind_scales(unit, kinds)

    def f(z):
        rates, out1, out2 = rhs(tuple(z[:n]), z[n], z[n + 1])
        return (*rates, out1, out2)

    for z in random_points(kinds, scales, seed=1):
        assert_matches(f, ilc_jacobian(unit, tuple(z[:n]), (z[n], z[n + 1])), z, scales)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_dc_bus_row_is_the_closed_form(scheme):
    """The vdc row of ilc_jacobian against the DC bus's closed-form
    partials, at V_total from V_dc_ref down to 1e-3 V_dc_ref.  The powers
    p1, p2 are a grid-forming unit's inputs, else its states, or B*sin(eta)
    for a filter side.  Its entries may cancel (p1 near -p2), so the
    allowed error is 4 machine epsilons of the row's largest closed-form
    term."""
    unit = unit_for(scheme)
    phys, names = unit.physical, unit_state_names(unit)
    n, row = len(names), names.index("vdc")
    kinds = unit_kinds(unit)
    points = random_points(kinds, kind_scales(unit, kinds), seed=10)
    v_totals = phys.V_dc_ref * 10.0 ** np.linspace(-3.0, 0.0, len(points))
    for z, v_total in zip(points, v_totals):
        z[row] = v_total - phys.V_dc_ref
        powers = []  # per side: (power, its column, the column's factor)
        for side, name in enumerate(("p1", "p2")):
            if unit.port_kind == GFM:
                powers.append((z[n + side], n + side, 1.0))
            elif name in names:
                powers.append((z[names.index(name)], names.index(name), 1.0))
            else:
                eta = names.index("eta")
                powers.append((phys.B * math.sin(z[eta]), eta, phys.B * math.cos(z[eta])))
        by_p, by_v = dc_bus_partials(phys, powers[0][0], powers[1][0], z[row])
        expected = np.zeros(n + 2)
        for _, column, factor in powers:
            expected[column] += by_p * factor
        expected[row] += by_v
        terms = (abs(by_p) * max(abs(f) for _, _, f in powers),
                 (abs(powers[0][0]) + abs(powers[1][0])) / (phys.C * v_total ** 2),
                 phys.K_dc / phys.C)
        exact = ilc_jacobian(unit, tuple(z[:n]), (z[n], z[n + 1]))[row]
        assert np.all(np.abs(exact - expected) <= 4 * EPS * max(terms)), (exact, expected)


def check_port_linearization(unit, seed):
    """linearize_unit away from the origin against the central difference
    of ilc_derivative and ilc_output in the passivity port convention."""
    n = len(unit_state_names(unit))
    gfm = unit.port_kind == GFM
    kinds = unit_kinds(unit)
    scales = kind_scales(unit, kinds)

    def f(z):
        raw = (-z[n], -z[n + 1]) if gfm else (z[n], z[n + 1])
        x = tuple(z[:n])
        return ilc_derivative(unit, x, raw) + ilc_output(unit, x, raw)

    for z in random_points(kinds, scales, seed):
        lin = linearize_unit(unit, z[:n], (z[n], z[n + 1]))
        assert_matches(f, np.block([[lin.a, lin.b], [lin.c, lin.d]]), z, scales)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_linearize_unit_port_convention(scheme):
    check_port_linearization(unit_for(scheme), seed=3)


@pytest.mark.parametrize("model", [FirstOrderDroop(T=2e7, D=2e7, rating=4e8),
                                   SwingGovernor(M=3e7, D=1e4, T_g=0.3, inv_R=4e7)])
def test_mg_linearization(model):
    n = len(model.state_names)
    kinds = (*model.states.values(), "power")
    scales = kind_scales(model, kinds)
    lin = mg_linearize(model)
    exact = np.block([[lin.a, lin.b], [lin.c, lin.d]])

    def f(z):
        return (*mg_derivative(model, tuple(z[:n]), z[n], p_load=0.0), z[0])

    for z in random_points(kinds, scales, seed=4):
        assert_matches(f, exact, z, scales)


def check_system(ode, seed):
    for y in random_points(ode.state_kinds, ode.state_scales, seed):
        assert_matches(lambda v: ode.derivative(0.0, v.tolist()), ode.jacobian(y), y,
                       ode.state_scales)


@pytest.mark.parametrize("name", ["two-mg", "three-mg", "ieee39-reduced"])
def test_closed_loop_of_shipped_scenarios(name):
    check_system(build_system(resolve(shipped_scenario(name))).ode, seed=5)


@pytest.mark.parametrize("name", ["two-mg", "three-mg", "ieee39-reduced"])
def test_compiled_jacobians_multiply_by_no_unit_constant(name):
    """No partial line of any scheme's system Jacobian is a product by a
    bound constant equal to 1.0 or -1.0: such a factor passes the other
    one through, or its negation."""
    resolved = resolve(shipped_scenario(name))
    for scheme in SCHEMES:
        tape = build_system(_scheme_scenario(resolved, scheme)).ode._tape.d
        units = {f"k{k}" for k, value in enumerate(tape.consts) if abs(value) == 1.0}
        products = [line for line in tape.lines
                    if (m := re.fullmatch(r"\w+ = (\w+) \* (\w+)", line))
                    and units & set(m.groups())]
        assert products == [], scheme


@pytest.mark.parametrize("scheme", SCHEMES)
def test_closed_loop_per_scheme(scheme):
    """Every scheme between a swing-governor and a first-order-droop MG, so
    both MG forms and every port kind meet the ILC-MG coupling."""
    check_two_mg_system(unit_for(scheme), seed=6)


def test_closed_loop_linearization_is_the_jacobian_at_the_equilibrium():
    doc = shipped_scenario("two-mg")
    doc["mgs"][0]["p_load"] = -1e6
    ode = build_system(resolve(doc)).ode
    eq = find_equilibrium(ode)
    assert np.array_equal(linearize_closed_loop(ode, eq).a, ode.jacobian(eq.x))
    assert np.array_equal(linearize_closed_loop(ode).a, ode.jacobian(np.zeros(ode.dim)))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_jacobian_raises_where_the_derivative_collapses(scheme):
    net = ValidatedNetwork(2, ((0, 1),))
    models = [SwingGovernor(M=3e7, D=1e4, T_g=0.3, inv_R=4e7, rating=4e8)] * 2
    unit = unit_for(scheme)
    ode = OdeSystem(net, models, [unit])
    y = np.zeros(ode.dim)
    y[ode.column("ilc", 0, "vdc")] = -1.5 * unit.physical.V_dc_ref
    with pytest.raises(DcVoltageCollapse):
        ode.derivative(0.0, y.tolist())
    with pytest.raises(DcVoltageCollapse):
        ode.jacobian(y)


def test_linearize_unit_rejects_non_finite_state():
    with pytest.raises(ValidationError, match="must be finite"):
        linearize_unit(unit_for("matching"), (math.inf,))


def check_two_mg_system(unit, seed):
    """The closed loop of ``unit`` between a swing-governor and a
    first-order-droop MG."""
    net = ValidatedNetwork(2, ((0, 1),))
    models = [SwingGovernor(M=3e7, D=1e4, T_g=0.3, inv_R=4e7, rating=4e8),
              FirstOrderDroop(T=2e7, D=2e7, rating=2e8)]
    check_system(OdeSystem(net, models, [unit]), seed)


def _lag_rhs(g, phys, dc, power, y, w1, w2):
    """Grid-following toy: one power lag per side, driven by frequency droop."""
    p1, p2, vdc = y
    return (
        ((-p1 - g.K_omega1 * w1) / phys.tau1, (-p2 - g.K_omega2 * w2) / phys.tau2,
         dc(p1, p2, vdc)),
        p1, p2,
    )


def _filter_rhs(g, phys, dc, power, y, p1, p2):
    """Grid-forming toy: frequency references from the DC voltage, drooped
    by a lagged measurement of each side's power."""
    vdc, pf1, pf2 = y
    return (
        (dc(p1, p2, vdc), (-pf1 + p1) / phys.tau1, (-pf2 + p2) / phys.tau2),
        g.m1 * vdc - g.m_p1 * pf1, g.m2 * vdc - g.m_p2 * pf2,
    )


def _product_rhs(g, phys, dc, power, y, w1, w2):
    """Grid-following toy whose first power lag is driven by the product of
    its own power and the DC voltage."""
    p1, p2, vdc = y
    return (
        ((-p1 - g.K_omega1 * w1 + 1e-4 * p1 * vdc) / phys.tau1,
         (-p2 - g.K_omega2 * w2) / phys.tau2, dc(p1, p2, vdc)),
        p1, p2,
    )


def _quotient_rhs(g, phys, dc, power, y, w1, w2):
    """Grid-following toy whose second power lag is driven by its own power
    over the DC voltage."""
    p1, p2, vdc = y
    return (
        ((-p1 - g.K_omega1 * w1) / phys.tau1,
         (-p2 - g.K_omega2 * w2 + 1e3 * p2 / (vdc + phys.V_dc_ref)) / phys.tau2,
         dc(p1, p2, vdc)),
        p1, p2,
    )


LAG_STATES = dict(p1="power", p2="power", vdc="dc-voltage")
TOYS = {
    "toy-lag": (GFL, LAG_STATES, _lag_rhs, Gains(K_omega1=2.5e7, K_omega2=2.5e7)),
    "toy-product": (GFL, LAG_STATES, _product_rhs, Gains(K_omega1=2.5e7, K_omega2=2.5e7)),
    "toy-quotient": (GFL, LAG_STATES, _quotient_rhs, Gains(K_omega1=2.5e7, K_omega2=2.5e7)),
    "toy-filter": (GFM, dict(vdc="dc-voltage", pf1="power", pf2="power"), _filter_rhs,
                   Gains(m1=1e-3, m2=1e-3, m_p1=4e-8, m_p2=4e-8)),
}


@pytest.mark.parametrize("tag", TOYS)
def test_a_scheme_given_by_its_law_alone_gets_exact_jacobians(tag, monkeypatch):
    """A new record carries no Jacobian: the closed loop and the port
    linearization are derived from its rhs law."""
    port, states, rhs, gains = TOYS[tag]
    monkeypatch.setitem(ilc.SCHEME, tag, Scheme(port, states, (), rhs))
    unit = IlcUnit(tag, IlcPhysical(), gains)
    check_two_mg_system(unit, seed=7)
    check_port_linearization(unit, seed=8)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_linearize_unit_leaves_the_derived_jacobian_intact(scheme):
    """linearize_unit flips signs in the matrix ilc_jacobian returns; the
    per-unit derivation must hand out a new matrix on every call."""
    unit = unit_for(scheme)
    kinds = ilc.SCHEME[scheme].states.values()
    scales = kind_scales(unit, kinds)
    x = random_points(kinds, scales, seed=9)[0]
    first = ilc_jacobian(unit, x, (0.0, 0.0)).copy()
    linearize_unit(unit, x)
    linearize_unit(unit, x)
    assert ilc_jacobian(unit, x, (0.0, 0.0)).tobytes() == first.tobytes()
