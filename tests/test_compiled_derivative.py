"""The compiled derivative against the interpreted laws.

``OdeSystem.derivative`` runs one function per system, compiled from the
laws traced once.  ``model_reference.reference_derivative`` runs the same
laws at every call; the two must agree bit for bit, raise the same errors
with the same messages, and a law that the trace cannot replay must fail
when the derivative is built.
"""

import math
import random

import numpy as np
import pytest

from multigrid_ilc import engine, ilc
from multigrid_ilc.analysis import linearize_unit
from multigrid_ilc.engine import OdeSystem
from multigrid_ilc.ilc import GFL, SCHEMES, IlcUnit, Scheme
from multigrid_ilc.mg import SwingGovernor
from multigrid_ilc.network import ValidatedNetwork
from multigrid_ilc.scenario import build_system, resolve, set_parameter, shipped_scenario

from model_reference import reference_derivative


def outcome(derivative, y, loads):
    """The rates (as bytes, with their types) or the error raised."""
    try:
        rates = derivative(0.0, y, loads)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return type(rates), [type(v) for v in rates], np.array(rates, dtype=float).tobytes()


def random_states(ode, rng: random.Random, count: int):
    """States spread over many state scales, with loads; some with the DC
    bus pushed through collapse and some with a non-finite filter angle."""
    vdcs = [k for k, kind in enumerate(ode.state_kinds) if kind == "dc-voltage"]
    etas = [k for k, kind in enumerate(ode.state_kinds) if kind == "filter-angle"]
    for i in range(count):
        spread = 10.0 ** rng.uniform(-3, 2)
        y = [rng.gauss(0.0, spread) * s for s in ode.state_scales]
        if etas:
            for k in etas:
                y[k] = rng.uniform(-1.5, 1.5)
        if i % 4 == 1:
            for k in vdcs:
                y[k] = -rng.uniform(0.5, 2.0) * 1e4
        if i % 4 == 2 and etas:
            y[rng.choice(etas)] = rng.choice([math.nan, math.inf, -math.inf])
        if i % 8 == 3:
            y[rng.randrange(ode.dim)] = math.nan
        loads = tuple(rng.gauss(0.0, 1e7) for _ in range(ode.net.n_mgs))
        yield y, loads


SYSTEMS = [("two-mg", scheme) for scheme in SCHEMES] + [("three-mg", None),
                                                         ("ieee39-reduced", None)]


@pytest.mark.parametrize("scenario, scheme", SYSTEMS,
                         ids=[s if s else n for n, s in SYSTEMS])
def test_compiled_derivative_is_the_interpreted_one(scenario, scheme, scheme_scenario):
    resolved = (scheme_scenario(scheme) if scheme
                else resolve(shipped_scenario(scenario)))
    ode = build_system(resolved).ode
    rng = random.Random(f"{scenario}-{scheme}")

    def reference(t, y, loads):
        return reference_derivative(ode, t, y, loads)

    errors = 0
    for y, loads in random_states(ode, rng, 200):
        expected = outcome(reference, y, loads)
        assert outcome(ode.derivative, y, loads) == expected
        errors += issubclass(expected[0], Exception)
        # find_equilibrium passes numpy scalars
        as_numpy = list(np.array(y))
        assert outcome(ode.derivative, as_numpy, loads) == outcome(reference, as_numpy, loads)
    # the collapse region (and, with a filter, a non-finite angle) was reached
    assert errors > 0
    assert ode.derivative(0.0, [0.0] * ode.dim) == reference_derivative(
        ode, 0.0, [0.0] * ode.dim)


def _branching(p1, p2, vdc):
    return p1 if p1 < 0.0 else -p1


def _truth(p1, p2, vdc):
    return p1 if vdc else p2


@pytest.mark.parametrize("law", [
    _branching,
    _truth,
    lambda p1, p2, vdc: abs(p1),
    lambda p1, p2, vdc: p1 ** 2,
    lambda p1, p2, vdc: math.sin(p1),
    lambda p1, p2, vdc: np.sin(p1),
    lambda p1, p2, vdc: max(p1, p2),
    lambda p1, p2, vdc: +p1,
    lambda p1, p2, vdc: p1 + None,
    lambda p1, p2, vdc: None * p1,
], ids=["comparison", "bool", "abs", "pow", "math", "numpy", "max", "unary-plus",
        "none-operand", "none-reflected"])
def test_untraceable_law_raises_when_built(monkeypatch, law):
    """A law that applies to a variable anything but + - * / and unary
    minus cannot be compiled: building the derivative, the system's
    Jacobian or the unit's Jacobian raises and names the scheme, and no
    function is built from it."""

    def toy_rhs(g, phys, dc, power, y, w1, w2):
        p1, p2, vdc = y
        return ((law(p1, p2, vdc) - w1, -p2 + w2, dc(p1, p2, vdc)), p1, p2)

    states = dict(p1="power", p2="power", vdc="dc-voltage")
    monkeypatch.setitem(ilc.SCHEME, "toy", Scheme(GFL, states, (), toy_rhs))
    models = [SwingGovernor(M=1e7, D=1e3, T_g=0.3, inv_R=2e7, rating=4e8)] * 2
    ode = OdeSystem(ValidatedNetwork(2, ((0, 1),)), models, [IlcUnit("toy")])
    with pytest.raises(TypeError, match="scheme 'toy'"):
        ode.derivative(0.0, [0.0] * ode.dim)
    assert "_rhs" not in vars(ode)
    fresh = OdeSystem(ValidatedNetwork(2, ((0, 1),)), models, [IlcUnit("toy")])
    with pytest.raises(TypeError, match="scheme 'toy'"):
        fresh.jacobian(np.zeros(fresh.dim))
    with pytest.raises(TypeError, match="scheme 'toy'"):
        linearize_unit(IlcUnit("toy"))


def test_one_compile_per_structure(monkeypatch, scheme_scenario):
    """Systems that differ only in their constants share one compiled
    source: 20 builds of one scheme at different gain scales and filter
    inductances run compile() once."""
    base = scheme_scenario("gfl-gfm-dual-droop")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return compile(*args, **kwargs)

    engine._factory.cache_clear()
    monkeypatch.setattr(engine, "compile", counted, raising=False)
    for k in range(20):
        scale = 10.0 ** (k / 10.0)
        resolved = set_parameter(base, "ilc.L", 1e-4 * (k + 1))
        for name, value in base["ilcs"][0]["gains"].items():
            resolved = set_parameter(resolved, f"ilc.gains.{name}", value * scale)
        ode = build_system(resolved).ode
        y = [1e-3 * s for s in ode.state_scales]
        assert ode.derivative(0.0, y) == reference_derivative(ode, 0.0, y)
    assert len(calls) == 1
