"""State kinds: every state declares its kind where it is declared, and the
kind alone sets the state's scale, absolute tolerance and divergence guard
(``engine.KINDS``), whatever the state is called.
"""

import math

import pytest

from multigrid_ilc import ilc
from multigrid_ilc.engine import KINDS, OdeSystem, integrate
from multigrid_ilc.ilc import GFL, GFM, PARTIAL, SCHEME, Gains, IlcPhysical, IlcUnit, Scheme
from multigrid_ilc.mg import FirstOrderDroop, SwingGovernor
from multigrid_ilc.network import ValidatedNetwork
from multigrid_ilc.scenario import build_system

MODELS = (FirstOrderDroop(T=2e7, D=2e7, rating=2e8),
          SwingGovernor(M=3e7, D=1e4, T_g=0.3, inv_R=4e7, rating=4e8))


def two_mg_ode(unit):
    return OdeSystem(ValidatedNetwork(2, ((0, 1),)), MODELS, [unit])


@pytest.mark.parametrize("scheme, name", [("gfm-freq-droop", "p_eq"),
                                          ("dual-freq-droop-2", "xi")])
def test_integrated_frequency_differences_are_angles(scheme_scenario, scheme, name):
    """gfm-freq-droop p_eq integrates wref1 - wref2 and dual-freq-droop-2 xi
    integrates w2 - w1: both are angles in rad."""
    ode = build_system(scheme_scenario(scheme)).ode
    k = ode.column("ilc", 0, name)
    assert ode.state_kinds[k] == "angle"
    assert ode.state_scales[k] == 1.0
    assert ode.state_atols[k] == 1e-9


def test_a_power_integral_of_the_same_name_keeps_the_power_scale(scheme_scenario):
    """dual-freq-droop-1 xi integrates the frequency droop, a power."""
    ode = build_system(scheme_scenario("dual-freq-droop-1")).ode
    xi, p1 = ode.column("ilc", 0, "xi"), ode.column("ilc", 0, "p1")
    assert ode.state_kinds[xi] == "power"
    assert ode.state_scales[xi] == ode.state_scales[p1] == max(1e5, 1e-3 * IlcPhysical().B)
    assert ode.state_atols[xi] == 1e-3


def test_every_state_declares_one_known_kind(two_mg_resolved):
    """Every scheme, both MG models and the simulated filter angles map each
    state to one kind of the table, and every kind of the table is used."""
    declared = set()
    for scheme, record in SCHEME.items():
        assert isinstance(record.states, dict) and record.states, scheme
        declared |= set(record.states.values())
        unit = IlcUnit(scheme, gains=Gains(**{g: 1.0 for g in record.gains}))
        sim = ilc.sim_states(unit)
        assert list(sim)[-len(record.states):] == list(record.states)
        if record.port == GFM:
            assert list(sim.items())[:2] == [("eta1", "filter-angle"), ("eta2", "filter-angle")]
        else:
            assert len(sim) == len(record.states)
        declared |= set(sim.values())
    for model in MODELS:
        assert model.state_names == tuple(model.states)
        declared |= set(model.states.values())
    assert declared == set(KINDS)
    ode = build_system(two_mg_resolved).ode
    assert len(ode.state_kinds) == len(ode.state_names) == ode.dim
    assert set(ode.state_kinds) <= set(KINDS)


def _runaway_bus_rhs(g, phys, dc, power, y, w1, w2):
    """Both sides draw 1 MW into a DC bus called v_bus, with no DC support."""
    p1, p2, v_bus = y
    return (((-p1 - 1e6) / phys.tau1, (-p2 - 1e6) / phys.tau2, dc(p1, p2, v_bus)),
            p1, p2)


def _runaway_angle_rhs(g, phys, dc, power, y, w1, w2):
    """A partial unit whose filter angle, called delta, runs off at 10 rad/s."""
    delta, p2, v_bus = y
    p1 = power(delta)
    return ((10.0 - w1, (-p2 - p1) / phys.tau2, dc(p1, p2, v_bus)), p1, p2)


def test_a_dc_bus_of_any_name_truncates_at_its_bound(monkeypatch):
    states = dict(p1="power", p2="power", v_bus="dc-voltage")
    monkeypatch.setitem(SCHEME, "toy-bus", Scheme(GFL, states, (), _runaway_bus_rhs))
    phys = IlcPhysical(K_dc=0.0)
    ode = two_mg_ode(IlcUnit("toy-bus", phys))
    traj = integrate(ode, [0.0] * ode.dim, (), (0.0, 1.0))
    limit = 0.2 * phys.V_dc_ref
    assert traj.truncated
    assert traj.truncation_reason.startswith(f"ilc1.v_bus exceeded {limit:g} ")
    v_bus = traj.y[:, ode.column("ilc", 0, "v_bus")]
    assert abs(v_bus[-1]) > limit >= max(abs(v_bus[:-1]))


def test_a_filter_angle_of_any_name_truncates_at_its_bound(monkeypatch):
    states = dict(delta="filter-angle", p2="power", v_bus="dc-voltage")
    monkeypatch.setitem(SCHEME, "toy-angle", Scheme(PARTIAL, states, (), _runaway_angle_rhs))
    ode = two_mg_ode(IlcUnit("toy-angle"))
    traj = integrate(ode, [0.0] * ode.dim, (), (0.0, 1.0))
    limit = math.pi / 2
    assert KINDS["filter-angle"].bound == limit
    assert traj.truncation_reason.startswith(f"ilc1.delta exceeded {limit:g} ")
    delta = traj.y[:, ode.column("ilc", 0, "delta")]
    assert abs(delta[-1]) > limit >= max(abs(delta[:-1]))
