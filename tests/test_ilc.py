import math
from dataclasses import fields

import numpy as np
import pytest

from multigrid_ilc.errors import (
    DcVoltageCollapse,
    NonFiniteInput,
    SchemeStateMismatch,
    UnknownScheme,
    ValidationError,
)
from multigrid_ilc.ilc import (
    SCHEME,
    Gains,
    IlcPhysical,
    IlcUnit,
    SCHEMES,
    filter_susceptance_power,
    ilc_jacobian,
    make_sim_derivative,
    sim_state_names,
    unit_state_names,
)

from model_reference import (
    EquilibriumBoundary,
    NoEquilibrium,
    ilc_derivative,
    ilc_equilibrium,
    ilc_output,
)

PHYS = IlcPhysical()

# catalogue gains per scheme; the shared-regulation and grid-forming
# frequency-droop equalizers use the bandwidth-consistent integral gains
# (see scenario module)
CATALOGUE = {
    "dual-freq-droop-1": dict(k_omega1=2.5e7, k_omega2=2.5e7, k_i=10.0,
                              k_pdc=2.5e4, k_idc=2.5e5),
    "dual-freq-droop-2": dict(k_omega1=2.5e7, k_omega2=2.5e7, k_i=2.5e8,
                              k_pdc=2.5e4, k_idc=2.5e5),
    "dual-acdc-droop": dict(k_omega1=2.5e7, k_omega2=2.5e7, k_v1=2.5e4,
                            k_v2=2.5e4, k_i1=10.0, k_i2=10.0),
    "matching": dict(m1=1e-3, m2=1e-3),
    "gfm-freq-droop": dict(m_p1=5e-8, m_p2=5e-8, k_pdc=2.5e4, k_idc=2.5e5,
                           k_i1=2e8, k_i2=2e8),
    "gfm-dual-droop": dict(m_p1=5e-8, m_p2=5e-8, k_v1=2.5e4, k_v2=2.5e4,
                           k_omega1=2.5e7, k_omega2=2.5e7, k_i1=10.0, k_i2=10.0),
    "dual-droop-matching": dict(m1=1e-3, k_v2=2.5e4, k_omega2=2.5e7, k_i2=10.0),
    "gfl-gfm-dual-droop": dict(m_p1=5e-8, k_v1=2.5e4, k_omega1=2.5e7, k_i1=10.0,
                               k_v2=2.5e4, k_omega2=2.5e7, k_i2=10.0),
}


def unit_for(scheme, phys=PHYS, **overrides):
    gains = dict(CATALOGUE[scheme])
    gains.update(overrides)
    return IlcUnit(scheme, phys, Gains(**gains))


def test_default_filter_constant():
    assert filter_susceptance_power(3300.0, 1e-3) == pytest.approx(3.47e7, rel=2e-3)


class TestDcBus:
    """The DC-bus law, seen through the matching unit, whose only state is
    the DC voltage and whose inputs are the two outgoing powers."""

    def dc_rate(self, p1, p2, v):
        (rate,) = ilc_derivative(unit_for("matching"), (v,), (p1, p2))
        return rate

    def test_equilibrium(self):
        assert self.dc_rate(0.0, 0.0, 0.0) == 0.0

    def test_discharge_rate(self):
        # 1 kW out of a 1 mF bus at 10 kV
        assert self.dc_rate(1000.0, 0.0, 0.0) == pytest.approx(-100.0)

    def test_steady_state_quadratic_root(self):
        # V (V + Vref) = 1000 for a 1 kW net import
        v = (-1e4 + math.sqrt(1e8 + 4000.0)) / 2.0
        assert v == pytest.approx(0.09999, abs=1e-5)
        assert abs(self.dc_rate(-1000.0, 0.0, v)) < 1e-9

    def test_collapse(self):
        with pytest.raises(DcVoltageCollapse):
            self.dc_rate(0.0, 0.0, -PHYS.v_dc_ref)


class TestControllers:
    # with the converter powers at zero, a grid-following side's power
    # reference is its power rate times the lag: pref = tau * dp/dt

    def test_dfd1_droop_symmetry(self):
        u = unit_for("dual-freq-droop-1")
        rates = ilc_derivative(u, (0.0,) * 5, (-0.02, -0.02))
        assert rates[0] * u.physical.tau1 == 0.0

    def test_dfd1_droop_value(self):
        u = unit_for("dual-freq-droop-1")
        rates = ilc_derivative(u, (0.0,) * 5, (-0.01, 0.0))
        assert rates[0] * u.physical.tau1 == pytest.approx(2.5e5)

    def test_matching_reference(self):
        u = unit_for("matching")
        w1, w2 = ilc_output(u, (5.0,))
        assert w1 == pytest.approx(5e-3)
        assert w2 == pytest.approx(5e-3)

    def test_state_mismatch(self):
        # the DC integrator state zeta is missing
        u = unit_for("dual-freq-droop-1")
        with pytest.raises(SchemeStateMismatch):
            ilc_jacobian(u, (0.0, 0.0, 0.0, 0.0), (0.0, 0.0))

    def test_nonfinite(self):
        u = unit_for("matching")
        with pytest.raises(NonFiniteInput):
            ilc_jacobian(u, (math.inf,), (0.0, 0.0))


class TestDerivativeAndOutput:
    def test_gfl_equilibrium_rates(self):
        u = unit_for("dual-freq-droop-1")
        rates = ilc_derivative(u, (0.0,) * 5, (0.0, 0.0))
        assert rates == (0.0,) * 5

    def test_partial_angle_rate(self):
        # matching side: omega_ref1 = m1 * vdc
        u = unit_for("dual-droop-matching")
        rates = ilc_derivative(u, (0.0, 0.0, 0.0, 10.0), (0.0, 0.0))
        assert rates[0] == pytest.approx(0.01)

    def test_partial_power_output(self):
        u = unit_for("dual-droop-matching")
        y = ilc_output(u, (math.pi / 6, 0.0, 0.0, 0.0))
        assert y[0] == pytest.approx(-PHYS.b / 2.0, rel=1e-12)

    def test_gfl_output_sign_convention(self):
        u = unit_for("dual-freq-droop-1")
        assert ilc_output(u, (100.0, -100.0, 0.0, 0.0, 0.0)) == (-100.0, 100.0)

    def test_gfm_output_at_origin(self):
        u = unit_for("matching")
        assert ilc_output(u, (0.0,), (0.0, 0.0)) == (0.0, 0.0)

    def test_partial_output_zero_at_zero_angle(self):
        u = unit_for("dual-droop-matching")
        y = ilc_output(u, (0.0, 123.0, 456.0, 7.0))
        assert y[0] == 0.0

    def test_state_length_checked(self):
        u = unit_for("matching")
        with pytest.raises(SchemeStateMismatch):
            ilc_jacobian(u, (0.0, 0.0), (0.0, 0.0))

    def test_unknown_scheme(self):
        with pytest.raises(UnknownScheme):
            IlcUnit("machting", PHYS, Gains())

    def test_required_gain_positive(self):
        with pytest.raises(ValidationError):
            IlcUnit("matching", PHYS, Gains(m1=1e-3, m2=0.0))


class TestEquilibrium:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_origin(self, scheme):
        u = unit_for(scheme)
        state = ilc_equilibrium(u, EquilibriumBoundary(0.0, 0.0, 0.0))
        assert all(v == 0.0 for v in state)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rates_vanish_at_equilibrium(self, scheme):
        u = unit_for(scheme)
        w = -0.005
        state = ilc_equilibrium(u, EquilibriumBoundary(w, w, 3e5))
        rates, p1, _ = make_sim_derivative(u)(state, w, w)
        # below 1e-9 of the state-rate scale
        assert max(abs(r) for r in rates) < 1e-9 * max(1.0, abs(p1))
        assert p1 == pytest.approx(3e5, rel=1e-9)

    def test_matching_dc_voltage_relation(self):
        u = unit_for("matching")
        state = ilc_equilibrium(u, EquilibriumBoundary(-0.005, -0.005, 0.0))
        names = sim_state_names(u)
        assert state[names.index("vdc")] == pytest.approx(-5.0)

    def test_dfd1_dc_integrator_backsolve(self):
        u = unit_for("dual-freq-droop-1")
        p_star = 2e5
        state = ilc_equilibrium(u, EquilibriumBoundary(0.0, 0.0, p_star))
        names = sim_state_names(u)
        # side-2 reference equals -p_star, held by the DC integral term
        assert state[names.index("zeta")] == pytest.approx(
            -p_star / u.gains.k_idc
        )

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_inconsistent_normalized_frequencies(self, scheme):
        u = unit_for(scheme)
        with pytest.raises(NoEquilibrium):
            ilc_equilibrium(u, EquilibriumBoundary(-0.005, -0.004, 0.0))

    def test_transfer_beyond_filter_limit(self):
        u = unit_for("dual-droop-matching")
        with pytest.raises(NoEquilibrium):
            ilc_equilibrium(u, EquilibriumBoundary(0.0, 0.0, 2.0 * PHYS.b))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_perturbed_equilibrium_has_nonzero_rates(self, scheme):
        u = unit_for(scheme)
        w = -0.005
        state = list(ilc_equilibrium(u, EquilibriumBoundary(w, w, 3e5)))
        names = sim_state_names(u)
        state[names.index("vdc")] += 1.0
        rates, _, _ = make_sim_derivative(u)(tuple(state), w, w)
        assert max(abs(r) for r in rates) > 1e-6


def test_partial_small_signal_is_integrator_of_gain_b():
    # about eta* = 0 the forming side is a pure integrator of gain B from
    # (omega_ref1 - omega1) to p1
    u = unit_for("dual-droop-matching")
    eps = 1e-9
    y_plus = ilc_output(u, (eps, 0.0, 0.0, 0.0))
    y_minus = ilc_output(u, (-eps, 0.0, 0.0, 0.0))
    slope = (y_plus[0] - y_minus[0]) / (2 * eps)
    assert slope == pytest.approx(-PHYS.b, rel=1e-9)


def test_gfm_dual_droop_reduces_to_matching():
    """With the power-feedback terms frozen (huge filter constants) and the
    integral gains effectively zero, the grid-forming dual droop collapses
    to matching control with m = m_p * K_v."""
    from multigrid_ilc.engine import LoadEvent, OdeSystem, integrate
    from multigrid_ilc.mg import SwingGovernor
    from multigrid_ilc.network import ValidatedNetwork

    net = ValidatedNetwork(2, ((0, 1),))
    models = [
        SwingGovernor(M=3e7, D=1e4, T_g=0.3, inv_R=4e7, rating=4e8),
        SwingGovernor(M=1.5e7, D=5e3, T_g=0.3, inv_R=2e7, rating=2e8),
    ]
    m_p, k_v = 5e-8, 2.5e4
    gfmdd = unit_for(
        "gfm-dual-droop", m_p1=m_p, m_p2=m_p, k_v1=k_v, k_v2=k_v,
        k_i1=1e-12, k_i2=1e-12,
    )
    gfmdd = IlcUnit(
        "gfm-dual-droop",
        IlcPhysical(tau1=1e12, tau2=1e12),  # freeze the power filters at zero
        gfmdd.gains,
    )
    matching = unit_for("matching", m1=m_p * k_v, m2=m_p * k_v)

    events = (LoadEvent(1.0, 0, -1e6),)
    trajectories = []
    for unit in (gfmdd, matching):
        ode = OdeSystem(net, models, [unit])
        traj = integrate(ode, [0.0] * ode.dim, events, (0.0, 20.0))
        trajectories.append(traj)
    a, b = trajectories
    # compare the matched quantities on a common grid
    grid = np.linspace(1.5, 19.5, 50)
    for extract in (lambda t: t.omega(0), lambda t: t.omega(1), lambda t: t.vdc(0)):
        ya = np.interp(grid, a.t, extract(a))
        yb = np.interp(grid, b.t, extract(b))
        scale = np.max(np.abs(yb)) or 1.0
        assert np.max(np.abs(ya - yb)) / scale < 1e-5


def test_state_name_tables_cover_all_schemes():
    gain_fields = {f.name for f in fields(Gains)}
    for scheme in SCHEMES:
        u = unit_for(scheme)
        assert len(unit_state_names(u)) >= 1
        sim = sim_state_names(u)
        if u.port_kind == "gfm":
            assert sim[:2] == ("eta1", "eta2")
        assert "vdc" in sim
        rates, _, _ = make_sim_derivative(u)((0.0,) * len(sim), 0.0, 0.0)
        assert len(rates) == len(sim)
        assert len(ilc_equilibrium(u, EquilibriumBoundary())) == len(sim)
        assert set(SCHEME[scheme].gains) <= gain_fields


class TestMoreControllerLaws:
    def test_dual_acdc_rates_and_refs(self):
        u = unit_for("dual-acdc-droop")
        rates = ilc_derivative(u, (0.0, 0.0, -2.0, 100.0, -50.0), (-0.01, 0.0))
        d1 = 2.5e4 * -2.0 - 2.5e7 * -0.01   # K_v1*vdc - K_omega1*omega1
        d2 = 2.5e4 * -2.0
        assert rates[3] == pytest.approx(d1)
        assert rates[4] == pytest.approx(d2)
        assert rates[0] * u.physical.tau1 == pytest.approx(d1 + 10.0 * 100.0)
        assert rates[1] * u.physical.tau2 == pytest.approx(d2 + 10.0 * -50.0)

    def test_shared_dc_regulation_splits_evenly(self):
        # the shared integral term appears identically in both references
        u = unit_for("dual-freq-droop-2")
        rates = ilc_derivative(u, (0.0, 0.0, 3.0, 5.0, 7.0), (-0.01, -0.02))
        p1 = rates[0] * u.physical.tau1
        p2 = rates[1] * u.physical.tau2
        p_dc = u.gains.k_pdc * 3.0 + u.gains.k_idc * 7.0
        assert p1 + p2 == pytest.approx(2.0 * p_dc)
        assert rates[3] == pytest.approx(0.01 - 0.02)  # -w1 + w2

    def test_gfm_dual_droop_refs(self):
        u = unit_for("gfm-dual-droop")
        # states vdc, xi1, xi2, pf1, pf2; inputs p1 = p2 = 0
        state = (4.0, 2.0e5, 0.0, 1.0e5, 0.0)
        rates = ilc_derivative(u, state, (0.0, 0.0))
        w1, _ = ilc_output(u, state, (0.0, 0.0))
        expect_w1 = 5e-8 * (-1.0e5 + 2.5e4 * 4.0 + 10.0 * 2.0e5)
        assert w1 == pytest.approx(expect_w1)
        assert rates[1] == pytest.approx(2.5e4 * 4.0 - 2.5e7 * expect_w1)
        assert rates[3] == pytest.approx((0.0 - 1.0e5) / 0.05)

    def test_gfm_freq_droop_dc_term_raises_reference(self):
        # excess DC energy must raise the frequency references so the bus
        # discharges through both sides
        u = unit_for("gfm-freq-droop")
        w1, w2 = ilc_output(u, (10.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0))
        assert w1 > 0 and w2 > 0

    def test_gfl_gfm_refs(self):
        u = unit_for("gfl-gfm-dual-droop")
        # states eta, xi1, pf1, xi2, p2, vdc; the filter angle carries p1
        eta = math.asin(5.0e4 / PHYS.b)
        rates = ilc_derivative(u, (eta, 0.0, 0.0, 1.0e4, 0.0, -2.0), (0.0, -0.01))
        w1 = rates[0]  # omega_ref1 - omega1 with omega1 = 0
        p2 = rates[4] * u.physical.tau2
        assert w1 == pytest.approx(5e-8 * (2.5e4 * -2.0))
        assert p2 == pytest.approx(2.5e4 * -2.0 - 2.5e7 * -0.01 + 10.0 * 1.0e4)
        assert rates[2] == pytest.approx(5.0e4 / 0.05)
