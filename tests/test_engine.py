import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigrid_ilc import engine
from multigrid_ilc.analysis import linearize_closed_loop, spectral_abscissa
from multigrid_ilc.engine import (
    IntegrateOptions,
    IntegrationStats,
    LoadEvent,
    OdeSystem,
    _hermite_extrema,
    _rodas4_step,
    find_equilibrium,
    integrate,
    write_csv,
)
from multigrid_ilc.errors import DcVoltageCollapse, NewtonDivergence, ValidationError
from multigrid_ilc.ilc import SCHEMES, Gains, IlcPhysical, IlcUnit, injected_powers
from multigrid_ilc.mg import SwingGovernor
from multigrid_ilc.network import ValidatedNetwork
from multigrid_ilc.scenario import build_system, resolve, set_parameter, shipped_scenario

from jacobian_reference import system_jacobian
from model_reference import connection_powers, dense_output


def two_mg_net():
    return ValidatedNetwork(2, ((0, 1),))


def dacd_unit(K_dc=0.0):
    return IlcUnit(
        "dual-acdc-droop",
        IlcPhysical(K_dc=K_dc),
        Gains(K_omega1=2.5e7, K_omega2=2.5e7, K_v1=2.5e4, K_v2=2.5e4,
              K_i1=10.0, K_i2=10.0),
    )


def droop_models():
    # near-zero damping keeps the droop-sharing algebra exact
    return [
        SwingGovernor(M=1e7, D=1e3, T_g=0.3, inv_R=2e7, rating=4e8),
        SwingGovernor(M=5e6, D=1e3, T_g=0.3, inv_R=1e7, rating=2e8),
    ]


def test_assemble_dimension_and_origin():
    ode = OdeSystem(two_mg_net(), droop_models(), [dacd_unit()])
    assert ode.dim == 2 + 2 + 5
    assert ode.derivative(0.0, [0.0] * ode.dim, [0.0, 0.0]) == [0.0] * ode.dim


def test_assemble_port_mismatch():
    with pytest.raises(ValidationError, match="2 MGs in the network but 1 MG models"):
        OdeSystem(two_mg_net(), droop_models()[:1], [dacd_unit()])
    with pytest.raises(ValidationError, match="1 ILCs in the network but 0 ILC units"):
        OdeSystem(two_mg_net(), droop_models(), [])


def test_droop_sharing_equilibrium():
    """Load step shared in proportion to the total droop coefficients; with a
    lossless DC bus the ILC carries exactly the second MG's contribution."""
    models = droop_models()
    ode = OdeSystem(two_mg_net(), models, [dacd_unit(K_dc=0.0)])
    eq = find_equilibrium(ode, loads=[-1e6, 0.0])
    droop_total = sum(m.D + m.inv_R for m in models)
    w_star = -1e6 / droop_total
    assert abs(w_star - (-1e6 / 3e7)) / abs(w_star) < 1e-3  # near the ideal split
    assert eq.x[ode.column("mg", 0, "omega")] == pytest.approx(w_star, rel=1e-6)
    assert eq.x[ode.column("mg", 1, "omega")] == pytest.approx(w_star, rel=1e-6)
    # power the ILC injects into MG2 equals minus MG2's droop response
    p2 = eq.x[ode.column("ilc", 0, "p2")]
    expected = (models[1].D + models[1].inv_R) * w_star
    assert p2 == pytest.approx(expected, rel=1e-6)
    assert expected == pytest.approx(-3.333e5, rel=1e-3)


def test_find_equilibrium_zero_loads_is_origin():
    ode = OdeSystem(two_mg_net(), droop_models(), [dacd_unit()])
    eq = find_equilibrium(ode)
    assert np.max(np.abs(eq.x)) == 0.0
    assert eq.residual == 0.0


def test_find_equilibrium_counts_its_newton_iterations():
    doc = shipped_scenario("two-mg")
    doc["mgs"][0]["p_load"] = -1e6
    ode = build_system(resolve(doc)).ode
    eq = find_equilibrium(ode)
    assert eq.iterations >= 1
    assert find_equilibrium(ode, guess=eq.x).iterations == 0


def loaded_two_mg_ode():
    doc = shipped_scenario("two-mg")
    doc["mgs"][0]["p_load"] = -1e6
    return build_system(resolve(doc)).ode


def failing_trials(monkeypatch, ode, failure, trials):
    """Make the residual at the Newton trials numbered ``trials`` (1: the
    first trial of the first iteration) fail with ``failure``: an exception
    to raise, or a value to return in every entry.  Returns the list of
    states the residual is evaluated at."""
    derivative, points = ode.derivative, []

    def patched(t, y, loads=None):
        points.append(np.array(y))
        if len(points) - 1 in trials:
            if isinstance(failure, float):
                return [failure] * ode.dim
            raise failure
        return derivative(t, y, loads)

    monkeypatch.setattr(ode, "derivative", patched)
    return points


TRIAL_FAILURES = [DcVoltageCollapse("DC bus collapsed"), ValueError("math domain error"),
                         OverflowError("math range error"), math.nan, math.inf]
TRIAL_IDS = ["collapse", "value-error", "overflow", "nan", "inf"]


def test_newton_singular_jacobian_raises(monkeypatch):
    ode = loaded_two_mg_ode()
    monkeypatch.setattr(ode, "jacobian", lambda y: np.zeros((ode.dim, ode.dim)))
    with pytest.raises(NewtonDivergence, match="^singular Jacobian in Newton iteration$") as info:
        find_equilibrium(ode)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("failure", TRIAL_FAILURES, ids=TRIAL_IDS)
def test_newton_trial_that_fails_halves_the_step(monkeypatch, failure):
    """A trial residual that raises or is not finite halves the step, and
    Newton goes on to the equilibrium."""
    ode = loaded_two_mg_ode()
    expected = find_equilibrium(ode)
    points = failing_trials(monkeypatch, ode, failure, {1})
    eq = find_equilibrium(ode)
    start, full, half = points[:3]
    assert not start.any()
    assert np.array_equal(half, 0.5 * full) and full.any()
    assert np.max(np.abs(eq.x - expected.x) / ode.state_scales) < 1e-6


@pytest.mark.parametrize("failure", TRIAL_FAILURES, ids=TRIAL_IDS)
def test_newton_line_search_fails_after_twelve_halvings(monkeypatch, failure):
    ode = loaded_two_mg_ode()
    points = failing_trials(monkeypatch, ode, failure, range(1, 13))
    with pytest.raises(NewtonDivergence, match="^line search failed$"):
        find_equilibrium(ode)
    assert len(points) == 13
    assert all(np.array_equal(p, 0.5 ** k * points[1]) for k, p in enumerate(points[1:]))


@pytest.mark.parametrize("max_step", [math.inf, 1e-7])
@pytest.mark.parametrize("failure", TRIAL_FAILURES, ids=TRIAL_IDS)
def test_initial_step_falls_back_when_its_trial_fails(failure, max_step):
    """A trial evaluation that raises, or whose difference quotient is not
    finite, gives the fallback step 1e-6 (capped by ``max_step``) and the
    start derivative."""
    f0 = [1.0, -2.0]

    def f(t, y):
        if t == 0.0:
            return f0
        if isinstance(failure, float):
            return [failure] * 2
        raise failure

    assert engine._initial_step(f, 0.0, [0.5, 0.5], [1.0, 1.0], max_step) == \
        (min(1e-6, max_step), f0)


@pytest.mark.parametrize("kind, index, name", [("mg", 2, "omega"), ("ilc", 0, "bogus"),
                                               ("mg", 0, "vdc")])
def test_column_of_a_missing_state_raises(kind, index, name):
    ode = OdeSystem(two_mg_net(), droop_models(), [dacd_unit()])
    with pytest.raises(KeyError, match=f"no state {kind}{index + 1}.{name}"):
        ode.column(kind, index, name)


def test_infeasible_transfer_raises():
    # filter limit far below the required transfer
    ode = OdeSystem(two_mg_net(), droop_models(),
                    [IlcUnit("dual-droop-matching", IlcPhysical(B=1e5),
                             Gains(m1=1e-3, K_v2=2.5e4, K_omega2=2.5e7, K_i2=10.0))])
    with pytest.raises(NewtonDivergence):
        find_equilibrium(ode, loads=[-1e6, 0.0])


def test_integrate_zero_stays_zero():
    ode = OdeSystem(two_mg_net(), droop_models(), [dacd_unit()])
    traj = integrate(ode, [0.0] * ode.dim, t_span=(0.0, 5.0))
    assert np.max(np.abs(traj.y)) == 0.0
    assert not traj.truncated


def test_tolerance_refinement():
    ode = OdeSystem(two_mg_net(), droop_models(), [dacd_unit(K_dc=1.0)])
    events = (LoadEvent(0.5, 0, -1e6),)
    rtol = 1e-6
    finals = []
    for factor in (1.0, 0.5):
        opts = IntegrateOptions(rtol=rtol * factor, atol_scale=factor)
        traj = integrate(ode, [0.0] * ode.dim, events, (0.0, 10.0), opts)
        finals.append(traj.final_state)
    scale = np.maximum(np.abs(finals[0]), np.abs(ode.state_scales))
    assert np.max(np.abs(finals[0] - finals[1]) / scale) < 10.0 * rtol


def test_event_restart_grid_contains_event_time():
    ode = OdeSystem(two_mg_net(), droop_models(), [dacd_unit()])
    events = (LoadEvent(1.25, 0, -1e5),)
    traj = integrate(ode, [0.0] * ode.dim, events, (0.0, 3.0))
    assert 1.25 in traj.t.tolist()


def test_events_apply_once_each_at_their_time(two_mg_resolved):
    """Events due by the start step the loads before the first step,
    coincident ones together at their time, and those at or past the end
    never; the loads are whole watts, so every sum is exact."""
    ode = build_system(two_mg_resolved).ode

    def run(events):
        return integrate(ode, [0.0] * ode.dim, events, (0.0, 3.0))

    due = (LoadEvent(0.0, 1, 2e5), LoadEvent(1.0, 0, -3e5), LoadEvent(1.0, 1, 1e5))
    edges = run((LoadEvent(-0.5, 0, -4e5), *due, LoadEvent(3.0, 0, 5e5),
                 LoadEvent(4.0, 0, -6e5)))
    plain = run((LoadEvent(0.0, 0, -4e5), *due))
    assert 1.0 in edges.t.tolist()
    assert edges.t.tobytes() == plain.t.tobytes()
    assert edges.y.tobytes() == plain.y.tobytes()
    assert edges.stats == plain.stats


def test_events_must_be_sorted():
    ode = OdeSystem(two_mg_net(), droop_models(), [dacd_unit()])
    events = (LoadEvent(2.0, 0, -1e5), LoadEvent(1.0, 1, -1e5))
    with pytest.raises(ValidationError):
        integrate(ode, [0.0] * ode.dim, events, (0.0, 3.0))


def zeros(dim):
    return [0.0] * dim


@pytest.mark.parametrize("x0, t_span, options, message", [
    (lambda dim: zeros(dim - 1), (0.0, 61.0), {}, "x0 must hold"),
    (lambda dim: zeros(dim + 1), (0.0, 61.0), {}, "x0 must hold"),
    (lambda dim: [math.nan] + zeros(dim - 1), (0.0, 61.0), {}, "x0 must hold"),
    (zeros, (0.0, math.nan), {}, "t_span"),
    (zeros, (0.0, math.inf), {}, "t_span"),
    (zeros, (0.0, 0.0), {}, "t_span"),
    (zeros, (0.0, 61.0), {"rtol": -1.0}, "rtol"),
    (zeros, (0.0, 61.0), {"atol_scale": 0.0}, "atol_scale"),
    (zeros, (0.0, 61.0), {"max_step": 0.0}, "max_step"),
], ids=["x0-short", "x0-long", "x0-nan", "t_end-nan", "t_end-inf", "t_end-t0",
        "rtol-negative", "atol_scale-zero", "max_step-zero"])
def test_integrate_rejects_bad_input(two_mg_resolved, x0, t_span, options, message):
    """A start state of the wrong length or with a NaN, a horizon that is not
    finite and increasing, or an option out of range raises ValidationError
    before any step."""
    bundle = build_system(two_mg_resolved)
    with pytest.raises(ValidationError, match=message):
        integrate(bundle.ode, x0(bundle.ode.dim), bundle.events, t_span,
                  dataclasses.replace(bundle.options, **options))


@pytest.mark.parametrize("event", [
    LoadEvent(math.nan, 0, -1e6),
    LoadEvent(2.0, 0, math.nan),
    LoadEvent(2.0, 0, math.inf),
], ids=["time-nan", "delta-nan", "delta-inf"])
def test_integrate_rejects_non_finite_events(two_mg_resolved, monkeypatch, event):
    """An event time or load step that is not finite raises ValidationError
    before the first derivative call."""
    ode = build_system(two_mg_resolved).ode
    monkeypatch.setattr(ode, "derivative", None)
    with pytest.raises(ValidationError, match="must be finite"):
        integrate(ode, [0.0] * ode.dim, (event,), (0.0, 5.0))


@pytest.mark.parametrize("mg", [2, -1])
def test_integrate_rejects_an_event_on_a_missing_mg(mg):
    """An event on an MG the system does not have raises ValidationError
    (``resolve`` catches it first for a scenario file)."""
    ode = OdeSystem(two_mg_net(), droop_models(), [dacd_unit()])
    with pytest.raises(ValidationError, match=f"event references MG {mg + 1}$"):
        integrate(ode, [0.0] * ode.dim, (LoadEvent(1.0, mg, -1e5),), (0.0, 3.0))


def test_switch_on_a_segment_end_is_dropped(monkeypatch):
    """When the stiffness test fires on the step that ends at an event time,
    the next segment starts on DP45 again and the trial never runs."""
    dp45_step, fired, ends = engine._dp45_step, [], []

    def recording_dp45_step(f, t, y, k1, h, *args):
        ends.append(t + h)
        return dp45_step(f, t, y, k1, h, *args)

    def stiff_at_the_event(*args):
        # the last DP45 step taken is the accepted one being tested
        if ends[-1] == 1.0:
            fired.append(ends[-1])
            return True
        return False

    monkeypatch.setattr(engine, "_STIFF_EVERY", 1)
    monkeypatch.setattr(engine, "_STIFF_STREAK", 1)
    monkeypatch.setattr(engine, "_dp45_step", recording_dp45_step)
    monkeypatch.setattr(engine, "_looks_stiff", stiff_at_the_event)
    ode = OdeSystem(two_mg_net(), droop_models(), [dacd_unit()])
    traj = integrate(ode, [0.0] * ode.dim, (LoadEvent(1.0, 0, -1e6),), (0.0, 3.0))
    assert fired == [1.0]
    assert traj.stats.stiff_from is None
    assert traj.stats.jacobian_calls == 0
    assert traj.t[-1] == 3.0 and not traj.truncated


@pytest.mark.parametrize("loads, guess, message", [
    (None, lambda dim: zeros(dim + 1), "guess must hold"),
    (None, lambda dim: zeros(dim - 1), "guess must hold"),
    ([0.0, 0.0, 0.0], None, "loads must hold"),
    ([0.0], None, "loads must hold"),
    ([math.nan, 0.0], None, "loads must hold"),
], ids=["guess-long", "guess-short", "loads-long", "loads-short", "loads-nan"])
def test_find_equilibrium_rejects_bad_input(two_mg_resolved, loads, guess, message):
    """A guess of the wrong length, or loads that are not one finite value
    per MG, raise ValidationError."""
    ode = build_system(two_mg_resolved).ode
    with pytest.raises(ValidationError, match=message):
        find_equilibrium(ode, loads, None if guess is None else guess(ode.dim))


def test_finiteness_screen_is_exact():
    """The endpoint screen proves finiteness from the sum and scans only when
    the sum is not finite: an overflowing sum of finite entries passes, and
    any NaN or infinite entry fails."""
    assert engine._all_finite([1e308, 1e308, 0.0])
    assert not engine._all_finite([1e308, math.nan, 1e308])
    assert not engine._all_finite([0.0, math.nan])
    assert not engine._all_finite([math.inf, -math.inf])


def test_overflowing_state_sum_is_not_a_non_finite_state():
    """Two power states at 1e308 (finite, with an infinite sum) do not
    truncate a run."""

    class Still:
        dim = 2
        state_names = ("ilc1.p1", "ilc1.p2")
        state_kinds = ("power", "power")
        state_scales = np.array([1e5, 1e5])
        state_atols = np.array([1e-3, 1e-3])
        models = ()

        @staticmethod
        def derivative(t, y, loads=None):
            return [0.0, 0.0]

    traj = integrate(Still, [1e308, 1e308], (), (0.0, 1.0))
    assert not traj.truncated
    assert traj.t[-1] == 1.0 and traj.y[-1].tolist() == [1e308, 1e308]


def test_determinism_bit_identical():
    ode = OdeSystem(two_mg_net(), droop_models(), [dacd_unit(K_dc=1.0)])
    events = (LoadEvent(0.5, 0, -1e6),)
    a = integrate(ode, [0.0] * ode.dim, events, (0.0, 5.0))
    b = integrate(ode, [0.0] * ode.dim, events, (0.0, 5.0))
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.y, b.y)


def test_divergence_truncates_with_flag():
    # far past the converter-lag stability boundary
    unit = IlcUnit(
        "dual-freq-droop-1",
        IlcPhysical(tau1=1.0, tau2=1.0),
        Gains(K_omega1=2.5e7, K_omega2=2.5e7, K_i=10.0, K_pdc=2.5e4, K_idc=2.5e5),
    )
    models = [
        SwingGovernor(M=3e7, D=1e4, T_g=0.3, inv_R=4e7, rating=4e8),
        SwingGovernor(M=1.5e7, D=5e3, T_g=0.3, inv_R=2e7, rating=2e8),
    ]
    ode = OdeSystem(two_mg_net(), models, [unit])
    events = (LoadEvent(0.5, 0, -4e6),)
    traj = integrate(ode, [0.0] * ode.dim, events, (0.0, 120.0))
    assert traj.truncated
    assert traj.truncation_reason


def test_a_step_size_underflow_truncates_the_run(two_mg_resolved, monkeypatch):
    """A derivative that is NaN past t = 0.5 s rejects every step that
    reaches beyond it, until the step size drops below 1e-14 * max(1, |t|):
    the run ends there, truncated, with its stats."""
    ode = build_system(two_mg_resolved).ode
    derivative = ode.derivative

    def nan_past_half(t, y, loads=None):
        rates = derivative(t, y, loads)
        return [math.nan] * len(rates) if t > 0.5 else rates

    monkeypatch.setattr(ode, "derivative", nan_past_half)
    traj = integrate(ode, [0.0] * ode.dim, (), (0.0, 1.0))
    assert traj.truncated
    assert traj.truncation_reason == "step size 5.36576e-15 at t = 0.5 s"
    assert 0.5 - 1e-14 < traj.t[-1] <= 0.5
    assert np.all(np.isfinite(traj.y))
    assert (traj.stats.accepted, traj.stats.rejected) == (47, 58)


def test_an_out_of_bounds_start_state_truncates_at_once(two_mg_resolved):
    """The start state is screened like every step endpoint: a DC bus
    2 V_dc_ref below nominal, where the bus has collapsed, ends the run at
    t = 0 with one sample and no step."""
    ode = build_system(two_mg_resolved).ode
    x0 = [0.0] * ode.dim
    x0[ode.column("ilc", 0, "vdc")] = -2e4
    traj = integrate(ode, x0, (), (0.0, 1.0))
    assert traj.truncation_reason == "ilc1.vdc exceeded 2000 at t = 0.0000 s"
    assert traj.t.tolist() == [0.0] and traj.y.tolist() == [x0]
    assert traj.stats == IntegrationStats(0, 0, 0, 0, None, 0)


def test_post_event_convergence_window(two_mg_resolved):
    """Post-event deviation decays below 1e-4 of its peak within three times
    the window predicted by the slowest closed-loop eigenvalue."""
    bundle = build_system(two_mg_resolved)
    absc = spectral_abscissa(linearize_closed_loop(bundle.ode))
    assert absc < 0
    window = 3.0 * math.log(1e4) / abs(absc)
    t_event = 1.0
    events = (LoadEvent(t_event, 0, -1e6),)
    traj = integrate(bundle.ode, [0.0] * bundle.ode.dim, events,
                     (0.0, t_event + 1.05 * window), bundle.options)
    eq = find_equilibrium(bundle.ode, loads=[-1e6, 0.0], guess=traj.final_state)
    dev = np.max(np.abs(traj.y - eq.x[None, :]) / bundle.ode.state_scales[None, :],
                 axis=1)
    post = traj.t >= t_event
    peak = float(np.max(dev[post]))
    tail = float(dev[-1])
    assert tail < 1e-4 * peak


def test_event_superposition_linearity(two_mg_resolved):
    bundle = build_system(two_mg_resolved)
    ode = bundle.ode

    def response(events):
        traj = integrate(ode, [0.0] * ode.dim, events, (0.0, 8.0), bundle.options)
        return traj

    step = 2e4  # small against the 4e8 rating
    a = response((LoadEvent(1.0, 0, -step),))
    b = response((LoadEvent(1.0, 1, -step),))
    both = response((LoadEvent(1.0, 0, -step), LoadEvent(1.0, 1, -step)))
    grid = np.linspace(1.5, 7.5, 40)
    for j in range(2):
        ya = np.interp(grid, a.t, a.omega(j))
        yb = np.interp(grid, b.t, b.omega(j))
        yc = np.interp(grid, both.t, both.omega(j))
        scale = np.max(np.abs(yc))
        assert np.max(np.abs(yc - (ya + yb))) / scale < 0.01


def test_trajectory_csv_round_trip(tmp_path, two_mg_resolved):
    bundle = build_system(two_mg_resolved)
    traj = integrate(bundle.ode, [0.0] * bundle.ode.dim, bundle.events,
                     (0.0, 2.0), bundle.options)
    path = tmp_path / "traj.csv"
    traj.to_csv(path, pu_base=bundle.omega_nominal)
    rows = path.read_text().strip().split("\n")
    header = rows[0].split(",")
    assert header[:6] == ["t", "mg1.omega", "mg2.omega", "ilc1.p1", "ilc1.p2",
                          "ilc1.vdc"]
    assert "mg1.omega_pu" in header
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert np.array_equal(data[:, 0], traj.t)
    assert np.array_equal(data[:, 1], traj.omega(0))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_connection_power_follows_the_scalar_law(scheme, scheme_scenario):
    """injected_powers, the law evaluated on whole columns, against the
    scalar simulated law at every sample of a load-step run."""
    bundle = build_system(scheme_scenario(scheme))
    traj = integrate(bundle.ode, [0.0] * bundle.ode.dim, bundle.events, (0.0, 10.0),
                     bundle.options)
    reference = np.array([connection_powers(bundle.ode, y)[0] for y in traj.y.tolist()])
    assert np.max(np.abs(reference)) > 0.0
    lo, hi = bundle.ode._ilc_spans[0]
    for side in (0, 1):
        np.testing.assert_allclose(injected_powers(bundle.units[0], traj.y[:, lo:hi])[side],
                                   reference[:, side], rtol=1e-14, atol=0.0)


def test_dc_energy_bookkeeping(two_mg_resolved):
    """d/dt(C V^2 / 2) must equal the bus power balance along trajectories."""
    bundle = build_system(two_mg_resolved)
    ode = bundle.ode
    unit = bundle.units[0]
    vdc_idx = ode.column("ilc", 0, "vdc")
    phys = unit.physical

    class Augmented:
        dim = ode.dim + 1
        state_scales = np.append(ode.state_scales, 1e3)
        state_atols = np.append(ode.state_atols, 1e-3)
        state_names = ode.state_names + ("aux.energy",)
        state_kinds = ode.state_kinds + ("power",)
        units = ode.units
        net = ode.net
        models = ode.models

        @staticmethod
        def derivative(t, y, loads=None):
            rates = ode.derivative(t, y[:-1], loads)
            (p1, p2) = connection_powers(ode, y[:-1])[0]
            v = y[vdc_idx]
            flow = -(p1 + p2) * v / (v + phys.V_dc_ref) - phys.K_dc * v * v
            return rates + [flow]

    Augmented.jacobian = staticmethod(system_jacobian(Augmented))

    events = (LoadEvent(1.0, 0, -1e6),)
    traj = integrate(Augmented, [0.0] * Augmented.dim, events, (0.0, 20.0),
                     IntegrateOptions(rtol=1e-8))
    v = traj.y[:, vdc_idx]
    stored = 0.5 * phys.C * v**2
    integrated = traj.y[:, -1]
    scale = np.max(np.abs(stored))
    assert scale > 0
    assert np.max(np.abs(stored - integrated)) / scale < 1e-6


def test_first_order_droop_mg_in_system():
    """A droop-lag MG shares per its droop D like the governor models do."""
    from multigrid_ilc.mg import FirstOrderDroop

    # T/D sets the lag pole: one-second and half-second droop responses
    models = [
        FirstOrderDroop(T=2e7, D=2e7, rating=4e8),
        FirstOrderDroop(T=5e6, D=1e7, rating=2e8),
    ]
    ode = OdeSystem(two_mg_net(), models, [dacd_unit(K_dc=0.0)])
    eq = find_equilibrium(ode, loads=[-1e6, 0.0])
    w_star = -1e6 / 3e7
    assert eq.x[ode.column("mg", 0, "omega")] == pytest.approx(w_star, rel=1e-8)
    traj = integrate(ode, eq.x, (LoadEvent(0.0, 0, -1e6),), t_span=(0.0, 1.0))
    scaled = np.abs(traj.y - eq.x[None, :]) / ode.state_scales[None, :]
    assert np.max(scaled) < 1e-4


def test_ieee39_stays_on_dp45():
    """With its shipped load steps the accuracy-limited ieee39 case never
    trips the stiffness test, so its DP45 step sequence is untouched."""
    bundle = build_system(resolve(shipped_scenario("ieee39-reduced")))
    traj = integrate(bundle.ode, [0.0] * bundle.ode.dim, bundle.events,
                     (0.0, bundle.t_end), bundle.options)
    stats = traj.stats
    assert stats.stiff_from is None
    assert stats.jacobian_calls == 0
    assert stats.accepted == 12289
    assert stats.rhs_calls == 80820
    assert len(traj.t) == stats.accepted + 1


def test_failed_rodas4_trial_rolls_back_to_dp45():
    """Late load steps leave ieee39 ringing with DP45 at its stability limit,
    so the stiffness test fires, but Rodas4 at rtol 1e-7 needs more RHS
    calls than DP45: every trial is rolled back and the returned samples are
    exactly those of DP45 alone (11235 steps)."""
    doc = shipped_scenario("ieee39-reduced")
    doc["events"] = [{"time": 155.91, "mg": 1, "delta_p_load": -54951242.0},
                     {"time": 174.138, "mg": 3, "delta_p_load": 36920033.0}]
    bundle = build_system(resolve(doc))
    traj = integrate(bundle.ode, [0.0] * bundle.ode.dim, bundle.events,
                     (0.0, bundle.t_end), bundle.options)
    stats = traj.stats
    assert stats.stiff_from is None
    assert stats.jacobian_calls > 0  # the trials ran
    assert stats.accepted == 11235
    assert len(traj.t) == stats.accepted + 1


def test_failed_trial_pauses_the_stiffness_test():
    """The late-event ieee39 case fires the stiffness test once: its one
    Rodas4 trial is rolled back, and the pause that follows (ten times the
    trial's overspend) outlasts the ringing, so DP45's 11235 steps stand."""
    doc = shipped_scenario("ieee39-reduced")
    doc["events"] = [{"time": 155.91, "mg": 1, "delta_p_load": -54951242.0},
                     {"time": 174.138, "mg": 3, "delta_p_load": 36920033.0}]
    bundle = build_system(resolve(doc))
    traj = integrate(bundle.ode, [0.0] * bundle.ode.dim, bundle.events,
                     (0.0, bundle.t_end), bundle.options)
    stats = traj.stats
    assert stats.rollbacks == 1
    assert stats.stiff_from is None
    assert stats.accepted == 11235


def test_rolled_back_trial_leaves_no_envelope(dense_calls):
    """Without dense output, the late-event ieee39 run drops its rolled-back
    Rodas4 steps with their end rates: it keeps the dense run's DP45 samples,
    and every step's envelope is the span of its endpoints.  The dense run's
    output is the per-step reference's."""
    doc = shipped_scenario("ieee39-reduced")
    doc["events"] = [{"time": 155.91, "mg": 1, "delta_p_load": -54951242.0},
                     {"time": 174.138, "mg": 3, "delta_p_load": 36920033.0}]
    bundle = build_system(resolve(doc))
    run = (bundle.ode, [0.0] * bundle.ode.dim, bundle.events, (0.0, bundle.t_end))
    dense = integrate(*run, bundle.options)
    sparse = integrate(*run, dataclasses.replace(bundle.options, dense=False))
    assert sparse.stats == dense.stats and sparse.stats.rollbacks == 1
    assert np.array_equal(sparse.t, dense.t) and np.array_equal(sparse.y, dense.y)
    assert_bitwise_equal(dense_calls)
    lo, hi = sparse.envelope
    assert np.array_equal(lo, np.minimum(sparse.y[:-1], sparse.y[1:]))
    assert np.array_equal(hi, np.maximum(sparse.y[:-1], sparse.y[1:]))


def test_trial_cut_short_by_segment_end_is_judged_on_cost(scheme_scenario):
    """A Rodas4 trial that reaches the end of its segment before its
    _TRIAL_STEPS steps is kept when it already spent fewer RHS calls than
    DP45 at its stability limit would have."""
    resolved = set_parameter(scheme_scenario("dual-acdc-droop"), "ilc.K_dc", 0.0)
    bundle = build_system(resolved)
    ode = bundle.ode
    eq = find_equilibrium(ode)
    events = (LoadEvent(1.0, 0, -0.01 * bundle.rating(0)),)
    opts = IntegrateOptions(rtol=1e-6, atol_scale=10.0)
    switch = integrate(ode, eq.x, events, (0.0, 61.0), opts).stats.stiff_from
    assert switch is not None
    # the trial takes about 90 Rodas4 steps to reach the end
    stats = integrate(ode, eq.x, events, (0.0, switch + 2.6), opts).stats
    assert stats.jacobian_calls < engine._TRIAL_STEPS
    assert stats.rollbacks == 0
    assert stats.stiff_from == switch


def test_two_mg_disturbance_switches_to_rodas4(two_mg_resolved):
    """The DC-bus pole makes the standardized disturbance check stiff: the
    call switches after the load step and finishes in far fewer steps than
    stability-limited DP45 would need (about 17k)."""
    bundle = build_system(two_mg_resolved)
    ode = bundle.ode
    eq = find_equilibrium(ode)
    step = -0.01 * bundle.rating(0)
    traj = integrate(ode, eq.x, (LoadEvent(1.0, 0, step),), (0.0, 61.0),
                     IntegrateOptions(rtol=1e-6, atol_scale=10.0))
    stats = traj.stats
    assert stats.stiff_from is not None and 1.0 < stats.stiff_from < 61.0
    assert stats.jacobian_calls > 0
    assert stats.accepted < 5000
    assert traj.t[-1] == 61.0 and not traj.truncated
    assert np.all(np.diff(traj.t) > 0)
    # the trajectory settles on the post-step equilibrium
    eq1 = find_equilibrium(ode, loads=[m.p_load + (step if j == 0 else 0.0)
                                       for j, m in enumerate(bundle.models)])
    assert np.max(np.abs(traj.final_state - eq1.x) / ode.state_scales) < 1e-4


def test_rodas4_step_orders():
    """One Rodas4 step on y' = -y^2 (exact Jacobian): the local error falls
    as h^5 (order 4), the embedded estimate as h^4 (order 3)."""
    def f(t, y):
        return [-y[0] * y[0]]

    errors, estimates = [], []
    for h in (0.05, 0.025):
        y_new, _, estimate = _rodas4_step(f, 0.0, [1.0], [-1.0], np.array([[-2.0]]),
                                          h, np.array([1.0]), 0.0)
        errors.append(abs(y_new[0] - 1.0 / (1.0 + h)))
        estimates.append(estimate)
    assert math.log2(errors[0] / errors[1]) > 4.5
    assert 3.5 < math.log2(estimates[0] / estimates[1]) < 4.5


def classification_run(resolved, **options):
    """The system, start state, event and options of the disturbance run
    that ``classify_stability`` integrates on ``resolved``."""
    bundle = build_system(resolved)
    ode = bundle.ode
    events = (LoadEvent(1.0, 0, -0.01 * bundle.rating(0)),)
    opts = IntegrateOptions(rtol=1e-6, atol_scale=10.0, max_step=2.0, **options)
    return ode, find_equilibrium(ode).x, events, (0.0, 61.0), opts


def test_sparse_run_takes_the_dense_run_steps(scheme_scenario):
    """Without dense output, the pinned 536-step classification run takes the
    same steps, keeps exactly their endpoints, and its envelope holds every
    Hermite sample the dense run emits inside each step."""
    resolved = set_parameter(scheme_scenario("dual-acdc-droop"), "ilc.K_dc", 0.0)
    ode, x0, events, t_span, opts = classification_run(resolved)
    dense = integrate(ode, x0, events, t_span, opts)
    opts.dense = False
    sparse = integrate(ode, x0, events, t_span, opts)
    assert dense.envelope is None
    assert sparse.stats == dense.stats
    assert sparse.stats.accepted == 536 and sparse.stats.stiff_from is not None
    assert len(sparse.t) == sparse.stats.accepted + 1
    assert len(dense.t) > 4 * len(sparse.t)  # the samples the sweep never read
    ends = np.searchsorted(dense.t, sparse.t)
    assert np.array_equal(dense.t[ends], sparse.t)
    assert np.array_equal(dense.y[ends], sparse.y)
    lo, hi = sparse.envelope
    assert lo.shape == hi.shape == (sparse.stats.accepted, ode.dim)
    step = np.minimum(np.searchsorted(sparse.t, dense.t, side="right") - 1, len(lo) - 1)
    assert np.all(lo[step] <= dense.y) and np.all(dense.y <= hi[step])


def test_classification_run_is_pinned_bitwise(scheme_scenario):
    """The classifier's own integration path (no dense output, rtol 1e-6,
    atol_scale 10, max_step 2, step envelopes) on the pinned 536-step run
    reproduces the sha256 of its t, y, both envelope arrays and its stats."""
    resolved = set_parameter(scheme_scenario("dual-acdc-droop"), "ilc.K_dc", 0.0)
    traj = integrate(*classification_run(resolved, dense=False))
    digest = hashlib.sha256()
    for values in (traj.t, traj.y, *traj.envelope):
        digest.update(np.ascontiguousarray(values).tobytes())
    digest.update(repr(traj.stats).encode())
    assert traj.stats.accepted == 536
    assert digest.hexdigest() == (
        "64df5911b7532c606231f4391addc788f3ee0c920284dc9e805d96c803a7a485")


def cubic(y0, f0, y1, f1, h, s):
    """The cubic Hermite interpolant at step fractions ``s`` (a column)."""
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * y0 + s * (1.0 - s) ** 2 * (h * f0)
            + s * s * (3.0 - 2.0 * s) * y1 + s * s * (s - 1.0) * (h * f1))


finite = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite, min_size=4, max_size=4), st.floats(1e-3, 10.0))
def test_hermite_extrema_bound_the_cubic(values, h):
    """The closed-form extrema hold the cubic at 20001 points of the step and
    come within the grid's resolution of its extremes there."""
    y0, f0, y1, f1 = (np.array([[v]]) for v in values)
    lo, hi = _hermite_extrema(y0, f0, y1, f1, np.array([[h]]))
    fine = cubic(*values, h, np.linspace(0.0, 1.0, 20001))
    size = 1.0 + abs(values[0]) + abs(values[2]) + h * (abs(values[1]) + abs(values[3]))
    assert lo[0, 0] <= fine.min() + 1e-12 * size and fine.max() - 1e-12 * size <= hi[0, 0]
    assert fine.min() - lo[0, 0] <= 1e-7 * size and hi[0, 0] - fine.max() <= 1e-7 * size


@pytest.mark.parametrize("y0, f0, y1, f1, lo, hi", [
    # cubic coefficient exactly 0 (linear derivative): s - s^2 peaks at s = 1/2
    (0.0, 1.0, 0.0, -1.0, 0.0, 0.25),
    # ... and nearly 0
    (0.0, 1.0, 0.0, -1.0 + 1e-15, 0.0, 0.25),
    # f0 = f1 = 0: monotone between the ends
    (2.0, 0.0, -1.0, 0.0, -1.0, 2.0),
    (3.0, 0.0, 3.0, 0.0, 3.0, 3.0),
    # two interior extrema: 3s(1 - s)(1 - 2s), checked against the fine grid
    (0.0, 3.0, 0.0, 3.0, None, None),
])
def test_hermite_extrema_special_steps(y0, f0, y1, f1, lo, hi):
    got_lo, got_hi = _hermite_extrema(*(np.array([[v]]) for v in (y0, f0, y1, f1)),
                                      np.array([[1.0]]))
    fine = cubic(y0, f0, y1, f1, 1.0, np.linspace(0.0, 1.0, 20001))
    if lo is None:
        lo, hi = fine.min(), fine.max()
        assert lo < min(y0, y1) and max(y0, y1) < hi
    assert got_lo[0, 0] == pytest.approx(lo, abs=1e-7)
    assert got_hi[0, 0] == pytest.approx(hi, abs=1e-7)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hermite_extrema_of_non_finite_input_are_nan(bad):
    for k in range(4):
        values = [0.5, 1.0, 0.25, -1.0]
        values[k] = bad
        lo, hi = _hermite_extrema(*(np.array([[v, 0.0]]) for v in values),
                                  np.array([[1.0]]))
        assert np.isnan(lo[0, 0]) and np.isnan(hi[0, 0])
        assert lo[0, 1] == hi[0, 1] == 0.0


def test_non_finite_end_rate_truncates_the_sparse_run(two_mg_resolved, monkeypatch):
    """A Rodas4 step whose end rate is not finite fails the envelope screen,
    even when it is the last step and every endpoint is finite."""
    rodas4_step = engine._rodas4_step

    def last_rate_nan(f, t, y, f0, jac, h, atol, rtol):
        y_new, f_new, err = rodas4_step(f, t, y, f0, jac, h, atol, rtol)
        if y_new is not None and t + h == 61.0:
            f_new = [math.nan] * len(f_new)
        return y_new, f_new, err

    monkeypatch.setattr(engine, "_rodas4_step", last_rate_nan)
    traj = integrate(*classification_run(two_mg_resolved, dense=False))
    assert traj.stats.stiff_from is not None
    assert np.all(np.isfinite(traj.y))
    assert traj.truncated
    assert traj.truncation_reason.startswith("non-finite state between t = ")
    assert traj.t[-1] == 61.0


def test_dense_truncation_is_a_sparse_truncation(two_mg_resolved, monkeypatch, dense_calls):
    """An MG frequency bound just above every step endpoint but below the
    Hermite samples of one Rodas4 step truncates the dense and the sparse
    run of one call at the same step end, with the same reason and stats.
    Both dense runs' output is the per-step reference's."""
    run = classification_run(two_mg_resolved)
    ode, opts = run[0], run[4]
    omegas = [ode.column("mg", j, "omega") for j in range(2)]
    dense = integrate(*run)
    opts.dense = False
    sparse = integrate(*run)
    at_ends = np.max(np.abs(sparse.y[:, omegas]))
    inside = np.max(np.abs(dense.y[:, omegas]))
    assert at_ends < inside
    monkeypatch.setitem(engine.KINDS, "frequency",
                        engine.KINDS["frequency"]._replace(bound=0.5 * (at_ends + inside)))
    cut = integrate(*run)
    opts.dense = True
    dense_cut = integrate(*run)
    assert cut.truncated and dense_cut.truncated
    assert cut.t[-1] in sparse.t[:-1] and dense_cut.t[-1] == cut.t[-1]
    assert np.array_equal(dense_cut.y[-1], cut.y[-1])
    assert dense_cut.truncation_reason == cut.truncation_reason
    assert cut.truncation_reason.startswith("mg1.omega exceeded 0.")
    assert f"and {cut.t[-1]:.4f} s" in cut.truncation_reason
    assert dense_cut.stats == cut.stats
    assert len(dense_calls) == 2
    assert_bitwise_equal(dense_calls)


@pytest.fixture
def dense_calls(monkeypatch):
    """Every dense pass of ``integrate``, run beside the per-step reference:
    a list of (vectorised, reference) pairs of (t, y)."""
    hermite, calls = engine._hermite_samples, []

    def both(*args):
        calls.append((hermite(*args), dense_output(*args)))
        return calls[-1][0]

    monkeypatch.setattr(engine, "_hermite_samples", both)
    return calls


def assert_bitwise_equal(calls):
    assert calls
    for (t, y), (t_ref, y_ref) in calls:
        assert t.shape == t_ref.shape and y.shape == y_ref.shape
        assert t.tobytes() == t_ref.tobytes() and y.tobytes() == y_ref.tobytes()


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("name", ["two-mg", "three-mg", "ieee39-reduced"])
def test_dense_output_matches_the_per_step_reference(name, block, dense_calls,
                                                      monkeypatch):
    """The vectorised dense output of each shipped scenario is the per-step
    one bit for bit, also with blocks of 7 samples that split steps."""
    if block is not None:
        monkeypatch.setattr(engine, "_BLOCK", block)
    bundle = build_system(resolve(shipped_scenario(name)))
    traj = integrate(bundle.ode, [0.0] * bundle.ode.dim, bundle.events,
                     (0.0, bundle.t_end), bundle.options)
    assert_bitwise_equal(dense_calls)
    assert traj.t is dense_calls[0][0][0]


def test_non_finite_end_rate_gives_no_samples(two_mg_resolved, dense_calls, monkeypatch):
    """The last Rodas4 step of the dense run gets NaN end rates: it ends the
    run and adds no sample, as in the per-step reference."""
    rodas4_step = engine._rodas4_step

    def last_rate_nan(f, t, y, f0, jac, h, atol, rtol):
        y_new, f_new, err = rodas4_step(f, t, y, f0, jac, h, atol, rtol)
        if y_new is not None and t + h == 61.0:
            f_new = [math.nan] * len(f_new)
        return y_new, f_new, err

    monkeypatch.setattr(engine, "_rodas4_step", last_rate_nan)
    traj = integrate(*classification_run(two_mg_resolved))
    assert traj.truncated and traj.t[-1] == 61.0
    assert_bitwise_equal(dense_calls)
    sparse = integrate(*classification_run(two_mg_resolved, dense=False))
    assert traj.stats.stiff_from is not None and np.array_equal(traj.t[-2:], sparse.t[-2:])


def test_dense_output_of_synthetic_steps():
    """Three Rodas4 steps between DP45 ones: one that hits _MAX_PIECES, one of
    a few pieces and one of a single piece; then an infinite end rate, where
    the per-step sampler raised, gives no samples."""
    t = np.arange(6.0)
    y = np.array([[0.0, 1.0], [1.0, 2.0], [1.5, 2.0], [2.0, 2.5], [2.1, 2.5], [3.0, 3.0]])
    starts = np.array([0, 2, 3])
    steps = np.ones(3)
    rates = np.array([[[1e9, 0.0], [-1e9, 1.0]],
                      [[0.5 + 1e-4, 0.5], [0.5, 0.5]],
                      [[0.1, 0.0], [0.1, 0.0]]])
    atol, rtol = np.full(2, 1e-6), 1e-7
    args = (t, y, starts, steps, rates, atol, rtol)
    dense_t, dense_y = engine._hermite_samples(*args)
    assert_bitwise_equal([((dense_t, dense_y), dense_output(*args))])
    assert np.count_nonzero(dense_t < 1.0) == engine._MAX_PIECES
    assert np.count_nonzero((dense_t > 2.0) & (dense_t < 3.0)) == 5
    assert len(dense_t) == len(t) + engine._MAX_PIECES - 1 + 5
    rates[0, 1, 0] = math.inf
    with pytest.raises(OverflowError):
        dense_output(*args)
    dense_t, dense_y = engine._hermite_samples(*args)
    assert np.count_nonzero(dense_t < 1.0) == 1


def traced_peak(call, *args, **kwargs):
    """The result of ``call`` and the peak bytes traced during it, above what
    was traced before it."""
    tracemalloc.start()
    try:
        return call(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def long_three_mg_run():
    """A 32,929-row three-MG run: dual-freq-droop-1 and dual-droop-matching,
    two load steps on MG3."""
    doc = shipped_scenario("three-mg")
    doc["ilcs"][0]["scheme"], doc["ilcs"][1]["scheme"] = "dual-freq-droop-1", "dual-droop-matching"
    doc["events"] = [{"time": 6.145, "mg": 2, "delta_p_load": 1038963},
                     {"time": 23.23, "mg": 2, "delta_p_load": -700252}]
    bundle = build_system(resolve(doc))
    return bundle, (bundle.ode, [0.0] * bundle.ode.dim, bundle.events,
                    (0.0, bundle.t_end), bundle.options)


def test_dense_pass_memory_is_bounded_by_the_block(monkeypatch):
    """What the dense pass traces beyond its output arrays stays within a
    dozen per-step and per-block arrays, not a multiple of the row count."""
    hermite, seen = engine._hermite_samples, []

    def traced_hermite(*args):
        out, peak = traced_peak(hermite, *args)
        seen.append((peak, len(args[2])))
        return out

    monkeypatch.setattr(engine, "_hermite_samples", traced_hermite)
    _, run = long_three_mg_run()
    traj = integrate(*run)
    rows, dim = traj.y.shape
    assert rows == 32929
    [(peak, n_steps)] = seen
    assert peak <= traj.t.nbytes + traj.y.nbytes + 12 * (n_steps + engine._BLOCK) * dim * 8


def test_csv_memory_is_bounded_by_the_block(tmp_path):
    """``Trajectory.to_csv`` traces its derived columns (the computed port
    powers and the per-unit frequencies) plus the formatting of one block (its
    stack, floats, their tuple and the text, about ten times the block's
    bytes), not a stack or a list of every row."""
    bundle, run = long_three_mg_run()
    traj = integrate(*run)
    n_mgs, n_ilcs = traj.ode.net.n_mgs, traj.ode.net.n_ilcs
    cols = 1 + n_mgs + 3 * n_ilcs + n_mgs  # t, frequencies, p1, p2, vdc, per-unit
    _, peak = traced_peak(traj.to_csv, tmp_path / "run.csv", pu_base=bundle.omega_nominal)
    rows = len(traj.t)
    assert peak <= (n_mgs + 2 * n_ilcs) * rows * 8 + 10 * engine._BLOCK * cols * 8


@pytest.mark.parametrize("name", ["two-mg", "three-mg"])
def test_csv_blocks_join_seamlessly(name, tmp_path, monkeypatch):
    """A CSV written in blocks of 7 rows has the bytes of one written in
    blocks of the default size."""
    bundle = build_system(resolve(shipped_scenario(name)))
    traj = integrate(bundle.ode, [0.0] * bundle.ode.dim, bundle.events,
                     (0.0, bundle.t_end), bundle.options)
    traj.to_csv(tmp_path / "default.csv", pu_base=bundle.omega_nominal)
    monkeypatch.setattr(engine, "_BLOCK", 7)
    traj.to_csv(tmp_path / "seven.csv", pu_base=bundle.omega_nominal)
    assert len(traj.t) % 7  # the last block is a short one
    assert (tmp_path / "seven.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()


def test_ragged_csv_columns_raise_before_writing(tmp_path):
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b", "c"], [np.zeros(3), np.zeros((3, 1)), np.zeros(2)])
    assert not path.exists()
