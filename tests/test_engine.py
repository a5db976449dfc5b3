import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigrid_ilc import engine
from multigrid_ilc.analysis import linearize_closed_loop, spectral_abscissa
from multigrid_ilc.engine import (
    IntegrateOptions,
    LoadEvent,
    OdeSystem,
    _hermite_extrema,
    _rodas4_step,
    find_equilibrium,
    integrate,
)
from multigrid_ilc.errors import (
    AngleOutOfRange,
    NewtonDivergence,
    PortMismatch,
    ValidationError,
)
from multigrid_ilc.ilc import SCHEMES, Gains, IlcPhysical, IlcUnit
from multigrid_ilc.mg import SwingGovernor
from multigrid_ilc.network import ValidatedNetwork
from multigrid_ilc.scenario import build_system, resolve, set_parameter, shipped_scenario

from jacobian_reference import system_jacobian
from model_reference import connection_powers


def two_mg_net():
    return ValidatedNetwork(2, ((0, 1),))


def dacd_unit(k_dc=0.0, b=None):
    phys = IlcPhysical(k_dc=k_dc) if b is None else IlcPhysical(k_dc=k_dc, b=b)
    return IlcUnit(
        "dual-acdc-droop",
        phys,
        Gains(k_omega1=2.5e7, k_omega2=2.5e7, k_v1=2.5e4, k_v2=2.5e4,
              k_i1=10.0, k_i2=10.0),
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
    with pytest.raises(PortMismatch):
        OdeSystem(two_mg_net(), droop_models()[:1], [dacd_unit()])
    with pytest.raises(PortMismatch):
        OdeSystem(two_mg_net(), droop_models(), [])


def test_droop_sharing_equilibrium():
    """Load step shared in proportion to the total droop coefficients; with a
    lossless DC bus the ILC carries exactly the second MG's contribution."""
    models = droop_models()
    ode = OdeSystem(two_mg_net(), models, [dacd_unit(k_dc=0.0)])
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


def test_infeasible_transfer_raises():
    # filter limit far below the required transfer
    ode = OdeSystem(two_mg_net(), droop_models(),
                    [IlcUnit("dual-droop-matching", IlcPhysical(b=1e5),
                             Gains(m1=1e-3, k_v2=2.5e4, k_omega2=2.5e7, k_i2=10.0))])
    with pytest.raises((NewtonDivergence, AngleOutOfRange)):
        find_equilibrium(ode, loads=[-1e6, 0.0])


def test_integrate_zero_stays_zero():
    ode = OdeSystem(two_mg_net(), droop_models(), [dacd_unit()])
    traj = integrate(ode, [0.0] * ode.dim, t_span=(0.0, 5.0))
    assert np.max(np.abs(traj.y)) == 0.0
    assert not traj.truncated


def test_tolerance_refinement():
    ode = OdeSystem(two_mg_net(), droop_models(), [dacd_unit(k_dc=1.0)])
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


def test_determinism_bit_identical():
    ode = OdeSystem(two_mg_net(), droop_models(), [dacd_unit(k_dc=1.0)])
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
        Gains(k_omega1=2.5e7, k_omega2=2.5e7, k_i=10.0, k_pdc=2.5e4, k_idc=2.5e5),
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
    """Trajectory.connection_power, the law evaluated on whole columns,
    against the scalar simulated law at every sample of a load-step run."""
    bundle = build_system(scheme_scenario(scheme))
    traj = integrate(bundle.ode, [0.0] * bundle.ode.dim, bundle.events, (0.0, 10.0),
                     bundle.options)
    reference = np.array([connection_powers(bundle.ode, y)[0] for y in traj.y.tolist()])
    assert np.max(np.abs(reference)) > 0.0
    for side in (0, 1):
        np.testing.assert_allclose(traj.connection_power(0, side), reference[:, side],
                                   rtol=1e-14, atol=0.0)


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
        units = ode.units
        net = ode.net
        models = ode.models

        @staticmethod
        def derivative(t, y, loads=None):
            rates = ode.derivative(t, y[:-1], loads)
            (p1, p2) = connection_powers(ode, y[:-1])[0]
            v = y[vdc_idx]
            flow = -(p1 + p2) * v / (v + phys.v_dc_ref) - phys.k_dc * v * v
            return rates + [flow]

    Augmented.jacobian = staticmethod(system_jacobian(Augmented))

    events = (LoadEvent(1.0, 0, -1e6),)
    traj = integrate(Augmented, [0.0] * Augmented.dim, events, (0.0, 20.0),
                     IntegrateOptions(rtol=1e-8))
    v = traj.y[:, vdc_idx]
    stored = 0.5 * phys.c * v**2
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
    ode = OdeSystem(two_mg_net(), models, [dacd_unit(k_dc=0.0)])
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


def test_rolled_back_trial_leaves_no_envelope():
    """Without dense output, the late-event ieee39 run drops its rolled-back
    Rodas4 steps with their end rates: it keeps the dense run's DP45 samples,
    and every step's envelope is the span of its endpoints."""
    doc = shipped_scenario("ieee39-reduced")
    doc["events"] = [{"time": 155.91, "mg": 1, "delta_p_load": -54951242.0},
                     {"time": 174.138, "mg": 3, "delta_p_load": 36920033.0}]
    bundle = build_system(resolve(doc))
    run = (bundle.ode, [0.0] * bundle.ode.dim, bundle.events, (0.0, bundle.t_end))
    dense = integrate(*run, bundle.options)
    sparse = integrate(*run, dataclasses.replace(bundle.options, dense=False))
    assert sparse.stats == dense.stats and sparse.stats.rollbacks == 1
    assert np.array_equal(sparse.t, dense.t) and np.array_equal(sparse.y, dense.y)
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


def test_dense_truncation_is_a_sparse_truncation(two_mg_resolved, monkeypatch):
    """An MG frequency bound just above every step endpoint but below the
    Hermite samples of one Rodas4 step truncates the dense and the sparse
    run of one call at the same step end, with the same reason and stats."""
    run = classification_run(two_mg_resolved)
    ode, opts = run[0], run[4]
    omegas = [ode.column("mg", j, "omega") for j in range(2)]
    dense = integrate(*run)
    opts.dense = False
    sparse = integrate(*run)
    at_ends = np.max(np.abs(sparse.y[:, omegas]))
    inside = np.max(np.abs(dense.y[:, omegas]))
    assert at_ends < inside
    monkeypatch.setattr(engine, "_OMEGA_BOUND", 0.5 * (at_ends + inside))
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
