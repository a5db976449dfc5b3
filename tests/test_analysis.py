import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multigrid_ilc.analysis import (
    default_grid,
    linearize_closed_loop,
    linearize_unit,
    mg_linearize,
    observability_report,
    passivity_sweep,
    single_vsc_dc_chain,
    spectral_abscissa,
)
from multigrid_ilc import engine
from multigrid_ilc.errors import NumericalError, ValidationError
from multigrid_ilc.linear import LinearSystem, transfer_matrix, transfer_stack
from multigrid_ilc.mg import FirstOrderDroop, SwingGovernor
from multigrid_ilc.scenario import build_system

from test_ilc import CATALOGUE, unit_for


def lag_system(tau):
    return LinearSystem(a=[[-1.0 / tau]], b=[[1.0 / tau]], c=[[1.0]], d=[[0.0]])


def test_conditioning_flag_is_read_from_a():
    assert lag_system(0.1).flags == ()
    singular = LinearSystem(a=[[1.0, 0.0], [0.0, 1e-13]], b=[[0.0], [1.0]],
                            c=[[1.0, 0.0]], d=[[0.0]])
    assert singular.flags == ("ill-conditioned-jacobian",)


def test_zero_state_map_is_a_pure_gain():
    gain = LinearSystem(a=np.zeros((0, 0)), b=np.zeros((0, 1)), c=np.zeros((1, 0)),
                        d=[[1.0]])
    assert gain.n_states == 0 and gain.flags == ()
    g, ok = transfer_stack(gain, [0.1, 10.0])
    assert np.array_equal(g, np.ones((2, 1, 1))) and ok.all()
    assert passivity_sweep(gain, [0.1, 10.0]).verdict == "passive"


@pytest.mark.parametrize("matrices, message", [
    (dict(a=-np.eye(2), b=[1.0, 2.0, 3.0], c=[[1.0, 0.0]], d=[[0.0]]),
     r"B of shape \(3,\) does not fit A of shape \(2, 2\)"),
    (dict(a=-np.eye(2), b=[[1.0], [2.0]], c=[[1.0, 0.0, 0.0]], d=[[0.0]]),
     r"C of shape \(1, 3\) does not fit A of shape \(2, 2\)"),
    (dict(a=[[-1.0]], b=[[1.0]], c=[[1.0]], d=np.zeros((2, 2))),
     r"D of shape \(2, 2\) does not fit C of shape \(1, 1\) and B of shape \(1, 1\)"),
], ids=["b-entries", "c-columns", "d-port"])
def test_inconsistent_shape_rejected(matrices, message):
    with pytest.raises(ValidationError, match=message):
        LinearSystem(**matrices)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", "ABCD")
def test_non_finite_entry_rejected_by_name(name, value):
    matrices = dict(a=-np.eye(2), b=np.ones((2, 2)), c=np.ones((2, 2)), d=np.eye(2))
    matrices[name.lower()] = matrices[name.lower()].copy()
    matrices[name.lower()][1, 0] = value
    with pytest.raises(ValidationError, match=f"^{name} contains non-finite entries$"):
        LinearSystem(**matrices)


def test_finite_entries_whose_sum_overflows_accepted():
    """The one-sum finiteness test overflows here, within A and across the
    four matrices, and the scan clears it without a warning."""
    big = np.finfo(float).max
    lin = LinearSystem(a=[[big, big], [-1.0, 0.0]], b=[[big], [big]], c=[[big, 0.0]],
                       d=[[big]])
    assert lin.a[0, 0] == big and lin.d[0, 0] == big


def test_overflowing_sum_of_a_finite_stack_keeps_every_point():
    """G's entries are finite, but their sum overflows: the point-by-point
    scan keeps every point, without a warning."""
    big = np.finfo(float).max / 4
    g, ok = transfer_stack(static_gain([[big, big], [big, big]]), [1.0, 2.0, 3.0])
    assert np.all(g == big) and ok.all()


def undamped_oscillator():
    """1/(s^2 + 1): jw I - A is singular at w = 1."""
    return LinearSystem(a=[[0.0, 1.0], [-1.0, 0.0]], b=[[0.0], [1.0]],
                        c=[[1.0, 0.0]], d=[[0.0]])


def unobservable_system():
    """The third state is decoupled from the input and the output."""
    return LinearSystem(
        a=np.diag([-1.0, -2.0, -3.0]),
        b=[[1.0], [1.0], [0.0]],
        c=[[1.0, 1.0, 0.0]],
        d=[[0.0]],
    )


def pointwise_sweep(lin, grid):
    """Per-point reference for the batched sweep: omegas, min eigenvalue of
    G + G*, ||G||_2 and the real diagonal, one transfer_matrix per point."""
    rows = []
    for w in grid:
        g = transfer_matrix(lin, float(w))
        rows.append((float(w), np.linalg.eigvalsh(g + g.conj().T)[0],
                     np.linalg.norm(g, 2), np.real(np.diag(g))))
    return tuple(np.array(column) for column in zip(*rows))


def pencil_ranks(lin, omegas):
    """Per-sample reference for the Rosenbrock ranks: the column-normalized
    pencil [jwI - A, -B; C, D] and one matrix_rank per sample."""
    n = lin.n_states
    ranks = []
    for w in omegas:
        pencil = np.block([[1j * w * np.eye(n) - lin.a, -lin.b],
                           [lin.c.astype(complex), lin.d.astype(complex)]])
        norms = np.linalg.norm(pencil, axis=0)
        ranks.append(int(np.linalg.matrix_rank(pencil / np.where(norms > 0, norms, 1.0))))
    return ranks


def undamped_oscillator_at(k):
    """A with eigenvalues +-jw at the k-th Rosenbrock sample w."""
    w = float(default_grid(32)[k])
    return np.array([[0.0, w], [-w, 0.0]])


def port_less(a):
    n = a.shape[0]
    return LinearSystem(a=a, b=np.zeros((n, 0)), c=np.zeros((0, n)), d=np.zeros((0, 0)))


def static_gain(d):
    d = np.asarray(d, dtype=float)
    return LinearSystem(a=np.zeros((0, 0)), b=np.zeros((0, d.shape[1])),
                        c=np.zeros((d.shape[0], 0)), d=d)


# every shipped port shape, and the corner cases of the rank rule; each
# factory takes the resolved two-mg scenario
RANK_CASES = {
    "unobservable": lambda _: unobservable_system(),
    **{f"unit-{scheme}": (lambda _, s=scheme: linearize_unit(unit_for(s)))
       for scheme in CATALOGUE},
    "mg-first-order-droop": lambda _: mg_linearize(FirstOrderDroop(T=1.0, D=2e7)),
    "mg-swing-governor": lambda _: mg_linearize(
        SwingGovernor(M=3e7, D=1e4, T_g=0.3, inv_R=4e7)),
    "two-by-one": lambda _: LinearSystem(a=np.diag([-1.0, -2.0]), b=[[1.0], [1.0]],
                                         c=np.eye(2), d=[[0.0], [0.0]]),
    "three-channel": lambda _: LinearSystem(a=np.diag([-1.0, -2.0]), b=np.ones((2, 3)),
                                            c=np.ones((3, 2)), d=np.eye(3)),
    "static-gain-rank-one": lambda _: static_gain([[1.0, 2.0], [2.0, 4.0]]),
    "static-gain-identity": lambda _: static_gain(np.eye(2)),
    "static-gain-zero": lambda _: static_gain([[0.0, 0.0]]),
    "port-less-pole": lambda _: port_less(undamped_oscillator_at(13)),
    "closed-loop": lambda resolved: linearize_closed_loop(build_system(resolved).ode),
}

# matrix entries for random systems: multiples of 1/4 in [-2, 2], zero included
QUARTERS = st.integers(-8, 8).map(lambda k: k / 4)


EPS = np.finfo(float).eps


def assert_sweep_matches(report, reference):
    """Exact equality of the grid, the real diagonal and a one-channel min
    eig (2 Re g).  The sweep takes a two-channel min eig and every ||G||_2
    in closed form, the reference by an eigen-solve and an SVD per point:
    those agree to 8 eps ||G||."""
    omegas, min_eigs, g_norms, diag_real = reference
    assert np.array_equal(report.omegas, omegas)
    if diag_real.shape[1] == 1:
        assert np.array_equal(report.min_eigs, min_eigs)
    else:
        assert np.all(np.abs(report.min_eigs - min_eigs) <= 8 * EPS * g_norms)
    np.testing.assert_allclose(report.g_norms, g_norms, rtol=8 * EPS, atol=0)
    assert np.array_equal(report.diag_real, diag_real)


def synthetic_port(kind, scale):
    """A port map whose G(jw) is ``scale`` times a 2x2 map of the given kind
    (random, rank-one, a multiple of a rotation, lossless) or a 1x1 lag.

    The lossless map B^T (sI - A)^-1 B + D, with A and D skew-symmetric,
    has G + G* = 0 at every frequency, so its exact min eig is 0."""
    if kind == "lossless":
        b = np.array([[1.0, 0.2], [0.5, -0.7]])
        return LinearSystem(a=[[0.0, 1.3], [-1.3, 0.0]], b=b, c=scale * b.T,
                            d=scale * np.array([[0.0, 0.4], [-0.4, 0.0]]))
    if kind == "one-channel":
        return LinearSystem(a=[[-2.0]], b=[[3.0 * scale]], c=[[1.0]], d=[[0.5 * scale]])
    if kind == "rank-one":  # u v^T / (s + 1)
        return LinearSystem(a=[[-1.0]], b=[[0.3 * scale, -1.7 * scale]],
                            c=[[2.0], [0.4]], d=np.zeros((2, 2)))
    if kind == "equal-singular-values":  # a rotation over (s + 1)
        c, s = np.cos(0.7), np.sin(0.7)
        return LinearSystem(a=-np.eye(2), b=scale * np.eye(2), c=[[c, -s], [s, c]],
                            d=np.zeros((2, 2)))
    rng = np.random.default_rng(3)
    return LinearSystem(a=-np.diag([0.5, 2.0, 30.0]), b=scale * rng.standard_normal((3, 2)),
                        c=rng.standard_normal((2, 3)), d=scale * rng.standard_normal((2, 2)))


class TestTransferMatrix:
    def test_integrator(self):
        lin = LinearSystem(a=[[0.0]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
        assert transfer_matrix(lin, 1.0)[0, 0] == pytest.approx(-1j)

    def test_first_order_lag(self):
        # 1/(tau s + 1) at the corner frequency
        g = transfer_matrix(lag_system(0.05), 20.0)[0, 0]
        assert g == pytest.approx((1 - 1j) / 2)

    def test_high_frequency_approaches_d(self):
        from multigrid_ilc.analysis import mg_linearize
        from multigrid_ilc.mg import SwingGovernor

        for lin in (
            lag_system(0.05),
            mg_linearize(SwingGovernor(M=1e7, D=1e6, T_g=0.3, inv_R=2e7)),
        ):
            g = transfer_matrix(lin, 1e9)
            assert np.max(np.abs(g - lin.d)) < 1e-6
        # large-gain converters decay at the same 1/w rate, scaled by ||C B||
        lin = linearize_unit(unit_for("dual-freq-droop-1"))
        cb = float(np.max(np.abs(lin.c @ lin.b)))
        assert np.max(np.abs(transfer_matrix(lin, 1e9) - lin.d)) < 1.01 * cb / 1e9

    def test_singular_resolvent(self):
        with pytest.raises(NumericalError, match="eigenvalue of A"):
            transfer_matrix(undamped_oscillator(), 1.0)

    def test_stack_marks_singular_slice(self):
        osc = undamped_oscillator()
        g, ok = transfer_stack(osc, [0.5, 1.0, 2.0])
        assert g.shape == (3, 1, 1)
        assert ok.tolist() == [True, False, True]
        assert np.array_equal(g[1], osc.d)
        assert np.array_equal(g[2], transfer_matrix(osc, 2.0))

    def test_stack_marks_overflowing_slice(self):
        """G = 1e310 / (s + 1) overflows at w = 0.1 and is finite at 1e3."""
        lin = LinearSystem(a=[[-1.0]], b=[[1e300]], c=[[1e10]], d=[[0.0]])
        with np.errstate(over="ignore"):
            _, ok = transfer_stack(lin, [0.1, 1e3])
            assert ok.tolist() == [False, True]
            with pytest.raises(NumericalError, match="resolvent overflow at w=0.1"):
                transfer_matrix(lin, 0.1)

    @pytest.mark.parametrize("omegas", [[0.5, 2.0], [0.5, 1.0, 2.0]],
                             ids=["batched", "fallback"])
    def test_solve_gets_matrix_right_hand_sides(self, monkeypatch, omegas):
        """numpy < 2 reads a B with one dimension fewer than the resolvent
        stack as a stack of vectors, so B must match the stack's rank."""
        solve = np.linalg.solve

        def checked(a, b):
            assert np.ndim(b) == np.ndim(a)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", checked)
        lin = LinearSystem(a=[[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
                           b=[[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
                           c=[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], d=np.zeros((2, 2)))
        g, ok = transfer_stack(lin, omegas)
        assert g.shape == (len(omegas), 2, 2)
        assert ok.tolist() == [w != 1.0 for w in omegas]


class TestLinearizeUnit:
    def test_gfl_dc_row(self):
        lin = linearize_unit(unit_for("dual-freq-droop-1"))
        i_v = lin.state_labels.index("vdc")
        i_p1 = lin.state_labels.index("p1")
        assert lin.a[i_v, i_p1] == pytest.approx(-0.1, rel=1e-6)

    def test_partial_angle_gain(self):
        lin = linearize_unit(unit_for("dual-droop-matching"))
        i_eta = lin.state_labels.index("eta")
        # output 1 is -p1 = -B*sin(eta)
        assert lin.c[0, i_eta] == pytest.approx(-unit_for("matching").physical.B,
                                                rel=1e-6)

    def test_gfm_port_convention(self):
        lin = linearize_unit(unit_for("matching"))
        assert lin.input_labels == ("-p1", "-p2")
        assert lin.output_labels == ("omega1", "omega2")
        # input -p1 raises the DC voltage
        assert lin.b[0, 0] > 0


    def test_unit_jacobian_cache_is_bounded(self):
        """A parameter sweep linearizes a new unit at every probe; the cache
        of compiled unit Jacobians must not keep them all."""
        for i in range(100):
            linearize_unit(unit_for("dual-acdc-droop", K_v1=2.5e4 * (1.0 + i / 100)))
        assert engine._unit_law_jacobian.cache_info().currsize <= 64


class TestPassivity:
    def test_lag_is_passive(self):
        assert passivity_sweep(lag_system(0.05)).verdict == "passive"

    def test_dfd1_non_passive(self):
        report = passivity_sweep(linearize_unit(unit_for("dual-freq-droop-1")))
        assert report.verdict == "non-passive"
        assert report.negative_diag_tail  # the relative-degree diagnostic

    def test_ddm_passive(self):
        report = passivity_sweep(linearize_unit(unit_for("dual-droop-matching")))
        assert report.verdict == "passive"

    def test_hermitian_eigenvalues_real(self):
        lin = linearize_unit(unit_for("dual-acdc-droop"))
        for w in (0.1, 10.0, 1e3):
            g = transfer_matrix(lin, w)
            h = g + g.conj().T
            eigs = np.linalg.eigvals(h)
            assert np.max(np.abs(eigs.imag)) <= 1e-12 * max(1.0, np.max(np.abs(eigs)))

    @pytest.mark.parametrize("scheme", sorted(CATALOGUE))
    def test_verdict_stable_under_grid_refinement(self, scheme):
        lin = linearize_unit(unit_for(scheme))
        verdicts = {
            passivity_sweep(lin, default_grid(n)).verdict for n in (200, 400, 800)
        }
        assert len(verdicts) == 1

    @pytest.mark.parametrize("scheme", sorted(CATALOGUE))
    def test_batched_sweep_equals_pointwise_unit(self, scheme):
        lin = linearize_unit(unit_for(scheme))
        grid = default_grid()
        assert_sweep_matches(passivity_sweep(lin, grid), pointwise_sweep(lin, grid))

    @pytest.mark.parametrize("model", [
        FirstOrderDroop(T=1.0, D=2e7),
        SwingGovernor(M=3e7, D=1e4, T_g=0.3, inv_R=4e7),
    ], ids=["first-order-droop", "swing-governor"])
    def test_batched_sweep_equals_pointwise_mg(self, model):
        lin = mg_linearize(model)
        grid = default_grid()
        assert_sweep_matches(passivity_sweep(lin, grid), pointwise_sweep(lin, grid))

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("port", ["random", "rank-one", "equal-singular-values",
                                      "one-channel", "lossless"])
    def test_synthetic_port_norms(self, port, scale):
        """||G||_2 and min eig of G + G* at gains whose squares leave the
        float range, of rank-one, isotropic and lossless 2x2 maps, and of a
        1x1 map."""
        lin = synthetic_port(port, scale)
        grid = default_grid(57)
        report = passivity_sweep(lin, grid)
        assert_sweep_matches(report, pointwise_sweep(lin, grid))
        assert np.all((report.g_norms > 0) & np.isfinite(report.g_norms))

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_lossless_port_is_marginal(self, scale):
        report = passivity_sweep(synthetic_port("lossless", scale), default_grid(57))
        assert report.verdict == "marginal"
        assert abs(report.worst_margin) <= 8 * EPS

    def test_sweep_takes_no_svd_or_eigen_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep called an SVD or an eigen-solve")

        # np.linalg.norm reaches svd through its own module's globals
        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        report = passivity_sweep(linearize_unit(unit_for("dual-freq-droop-1")))
        assert report.verdict == "non-passive"
        assert passivity_sweep(lag_system(0.05)).verdict == "passive"

    def test_singular_point_skipped(self):
        osc = undamped_oscillator()
        report = passivity_sweep(osc, [0.5, 1.0, 2.0])
        assert report.skipped == (1.0,)
        assert_sweep_matches(report, pointwise_sweep(osc, [0.5, 2.0]))

    def test_every_point_singular(self):
        with pytest.raises(NumericalError, match="every grid point collided"):
            passivity_sweep(undamped_oscillator(), [1.0])

    @pytest.mark.parametrize("grid", [[], [1.0, np.nan], [1.0, np.inf], [np.nan, 1.0],
                                      [1.0, np.nan, 2.0], [1.0, np.inf, 2.0],
                                      [-np.inf, 1.0], [np.nan],
                                      [0.0, 1.0], [-1.0, 1.0], [2.0, 1.0], [1.0, 1.0]])
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(ValidationError):
            passivity_sweep(lag_system(0.05), grid)

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_bad_point_count_rejected(self, n_points):
        with pytest.raises(ValidationError):
            default_grid(n_points)

    def test_a_point_count_numpy_refuses_rejected(self):
        """numpy refuses 1e30 points before it allocates anything."""
        with pytest.raises(ValidationError, match="frequency grid"):
            default_grid(10**30)

    def test_non_square_rejected(self):
        lin = LinearSystem(a=[[-1.0]], b=[[1.0]], c=[[1.0], [2.0]],
                           d=[[0.0], [0.0]])
        with pytest.raises(ValidationError):
            passivity_sweep(lin)

    def test_port_map_without_channels_rejected(self, two_mg_resolved):
        bundle = build_system(two_mg_resolved)
        with pytest.raises(ValidationError, match="1 or 2 channels, got 0"):
            passivity_sweep(linearize_closed_loop(bundle.ode))

    def test_port_map_with_three_channels_rejected(self):
        lin = LinearSystem(a=-np.eye(3), b=np.eye(3), c=np.eye(3), d=np.zeros((3, 3)))
        with pytest.raises(ValidationError, match="1 or 2 channels, got 3"):
            passivity_sweep(lin)


class TestVscChain:
    def setup_method(self):
        self.unit = unit_for("dual-freq-droop-1")
        self.chain = single_vsc_dc_chain(self.unit)
        self.lin = linearize_unit(self.unit)

    def test_rejects_other_schemes(self):
        with pytest.raises(ValidationError):
            single_vsc_dc_chain(unit_for("matching"))

    def test_dc_bus_gain(self):
        # steady state: -1/(K_dc * V_ref); the bus sheds 1 W through K_dc at
        # a voltage deviation of 1e-4 V
        phys = self.unit.physical
        assert self.chain.p1_to_vdc.evaluate(0.0) == pytest.approx(
            -1.0 / (phys.K_dc * phys.V_dc_ref)
        )

    def test_relative_degree(self):
        assert self.chain.freq_to_p2.relative_degree >= 2

    def test_real_part_goes_negative(self):
        values = self.chain.freq_to_p2.evaluate(1j * default_grid())
        assert np.min(values.real) < 0

    def test_matches_linearization_on_grid(self):
        for w in default_grid(100):
            g = transfer_matrix(self.lin, float(w))
            t21 = self.chain.freq_to_p2.evaluate(1j * w)
            t18 = self.chain.freq_to_p1.evaluate(1j * w)
            assert abs(t21 - g[1, 1]) / abs(g[1, 1]) < 1e-6
            assert abs(t18 - g[0, 1]) / abs(g[0, 1]) < 1e-6

    def test_chain_is_product(self):
        s = 1j * 37.0
        product = (
            self.chain.freq_to_p1.evaluate(s)
            * self.chain.p1_to_vdc.evaluate(s)
            * self.chain.vdc_to_p2.evaluate(s)
        )
        assert product == pytest.approx(self.chain.freq_to_p2.evaluate(s))

    def test_closed_pi_loop_stage(self):
        # Vdc->p2 stage equals the PI loop closed through the bus
        g, phys = self.unit.gains, self.unit.physical
        for w in (0.1, 10.0, 1e3):
            s = 1j * w
            beta = 1.0 / (phys.C * phys.V_dc_ref * s + phys.K_dc * phys.V_dc_ref)
            kappa = (g.K_pdc + g.K_idc / s) / (phys.tau2 * s + 1.0)
            ref = kappa / (1.0 + beta * kappa)
            assert self.chain.vdc_to_p2.evaluate(s) == pytest.approx(ref, rel=1e-12)


class TestObservability:
    def test_identity_output(self):
        lin = LinearSystem(a=np.diag([-1.0, -2.0]), b=[[1.0], [1.0]],
                           c=np.eye(2), d=[[0.0], [0.0]])
        assert observability_report(lin).obs_rank == 2

    def test_ddm_full_rank(self):
        report = observability_report(linearize_unit(unit_for("dual-droop-matching")))
        assert report.n_states == 4
        assert report.obs_rank == 4
        assert report.observable

    def test_unobservable_decoupled_state(self):
        assert observability_report(unobservable_system()).obs_rank == 2

    @pytest.mark.parametrize("case", sorted(RANK_CASES))
    def test_batched_ranks_equal_pointwise(self, case, two_mg_resolved):
        lin = RANK_CASES[case](two_mg_resolved)
        report = observability_report(lin)
        omegas = [w for w, _ in report.rosenbrock_ranks]
        assert omegas == default_grid(32).tolist()
        assert [rank for _, rank in report.rosenbrock_ranks] == pencil_ranks(lin, omegas)

    @pytest.mark.parametrize("detune", [0.0, 1e-9])
    def test_ranks_near_an_undamped_pole(self, detune):
        """With the pole on a sample, or 1e-9 off it, G there is singular or
        nearly so, while the pencil [jwI - A, -I; I, 0] keeps full rank."""
        lin = LinearSystem(a=undamped_oscillator_at(13) * (1.0 + detune), b=np.eye(2),
                           c=np.eye(2), d=np.zeros((2, 2)))
        report = observability_report(lin)
        ranks = [rank for _, rank in report.rosenbrock_ranks]
        assert ranks == pencil_ranks(lin, [w for w, _ in report.rosenbrock_ranks])
        assert ranks == [4] * 32

    def test_equal_input_columns_lose_one_rank(self):
        lin = LinearSystem(a=[[-1.0, 2.0], [-2.0, -1.0]], b=[[1.0, 1.0], [2.0, 2.0]],
                           c=np.eye(2), d=np.zeros((2, 2)))
        assert [rank for _, rank in observability_report(lin).rosenbrock_ranks] == [3] * 32

    def test_tiny_well_conditioned_port_reads_full_rank(self):
        """G = diag(1e-300, 1) / (s + 1) has full rank, which the Schur
        complement sees; the SVD's relative tolerance alone would not."""
        lin = LinearSystem(a=-np.eye(2), b=np.eye(2), c=[[1e-300, 0.0], [0.0, 1.0]],
                           d=np.zeros((2, 2)))
        assert observability_report(lin).input_observable

    def test_regular_full_rank_port_takes_no_pencil_svd(self, monkeypatch):
        shapes = []
        matrix_rank = np.linalg.matrix_rank

        def recording(mat, *args, **kwargs):
            shapes.append(np.shape(mat))
            return matrix_rank(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", recording)
        report = observability_report(linearize_unit(unit_for("dual-acdc-droop")))
        assert report.input_observable
        # only the observability matrix is ranked, never a stack of pencils
        assert shapes == [(2 * report.n_states, report.n_states)]

    @pytest.mark.parametrize("scheme", ["dual-freq-droop-1", "dual-freq-droop-2", "matching"])
    def test_one_signal_port_takes_no_pencil_svd(self, scheme, monkeypatch):
        """These ports' two columns of [B; D] are +- each other, so G has
        rank 1 everywhere; the port is ranked as the one-channel port it is,
        with the full pencil's ranks and no pencil SVD."""
        lin = linearize_unit(unit_for(scheme))
        bd = np.vstack([lin.b, lin.d])
        assert np.array_equal(np.abs(bd[:, 0]), np.abs(bd[:, 1]))
        shapes = []
        matrix_rank = np.linalg.matrix_rank

        def recording(mat, *args, **kwargs):
            shapes.append(np.shape(mat))
            return matrix_rank(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", recording)
        report = observability_report(lin)
        n = lin.n_states
        assert shapes == [(2 * n, n)]
        ranks = [rank for _, rank in report.rosenbrock_ranks]
        assert ranks == pencil_ranks(lin, [w for w, _ in report.rosenbrock_ranks])
        assert ranks == [n + 1] * 32
        assert report.n_columns == n + 2 and not report.input_observable

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 6),
           dependence=st.sampled_from([None, "b-columns", "c-rows"]))
    def test_random_port_ranks_equal_pointwise(self, data, n, dependence):
        """Random 2x2 ports, some made rank deficient by construction."""
        def draw(shape):
            return data.draw(arrays(float, shape, elements=QUARTERS))

        a, b, c, d = draw((n, n)), draw((n, 2)), draw((2, n)), draw((2, 2))
        alpha = data.draw(QUARTERS)
        if dependence == "b-columns":
            b[:, 1], d[:, 1] = alpha * b[:, 0], alpha * d[:, 0]
        elif dependence == "c-rows":
            c[1], d[1] = alpha * c[0], alpha * d[0]
        lin = LinearSystem(a=a, b=b, c=c, d=d)
        report = observability_report(lin)
        ranks = [rank for _, rank in report.rosenbrock_ranks]
        assert ranks == pencil_ranks(lin, [w for w, _ in report.rosenbrock_ranks])
        if dependence:
            assert max(ranks) <= n + 1


class TestStabilityEigs:
    def test_lag(self):
        assert spectral_abscissa(lag_system(0.05)) == pytest.approx(-20.0)

    def test_two_mg_ddm_stable(self, two_mg_resolved):
        bundle = build_system(two_mg_resolved)
        assert spectral_abscissa(linearize_closed_loop(bundle.ode)) < 0

    def test_gfm_freq_droop_needs_dc_support(self, scheme_scenario):
        from multigrid_ilc.scenario import set_parameter

        resolved = set_parameter(scheme_scenario("gfm-freq-droop"), "ilc.K_dc", 0.0)
        bundle = build_system(resolved)
        assert spectral_abscissa(linearize_closed_loop(bundle.ode)) >= 0


def report_digest(report) -> str:
    """sha256 of every field of a frozen report: an array by its dtype, shape
    and bytes, anything else by its repr (exact for floats)."""
    h = hashlib.sha256()
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if isinstance(value, np.ndarray):
            h.update(f"{field.name}:{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(f"{field.name}:{value!r}".encode())
    return h.hexdigest()


# the certificate of ILC 1 on two-mg per scheme, as `certify` computes it
CERTIFICATE_DIGESTS = {
    "dual-acdc-droop": (
        "9a9c618a87ef0120a61d38ba37577d86d13a7ed61deef48e228aed0acf4e58b1",
        "1c5eb0decfad3f6cf817d170470956b5273d3ec7812e9c244d0c37097cc98b8a"),
    "dual-droop-matching": (
        "ce9b417cf7ff511901e8cfba5d041dcb24bb897229295bb72fd2335b4deeed49",
        "a5194b4e8d8af8f3ac5225e201fe21c2a6c9936e3f68d28af1705c4441dee653"),
    "dual-freq-droop-1": (
        "de8922d7984533066afb897091c82b52fe88bfbeceecc15782d121933c47762f",
        "732e9b200f004ef28a5bff0fef67214b6a8f39d3de955e96e1ed30dd619ba871"),
    "dual-freq-droop-2": (
        "0028f65d28eb0d88f15162d57eba4e1b4fbfd03e61b4d57f17261038783c6003",
        "732e9b200f004ef28a5bff0fef67214b6a8f39d3de955e96e1ed30dd619ba871"),
    "gfl-gfm-dual-droop": (
        "3ed62b770674403677f7a6691005664918ed0b4b6a085f5ea1ef76252974e7a9",
        "859c3f387d837cbb6f4b417d95315b7f0bfefcf1acf66330d4d0ce24a9715526"),
    "gfm-dual-droop": (
        "21a39b24a66c6f8d4252b33be6481f3d62ebce657521431ca0fb9018285d7a4d",
        "1c5eb0decfad3f6cf817d170470956b5273d3ec7812e9c244d0c37097cc98b8a"),
    "gfm-freq-droop": (
        "82b7acd5aa56c40569701ebbc6f1bf42549a6a1044d895000f4593d249bf839a",
        "1c5eb0decfad3f6cf817d170470956b5273d3ec7812e9c244d0c37097cc98b8a"),
    "matching": (
        "9eb2f0329d183ef466639a0d60cde8d73d685bcf26b5e5b8917a3d154df2ea64",
        "ca4ef01dad60a28063f746cf2db93c1700c7739d4ed0abc342bfbd5c9c8ac531"),
}


@pytest.mark.parametrize("scheme", sorted(CATALOGUE))
def test_certificate_is_bitwise_pinned(scheme, scheme_scenario):
    lin = linearize_unit(build_system(scheme_scenario(scheme)).units[0])
    found = (report_digest(passivity_sweep(lin, default_grid())),
             report_digest(observability_report(lin)))
    assert found == CERTIFICATE_DIGESTS[scheme]


def test_passivity_csv_full_precision(tmp_path):
    report = passivity_sweep(linearize_unit(unit_for("dual-droop-matching")),
                             default_grid(25))
    path = tmp_path / "sweep.csv"
    report.to_csv(path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "omega,min_eig,diag1_re,diag2_re"
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert np.array_equal(values[:, 0], report.omegas)
    assert np.array_equal(values[:, 1], report.min_eigs)
