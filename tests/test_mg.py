import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigrid_ilc.analysis import observability_report, passivity_sweep, spectral_abscissa
from multigrid_ilc.errors import NonFiniteInput, ValidationError
from multigrid_ilc.linear import transfer_matrix
from multigrid_ilc.mg import (
    FirstOrderDroop,
    SwingGovernor,
    mg_derivative,
    mg_linearize,
)

from jacobian_reference import mg_port_jacobian

positive = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False)


def test_first_order_equilibrium():
    m = FirstOrderDroop(T=1.0, D=2e7)
    assert mg_derivative(m, (0.0,), 0.0, 0.0) == (0.0,)


def test_first_order_step_rate():
    m = FirstOrderDroop(T=1.0, D=2e7)
    (dw,) = mg_derivative(m, (0.0,), -1e6, 0.0)
    assert dw == pytest.approx(-1e6 / m.T)


def test_swing_governor_steady_state():
    # algebraic balance: 0 = -D w - w/R + p_in
    m = SwingGovernor(M=1e7, D=1e6, T_g=0.3, inv_R=2e7)
    w_star = -1e6 / (m.D + m.inv_R)
    assert w_star == pytest.approx(-0.047619, rel=1e-4)
    p_m_star = -m.inv_R * w_star
    rates = mg_derivative(m, (w_star, p_m_star), -1e6, 0.0)
    assert max(abs(r) for r in rates) < 1e-12


def test_first_order_transfer():
    lin = mg_linearize(FirstOrderDroop(T=1.0, D=2e7))
    for w in (0.1, 10.0, 1e3):
        g = transfer_matrix(lin, w)[0, 0]
        assert g == pytest.approx(1.0 / (1j * w + 2e7), rel=1e-12)


def test_swing_governor_dc_gain():
    m = SwingGovernor(M=1e7, D=1e6, T_g=0.3, inv_R=2e7)
    lin = mg_linearize(m)
    gain = float((-lin.c @ np.linalg.solve(lin.a, lin.b))[0, 0])
    assert gain == pytest.approx(1.0 / (m.D + m.inv_R), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(T=positive, D=positive)
def test_first_order_strictly_positive_real(T, D):
    report = passivity_sweep(mg_linearize(FirstOrderDroop(T=T, D=D)))
    assert report.min_eigs.min() > 0.0
    # extreme lags can graze the relative margin band but never go negative
    assert report.verdict != "non-passive"


@settings(max_examples=25, deadline=None)
@given(M=positive, D=positive, T_g=st.floats(1e-3, 10.0), inv_R=positive)
def test_swing_governor_strictly_positive_real(M, D, T_g, inv_R):
    m = SwingGovernor(M=M, D=D, T_g=T_g, inv_R=inv_R)
    report = passivity_sweep(mg_linearize(m))
    assert report.min_eigs.min() > 0.0
    assert spectral_abscissa(mg_linearize(m)) < 0.0


def test_input_observability_rosenbrock():
    for m in (FirstOrderDroop(T=1.0, D=2e7),
              SwingGovernor(M=1e7, D=1e6, T_g=0.3, inv_R=2e7)):
        report = observability_report(mg_linearize(m))
        assert report.input_observable


def test_linearize_matches_finite_differences():
    m = SwingGovernor(M=3e7, D=1e4, T_g=0.3, inv_R=4e7)
    lin = mg_linearize(m)
    analytic = np.block([[lin.a, lin.b], [lin.c, lin.d]])
    scale = max(1.0, float(np.max(np.abs(analytic))))
    assert np.max(np.abs(analytic - mg_port_jacobian(m))) / scale < 1e-6


def test_nonfinite_input_rejected():
    m = FirstOrderDroop(T=1.0, D=2e7)
    with pytest.raises(NonFiniteInput):
        mg_derivative(m, (0.0,), math.nan)


def test_parameters_must_be_positive():
    with pytest.raises(ValidationError):
        FirstOrderDroop(T=0.0, D=1.0)
    with pytest.raises(ValidationError):
        SwingGovernor(M=1.0, D=-1.0, T_g=0.1, inv_R=1.0)


@pytest.mark.parametrize("rating", [0.0, -1.0, math.inf])
def test_rating_must_be_positive(rating):
    with pytest.raises(ValidationError, match="rating"):
        FirstOrderDroop(T=1.0, D=1.0, rating=rating)
    with pytest.raises(ValidationError, match="rating"):
        SwingGovernor(M=1.0, D=1.0, T_g=0.1, inv_R=1.0, rating=rating)
