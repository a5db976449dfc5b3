"""Interconnected multi-grid ODE: assembly, equilibria, time integration.

The network couples MG frequency dynamics and ILC power dynamics in
negative feedback: each ILC reads the frequencies of the two MGs it
connects, and each MG receives the scheduled load deviation plus the sum of
the connection powers injected by its ILCs.  Grid-forming ILC sides couple
through their inductive filter (angle state, power B*sin(eta)); the filter
angles are part of the simulated ILC state.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    AngleOutOfRange,
    DcVoltageCollapse,
    NewtonDivergence,
    PortMismatch,
    StepSizeUnderflow,
    ValidationError,
)
from .ilc import (IlcUnit, injected_powers, make_sim_derivative, make_sim_jacobian,
                  sim_state_names)
from .mg import MgModel, default_rating, mg_linearize, mg_rhs
from .network import ValidatedNetwork

def scales_and_atols(
    owner: MgModel | IlcUnit, names: Sequence[str]
) -> tuple[list[float], list[float]]:
    """Scale and absolute integration tolerance of each named state (or port
    variable) of one MG model or ILC unit, by kind of quantity.

    Angles and frequencies (rad, rad/s) scale with 1 and get atol 1e-9.  The
    DC voltage and its integral scale with 1 % of the nominal DC voltage and
    get atol 1e-6.  Everything else is a power or a power integral: it scales
    with 1 % of the MG rating, or with the larger of 1e5 W and 1e-3 of the
    ILC's filter power constant, and gets atol 1e-3.
    """
    if isinstance(owner, IlcUnit):
        v_scale = 0.01 * owner.physical.v_dc_ref
        p_scale = max(1e5, 1e-3 * owner.physical.b)
    else:
        v_scale = None
        p_scale = 0.01 * default_rating(owner)
    scales, atols = [], []
    for name in names:
        if name.startswith(("omega", "eta")):
            scales.append(1.0)
            atols.append(1e-9)
        elif name in ("vdc", "zeta"):
            scales.append(v_scale)
            atols.append(1e-6)
        else:
            scales.append(p_scale)
            atols.append(1e-3)
    return scales, atols


@dataclass(frozen=True)
class EquilibriumPoint:
    """A state where the assembled derivative vanishes."""

    x: np.ndarray
    residual: float  # scaled infinity norm
    loads: tuple[float, ...]
    iterations: int  # Newton iterations it took


class OdeSystem:
    """The assembled interconnection, ready to evaluate and integrate."""

    def __init__(self, net: ValidatedNetwork, models, units):
        if len(models) != net.n_mgs:
            raise PortMismatch(
                f"{net.n_mgs} MGs in the network but {len(models)} MG models"
            )
        if len(units) != net.n_ilcs:
            raise PortMismatch(
                f"{net.n_ilcs} ILCs in the network but {len(units)} ILC units"
            )
        self.net = net
        self.models = tuple(models)
        self.units = tuple(units)
        self.base_loads = tuple(m.p_load for m in self.models)

        # the state vector: every MG's states, then every ILC's, each named
        # "<kind><1-based index>.<state>"
        names, scales, atols, spans = [], [], [], []
        for kind, owners, states_of in (("mg", self.models, lambda m: m.state_names),
                                        ("ilc", self.units, sim_state_names)):
            for k, owner in enumerate(owners):
                states = states_of(owner)
                spans.append((len(names), len(names) + len(states)))
                names += [f"{kind}{k + 1}.{name}" for name in states]
                owner_scales, owner_atols = scales_and_atols(owner, states)
                scales += owner_scales
                atols += owner_atols
        self.state_names = tuple(names)
        self.state_scales = np.array(scales)
        self.state_atols = np.array(atols)
        self.dim = len(names)

        self._mg_rhs = [mg_rhs(m) for m in self.models]
        self._mg_spans = spans[: net.n_mgs]
        self._ilc_rhs = [make_sim_derivative(u) for u in self.units]
        self._ilc_spans = spans[net.n_mgs :]

    # -- evaluation ---------------------------------------------------------

    def derivative(self, t: float, y: Sequence[float], loads: Sequence[float] | None = None):
        """Full state derivative; ``loads`` are per-MG load deviations (W)."""
        if loads is None:
            loads = self.base_loads
        omegas = [y[lo] for lo, _ in self._mg_spans]
        p_in = list(loads)
        rates = [0.0] * self.dim
        for rhs, (lo, hi), (a, b) in zip(self._ilc_rhs, self._ilc_spans, self.net.ends):
            seg_rates, pa, pb = rhs(y[lo:hi], omegas[a], omegas[b])
            rates[lo:hi] = seg_rates
            p_in[a] += pa
            p_in[b] += pb
        for rhs, (lo, hi), p in zip(self._mg_rhs, self._mg_spans, p_in):
            rates[lo:hi] = rhs(y[lo:hi], p)
        return rates

    @cached_property
    def _jacobian_parts(self) -> tuple[np.ndarray, list]:
        """The MG blocks, and per ILC its sim Jacobian with the maps that
        place it: rows (its rates; its port powers through each MG's input
        map) and columns (its state; the MG frequencies).  Built on first use."""
        mg_jac = np.zeros((self.dim, self.dim))
        mg_inputs = np.zeros((self.dim, self.net.n_mgs))
        for j, (model, (lo, hi)) in enumerate(zip(self.models, self._mg_spans)):
            lin = mg_linearize(model)
            mg_jac[lo:hi, lo:hi] = lin.a
            mg_inputs[lo:hi, j] = lin.b[:, 0]
        ilcs = []
        for unit, (lo, hi), (a, b) in zip(self.units, self._ilc_spans, self.net.ends):
            omegas = self._mg_spans[a][0], self._mg_spans[b][0]
            rows = np.zeros((self.dim, hi - lo + 2))
            rows[lo:hi, : hi - lo] = np.eye(hi - lo)
            rows[:, hi - lo :] = mg_inputs[:, (a, b)]
            cols = np.eye(self.dim)[[*range(lo, hi), *omegas]]
            ilcs.append((make_sim_jacobian(unit), lo, hi, omegas, rows, cols))
        return mg_jac, ilcs

    def jacobian(self, y: Sequence[float]) -> np.ndarray:
        """Exact Jacobian of :meth:`derivative` at ``y`` (the loads enter
        additively and drop out).  Raises :class:`DcVoltageCollapse` wherever
        the derivative does."""
        mg_jac, ilcs = self._jacobian_parts
        jac = mg_jac.copy()
        for ilc_jac, lo, hi, (wa, wb), rows, cols in ilcs:
            jac += rows @ ilc_jac(y[lo:hi], y[wa], y[wb]) @ cols
        return jac

    def column(self, kind: str, index: int, name: str) -> int:
        """Position of state ``name`` of MG or ILC ``index`` (0-based) in
        the state vector."""
        label = f"{kind}{index + 1}.{name}"
        if label not in self.state_names:
            raise KeyError(f"no state {label}")
        return self.state_names.index(label)


# Newton: convergence tolerance on the scaled residual, and iteration cap
_NEWTON_TOL = 1e-8
_NEWTON_MAX_ITER = 50


def find_equilibrium(
    ode: OdeSystem,
    loads: Sequence[float] | None = None,
    guess: Sequence[float] | None = None,
) -> EquilibriumPoint:
    """Newton iteration with the exact Jacobian (:meth:`OdeSystem.jacobian`),
    row-scaled by the state scales like the residual.

    Converged when the scaled residual infinity norm drops below
    ``1e-8 * max(1, scaled state magnitude)``; at most 50 iterations.
    """
    loads = tuple(ode.base_loads if loads is None else loads)
    x = np.zeros(ode.dim) if guess is None else np.asarray(guess, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValidationError("equilibrium guess must be finite")
    scales = ode.state_scales

    def residual(vec):
        return np.asarray(ode.derivative(0.0, list(vec), loads)) / scales

    r = residual(x)
    for iterations in range(_NEWTON_MAX_ITER):
        norm = float(np.max(np.abs(r)))
        threshold = _NEWTON_TOL * max(1.0, float(np.max(np.abs(x / scales))))
        if norm <= threshold:
            return EquilibriumPoint(x=x, residual=norm, loads=loads, iterations=iterations)
        jac = ode.jacobian(x) / scales[:, None]
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergence("singular Jacobian in Newton iteration") from exc
        # damped update: halve until the residual improves
        alpha = 1.0
        for _ in range(12):
            x_new = x + alpha * step
            try:
                r_new = residual(x_new)
            except (DcVoltageCollapse, ValueError, OverflowError):
                alpha *= 0.5
                continue
            if not np.all(np.isfinite(r_new)):
                alpha *= 0.5
                continue
            if np.max(np.abs(r_new)) < norm or alpha < 1e-3:
                break
            alpha *= 0.5
        else:
            raise NewtonDivergence("line search failed")
        x, r = x_new, r_new
    raise NewtonDivergence(
        f"no convergence after {_NEWTON_MAX_ITER} iterations (residual {np.max(np.abs(r)):.3e})"
    )


@dataclass(frozen=True)
class LoadEvent:
    """An ideal load step: at ``time``, MG ``mg`` (0-based) gains ``delta_p_load``."""

    time: float
    mg: int
    delta_p_load: float


@dataclass
class IntegrateOptions:
    """Settings of one :func:`integrate` call.

    ``rtol`` and ``atol_scale`` (a factor on the per-state absolute
    tolerances) set the error control and ``max_step`` caps the step size.
    ``dense`` inserts cubic Hermite samples inside each Rodas4 step; without
    it the trajectory keeps the step endpoints and their envelope
    (:attr:`Trajectory.envelope`).
    """

    rtol: float = 1e-7
    atol_scale: float = 1.0
    max_step: float = math.inf
    dense: bool = True


@dataclass(frozen=True)
class IntegrationStats:
    """What one :func:`integrate` call did.

    ``accepted`` and ``rejected`` count the steps behind the returned
    samples, plus any the call took past a step whose envelope then
    truncated it; ``rhs_calls`` counts every derivative evaluation and
    ``jacobian_calls`` every exact Jacobian, rolled-back Rodas4 trials
    included.  ``stiff_from`` is the
    time from which the call ran on Rodas4, or None when it stayed on DP45;
    ``rollbacks`` counts the Rodas4 trials that were rolled back.
    """

    accepted: int
    rejected: int
    rhs_calls: int
    jacobian_calls: int
    stiff_from: float | None
    rollbacks: int


@dataclass
class Trajectory:
    """Adaptive-step solution samples plus derived per-component outputs.

    ``envelope``, set only by a call without dense output, is the pair
    (lo, hi) of arrays with one row per step, from ``t[k]`` to ``t[k + 1]``:
    the per-component minimum and maximum of the state over that step.
    """

    t: np.ndarray
    y: np.ndarray
    ode: OdeSystem
    events: tuple[LoadEvent, ...]
    truncated: bool = False
    truncation_reason: str | None = None
    stats: IntegrationStats | None = None
    envelope: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.y[-1]

    def omega(self, mg_index: int) -> np.ndarray:
        return self.y[:, self.ode.column("mg", mg_index, "omega")]

    def vdc(self, ilc_index: int) -> np.ndarray:
        return self.y[:, self.ode.column("ilc", ilc_index, "vdc")]

    def connection_power(self, ilc_index: int, side: int) -> np.ndarray:
        """Power the ILC injects into the side-1 or side-2 MG over time."""
        lo, hi = self.ode._ilc_spans[ilc_index]
        return injected_powers(self.ode.units[ilc_index], self.y[:, lo:hi])[side]

    def to_csv(self, path, pu_base: float | None = None) -> None:
        """Write `t, mg<i>.omega, ilc<l>.p1, ilc<l>.p2, ilc<l>.vdc, ...` in SI units.

        With ``pu_base`` (rad/s), per-unit frequency columns are appended.
        """
        n_mgs = self.ode.net.n_mgs
        n_ilcs = self.ode.net.n_ilcs
        header = ["t"]
        cols = [self.t]
        for j in range(n_mgs):
            header.append(f"mg{j + 1}.omega")
            cols.append(self.omega(j))
        for l in range(n_ilcs):
            header += [f"ilc{l + 1}.p1", f"ilc{l + 1}.p2", f"ilc{l + 1}.vdc"]
            cols += [
                self.connection_power(l, 0),
                self.connection_power(l, 1),
                self.vdc(l),
            ]
        if pu_base is not None:
            for j in range(n_mgs):
                header.append(f"mg{j + 1}.omega_pu")
                cols.append(self.omega(j) / pu_base)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(header) + "\n")
            for row in np.column_stack(cols).tolist():
                handle.write(",".join(map(repr, row)) + "\n")


# Dormand-Prince 5(4) coefficients
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168,
    -355 / 33,
    46732 / 5247,
    49 / 176,
    -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

# Hairer's DOPRI5 stiffness test: run every _STIFF_EVERY accepted steps (and
# on every step while a streak is open); _STIFF_STREAK estimates of h*|lambda|
# above _STIFF_HLAMBDA, without 6 calm ones in between, switch the call to
# Rodas4
_STIFF_EVERY = 10
_STIFF_STREAK = 15
_STIFF_HLAMBDA = 3.25
# accepted Rodas4 steps after a switch before it is judged against DP45
# (Rodas4 first has to damp the fast mode DP45 left ringing); a failed trial
# pauses the stiffness test for _RETRY_FACTOR times its overspend, counted
# in DP45 steps
_TRIAL_STEPS = 100
_RETRY_FACTOR = 10
# divergence bounds of a trajectory
_OMEGA_BOUND = 5.0       # rad/s; beyond this an MG counts as diverged
_VDC_BOUND_FRAC = 0.2    # fraction of V_dc_ref


class _Switch(NamedTuple):
    """The DP45 state at a switch to Rodas4, kept while Rodas4 is on trial."""

    t: float
    y: list
    k1: list
    h: float
    endpoints: int
    stiff_steps: int
    accepted: int
    rejected: int
    rhs_calls: int
    jacobian_calls: int
    dp45_step: float


# Rodas4 (Hairer & Wanner, Solving ODEs II, IV.7) in transformed form: stage
# i evaluates f at y + _R_A[i] @ u and adds _R_C[i] @ u / h; row 5 of _R_A
# is the stage-6 argument, from which y_new = arg + u6
_R_GAMMA = 0.25
_R_NODES = (0.0, 0.386, 0.21, 0.63, 1.0, 1.0)
_R_A = np.zeros((6, 5))
_R_A[1, :1] = (1.544,)
_R_A[2, :2] = (0.9466785280815826, 0.2557011698983284)
_R_A[3, :3] = (3.314825187068521, 2.896124015972201, 0.9986419139977817)
_R_A[4, :4] = (1.221224509226641, 6.019134481288629, 12.53708332932087,
               -0.6878860361058950)
_R_A[5] = (*_R_A[4, :4], 1.0)
_R_C = np.zeros((6, 5))
_R_C[1, :1] = (-5.6688,)
_R_C[2, :2] = (-2.430093356833875, -0.2063599157091915)
_R_C[3, :3] = (-0.1073529058151375, -9.594562251023355, -20.47028614809616)
_R_C[4, :4] = (7.496443313967647, -10.24680431464352, -33.99990352819905,
               11.70890893206160)
_R_C[5] = (8.083246795921522, -7.981132988064893, -31.52159432874371,
           16.31930543123136, -6.058818238834054)
# upper bound on Hermite samples per Rodas4 step
_MAX_PIECES = 1000


def _initial_step(f, t0, y0, scale, max_step):
    f0 = f(t0, y0)
    d0 = max((abs(v) / s) for v, s in zip(y0, scale))
    d1 = max((abs(v) / s) for v, s in zip(f0, scale))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    try:
        y1 = [y + h0 * k for y, k in zip(y0, f0)]
        f1 = f(t0 + h0, y1)
        d2 = max(abs(a - b) / s for a, b, s in zip(f1, f0, scale)) / h0
    except (DcVoltageCollapse, ValueError, OverflowError):
        return min(1e-6, max_step), f0
    if not math.isfinite(d2):
        return min(1e-6, max_step), f0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step), f0


def _dp45_step(f, t, y, k1, h, atol, rtol):
    """One Dormand-Prince trial step: (y_new, k7, error norm, k6, y6).

    ``k1`` is f(t, y); ``k6`` and its argument ``y6`` feed the stiffness test.
    """
    n = len(y)
    rng = range(n)
    k2 = f(t + h / 5, [y[i] + h * (_A21 * k1[i]) for i in rng])
    k3 = f(t + 0.3 * h, [y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in rng])
    k4 = f(
        t + 0.8 * h,
        [y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in rng],
    )
    k5 = f(
        t + (8 / 9) * h,
        [
            y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
            for i in rng
        ],
    )
    y6 = [
        y[i]
        + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i] + _A65 * k5[i])
        for i in rng
    ]
    k6 = f(t + h, y6)
    y_new = [
        y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i] + _B6 * k6[i])
        for i in rng
    ]
    k7 = f(t + h, y_new)  # FSAL stage
    err_norm = 0.0
    for i in rng:
        err = h * (
            _E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i] + _E6 * k6[i]
            + _E7 * k7[i]
        )
        if not math.isfinite(err):
            return y_new, k7, math.inf, k6, y6
        sc = atol[i] + rtol * max(abs(y[i]), abs(y_new[i]))
        err_norm += (err / sc) ** 2
    return y_new, k7, math.sqrt(err_norm / n), k6, y6


def _looks_stiff(h, k6, k7, y6, y_new, scales) -> bool:
    """Hairer's DOPRI5 test: h*|lambda|, estimated as h*|k7 - k6| / |y_new - y6|
    in the norm scaled by the state scales, lies beyond the stability
    boundary (3.25)."""
    num = sum(((a - b) / w) ** 2 for a, b, w in zip(k7, k6, scales))
    den = sum(((a - b) / w) ** 2 for a, b, w in zip(y_new, y6, scales))
    return den > 0.0 and h * h * num > _STIFF_HLAMBDA ** 2 * den


def _rodas4_step(f, t, y, f0, jac, h, atol, rtol):
    """One Rodas4 trial step in transformed form: (y_new, f(y_new), error norm).

    Each stage solves (I/(gamma*h) - J) u_i = f(y + sum a_ij u_j)
    + sum c_ij u_j / h; the solution is the stage-6 argument plus u6, and u6
    is the embedded error estimate.  f(y_new) is only evaluated when the
    step passes.
    """
    y = np.asarray(y)
    inv = np.linalg.inv(np.eye(y.size) / (_R_GAMMA * h) - jac)
    u = np.empty((6, y.size))
    with np.errstate(all="ignore"):
        u[0] = inv @ np.asarray(f0)
        for i in range(1, 6):
            arg = y + _R_A[i, :i] @ u[:i]
            rate = np.asarray(f(t + _R_NODES[i] * h, arg.tolist()), dtype=float)
            u[i] = inv @ (rate + (_R_C[i, :i] @ u[:i]) / h)
        y_new = arg + u[5]
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean((u[5] / sc) ** 2)))
    if not err_norm <= 1.0:
        return None, None, err_norm if math.isfinite(err_norm) else math.inf
    y_new = y_new.tolist()
    return y_new, f(t + h, y_new), err_norm


def _hermite_samples(y0, f0, y1, f1, h, atol, rtol):
    """Interior points of the cubic Hermite interpolant on one step, spaced
    so that linear interpolation between consecutive samples stays within
    the step's error norm: (step fractions, states)."""
    y0, f0, y1, f1 = (np.asarray(v, dtype=float) for v in (y0, f0, y1, f1))
    d = y1 - y0
    # |p''| is linear in the step fraction, so its maximum sits at an end
    curv = np.maximum(np.abs(6.0 * d - h * (4.0 * f0 + 2.0 * f1)),
                      np.abs(6.0 * d - h * (2.0 * f0 + 4.0 * f1)))
    sc = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    worst = float(np.sqrt(np.mean((curv / sc) ** 2)))
    if not worst > 8.0:  # one piece suffices (also catches NaN)
        return np.empty(0), np.empty((0, y0.size))
    pieces = min(math.ceil(math.sqrt(worst / 8.0)), _MAX_PIECES)
    s = np.arange(1, pieces)[:, None] / pieces
    states = ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * y0 + s * (1.0 - s) ** 2 * (h * f0)
              + s * s * (3.0 - 2.0 * s) * y1 + s * s * (s - 1.0) * (h * f1))
    return s[:, 0], states


def _when(t: float, t_next: float | None) -> str:
    if t_next is None:
        return f"at t = {t:.4f} s"
    return f"between t = {t:.4f} and {t_next:.4f} s"


def _hermite_extrema(y0, f0, y1, f1, h):
    """Per-component minimum and maximum of the cubic Hermite interpolant of
    each step (one row per step, ``h`` a column of step sizes), in closed
    form: the extrema lie at the step's ends or at the roots in (0, 1) of
    the cubic's quadratic derivative.  Non-finite input gives NaN."""
    m0, m1, d = h * f0, h * f1, y1 - y0
    # p(s) = y0 + s*m0 + s^2*c2 + s^3*c3, so p'(s) = m0 + 2*c2*s + 3*c3*s^2
    c2 = 3.0 * d - 2.0 * m0 - m1
    c3 = m0 + m1 - 2.0 * d
    a, b = 3.0 * c3, 2.0 * c2
    lo, hi = np.minimum(y0, y1), np.maximum(y0, y1)
    with np.errstate(all="ignore"):
        # roots q/a and m0/q without cancellation; m0/q is the root of the
        # linear derivative when a vanishes.  A root that is complex or
        # outside (0, 1) becomes s = 0, where p is y0, or NaN if any
        # coefficient is not finite
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * m0), b))
        for s in (q / a, m0 / q):
            s = np.where((s > 0.0) & (s < 1.0), s, 0.0)
            p = y0 + s * (m0 + s * (c2 + s * c3))
            lo, hi = np.minimum(lo, p), np.maximum(hi, p)
    return lo, hi


def integrate(
    ode: OdeSystem,
    x0: Sequence[float],
    events: Sequence[LoadEvent] = (),
    t_span: tuple[float, float] = (0.0, 60.0),
    opts: IntegrateOptions | None = None,
) -> Trajectory:
    """Adaptive integration through load steps: Dormand-Prince 5(4), with an
    automatic switch to Rodas4 once the problem shows stiffness.

    The integration restarts exactly at each event time.  Every segment
    starts on DP45 until Hairer's stiffness test (:func:`_looks_stiff` on
    15 tests without 6 calm ones in between) fires; then the linearly
    implicit Rodas4 step takes over, with a fresh exact Jacobian
    (``ode.jacobian(y)``, which every system passed in must provide) per
    accepted step.  After 100 accepted Rodas4 steps, or at the segment's
    end if that comes first, the switch is judged: if Rodas4 spent more RHS
    calls than DP45 at its stability limit would have, each Jacobian
    charged at the 2*dim calls of a central-difference one, the
    call rolls back to the switch point, resumes DP45 exactly where it left
    off and pauses the stiffness test for ten times the overspend, counted
    in DP45 steps; otherwise it stays on Rodas4 for the rest of the call.
    Divergence (any MG frequency or ILC DC voltage beyond its bound, a
    non-finite state or a DC-bus collapse) truncates the trajectory and sets
    the flag; a filter angle reaching |eta| >= pi/2 aborts with
    :class:`AngleOutOfRange`.  The loop screens every step endpoint, all a
    DP45 step is screened on; after it, each Rodas4 step is screened on the
    closed-form extrema of its cubic Hermite interpolant, and the first step
    that fails ends the trajectory.  Then ``opts.dense`` (the default)
    inserts samples of that cubic inside each kept Rodas4 step, dense enough
    that linear interpolation between them stays within the step's
    tolerance; without it, :attr:`Trajectory.envelope` holds the extrema.
    """
    opts = opts or IntegrateOptions()
    t0, t_end = map(float, t_span)
    if not -math.inf < t0 < t_end < math.inf:
        raise ValidationError("t_span must be finite and increasing")
    y = list(map(float, x0))
    if len(y) != ode.dim or not all(map(math.isfinite, y)):
        raise ValidationError(f"x0 must hold {ode.dim} finite values")
    for name, ok in (("rtol", 0.0 <= opts.rtol < math.inf),
                     ("atol_scale", 0.0 < opts.atol_scale < math.inf),
                     ("max_step", opts.max_step > 0.0)):
        if not ok:
            raise ValidationError(f"{name} out of range: {getattr(opts, name)!r}")
    events = tuple(events)
    for earlier, later in zip(events, events[1:]):
        if later.time < earlier.time:
            raise ValidationError("events must be sorted by time")
    for ev in events:
        if not (0 <= ev.mg < ode.net.n_mgs):
            raise ValidationError(f"event references MG {ev.mg + 1}")

    atol = [a * opts.atol_scale for a in ode.state_atols]
    atol_vec = np.array(atol)
    scales = list(ode.state_scales)
    rtol = opts.rtol
    # from the models, not ode.base_loads: duck-typed systems carry only models
    loads = [m.p_load for m in ode.models]

    # divergence bounds (MG frequencies, then ILC DC voltages) and filter
    # angles, found by state name
    bound_checks: list[tuple[int, float, str]] = []
    eta_indices = []
    for idx, label in enumerate(ode.state_names):
        owner, _, name = label.partition(".")
        if owner.startswith("mg") and name == "omega":
            bound_checks.append((idx, _OMEGA_BOUND, label))
        elif owner.startswith("ilc") and name == "vdc":
            unit = ode.units[int(owner.removeprefix("ilc")) - 1]
            bound_checks.append((idx, _VDC_BOUND_FRAC * unit.physical.v_dc_ref, label))
        elif name.startswith("eta"):
            eta_indices.append(idx)

    # the step endpoints, appended to flat buffers of floats, and of each
    # Rodas4 step the index of its start, its size and its end rates
    dim = ode.dim
    ts = array("d", [t0])
    ys = array("d", y)
    stiff_starts = array("q")
    stiff_h = array("d")
    stiff_rates = array("d")
    reason: str | None = None

    def violation(y, t, t_next=None) -> str | None:
        """Why ``y`` ends the trajectory, or None: ``y`` is the state at ``t``
        or, given ``t_next``, the largest magnitude of each state over the
        step from ``t`` to ``t_next``.  A filter angle at pi/2 raises."""
        for idx in eta_indices:
            if abs(y[idx]) >= math.pi / 2:
                raise AngleOutOfRange(
                    f"{ode.state_names[idx]} = {y[idx]:.4f} rad {_when(t, t_next)}")
        for idx, limit, label in bound_checks:
            if abs(y[idx]) > limit:
                return f"{label} exceeded {limit:g} {_when(t, t_next)}"
        if not all(math.isfinite(v) for v in y):
            return f"non-finite state {_when(t, t_next)}"
        return None

    # event boundaries split the horizon into constant-load segments
    boundaries: list[float] = []
    pending = [ev for ev in events if t0 < ev.time < t_end]
    for ev in pending:
        if not boundaries or ev.time > boundaries[-1]:
            boundaries.append(ev.time)
    boundaries.append(t_end)
    # apply events that fire at or before the start
    for ev in events:
        if ev.time <= t0:
            loads[ev.mg] += ev.delta_p_load

    rhs_calls = 0
    current_loads = tuple(loads)

    def f(tt, yy):
        nonlocal rhs_calls
        rhs_calls += 1
        return ode.derivative(tt, yy, current_loads)

    accepted = rejected = jacobian_calls = rollbacks = 0
    stiff_from: float | None = None
    streak = calm = 0  # stiffness tests above / below the bound
    quiet_until = 0  # back-off after a failed Rodas4 trial
    switch: _Switch | None = None  # set while Rodas4 is on trial
    t = t0
    segment_start = t0
    for boundary in boundaries:
        for ev in events:
            if segment_start == ev.time and ev.time > t0:
                loads[ev.mg] += ev.delta_p_load

        current_loads = tuple(loads)
        if switch is not None:
            # the switch fired on the last step of the previous segment
            stiff_from = switch = None
            streak = calm = 0

        try:
            h, k1 = _initial_step(f, t, y, scales, opts.max_step)
        except DcVoltageCollapse:
            # the DC bus cannot collapse at an in-bounds accepted state;
            # only proceed if even the smallest step fails
            raise StepSizeUnderflow(f"DC bus collapse at segment start t = {t:g} s")
        jac = None
        while t < boundary:
            h = min(h, boundary - t, opts.max_step)
            if h < 1e-14 * max(1.0, abs(t)):
                raise StepSizeUnderflow(f"step size {h:g} at t = {t:g} s")
            stiff = stiff_from is not None
            try:
                if not stiff:
                    y_new, k7, err_norm, k6, y6 = _dp45_step(f, t, y, k1, h, atol, rtol)
                else:
                    if jac is None:
                        jac = ode.jacobian(y)
                        jacobian_calls += 1
                    y_new, k7, err_norm = _rodas4_step(f, t, y, k1, jac, h, atol_vec, rtol)
            except (DcVoltageCollapse, ValueError, OverflowError, np.linalg.LinAlgError):
                # a trial stage overshot (bus collapse, float overflow or a
                # singular stage matrix); reject and shrink
                rejected += 1
                h *= 0.2
                continue
            # step-size exponent 1/(embedded order + 1) and growth cap per method
            exponent, growth = (0.25, 6.0) if stiff else (0.2, 5.0)
            if err_norm > 1.0:
                rejected += 1
                h *= max(0.2, min(1.0, 0.9 * err_norm ** -exponent))
                continue
            accepted += 1
            if stiff:
                jac = None
                stiff_starts.append(len(ts) - 1)
                stiff_h.append(h)
                stiff_rates.extend(k1)
                stiff_rates.extend(k7)
            elif accepted >= quiet_until and (streak or accepted % _STIFF_EVERY == 0):
                if _looks_stiff(h, k6, k7, y6, y_new, scales):
                    streak += 1
                    calm = 0
                    if streak == _STIFF_STREAK:
                        stiff_from = float(t + h)
                else:
                    calm += 1
                    if calm == 6:
                        streak = 0
            t += h
            y = y_new
            k1 = k7
            ts.append(t)
            ys.extend(y)
            reason = violation(y, t)
            if reason is not None:
                break
            h_done = h
            factor = growth if err_norm == 0.0 else min(growth, 0.9 * err_norm ** -exponent)
            h *= max(0.2, factor)
            if switch is None:
                if stiff_from is not None and not stiff:  # the test just fired
                    switch = _Switch(t, y, k1, h, len(ts), len(stiff_starts), accepted,
                                     rejected, rhs_calls, jacobian_calls, h_done)
                continue
            if accepted - switch.accepted < _TRIAL_STEPS and t < boundary:
                continue
            # DP45 pinned at its stability limit takes 6 RHS calls per step;
            # a Jacobian is charged the 2*dim calls of a central-difference one
            spent = (rhs_calls - switch.rhs_calls
                     + 2 * dim * (jacobian_calls - switch.jacobian_calls))
            overspend = spent - 6 * (t - switch.t) / switch.dp45_step
            if overspend > 0:
                # Rodas4 cost more than DP45 would have: resume DP45 at the
                # switch
                t, y, k1, h = switch.t, switch.y, switch.k1, switch.h
                accepted, rejected = switch.accepted, switch.rejected
                del ts[switch.endpoints:], ys[switch.endpoints * dim:]
                del stiff_starts[switch.stiff_steps:], stiff_h[switch.stiff_steps:]
                del stiff_rates[switch.stiff_steps * 2 * dim:]
                stiff_from = None
                streak = calm = 0
                rollbacks += 1
                quiet_until = accepted + _RETRY_FACTOR * overspend / 6
            switch = None
        if reason is not None:
            break
        segment_start = boundary

    t_out = np.frombuffer(ts)
    y_out = np.frombuffer(ys).reshape(-1, dim)
    starts = np.frombuffer(stiff_starts, dtype=np.int64)
    steps = np.frombuffer(stiff_h)
    rates = np.frombuffer(stiff_rates).reshape(-1, 2, dim)
    lo, hi = _hermite_extrema(y_out[starts], rates[:, 0], y_out[starts + 1], rates[:, 1],
                              steps[:, None])
    # the screen of violation(), on the larger magnitude of each Rodas4
    # step's extrema
    peak = np.maximum(np.abs(lo), np.abs(hi))
    bound_cols = [idx for idx, _, _ in bound_checks]
    bound_limits = np.array([limit for _, limit, _ in bound_checks])
    with np.errstate(invalid="ignore"):
        fails = ~(np.all(peak[:, eta_indices] < math.pi / 2, axis=1)
                  & np.all(peak[:, bound_cols] <= bound_limits, axis=1)
                  & np.all(np.isfinite(peak), axis=1))
    if np.any(fails):
        k = int(np.argmax(fails))
        i = int(starts[k])
        reason = violation(peak[k].tolist(), t_out[i], t_out[i + 1])
        t_out, y_out = t_out[: i + 2], y_out[: i + 2]
        starts, steps, rates, lo, hi = (v[: k + 1] for v in (starts, steps, rates, lo, hi))
    envelope = None
    if opts.dense:
        # each kept Rodas4 step's samples go in after its start
        ts, ys, done = array("d"), array("d"), 0
        for i, h, (f0, f1) in zip(starts.tolist(), steps.tolist(), rates):
            fractions, states = _hermite_samples(y_out[i], f0, y_out[i + 1], f1, h,
                                                 atol_vec, rtol)
            ts.frombytes(t_out[done : i + 1].tobytes())
            ys.frombytes(y_out[done : i + 1].tobytes())
            ts.frombytes((t_out[i] + fractions * h).tobytes())
            ys.frombytes(states.tobytes())
            done = i + 1
        ts.frombytes(t_out[done:].tobytes())
        ys.frombytes(y_out[done:].tobytes())
        t_out, y_out = np.frombuffer(ts), np.frombuffer(ys).reshape(-1, dim)
    else:
        envelope = (np.minimum(y_out[:-1], y_out[1:]), np.maximum(y_out[:-1], y_out[1:]))
        envelope[0][starts], envelope[1][starts] = lo, hi

    return Trajectory(
        t=t_out,
        y=y_out,
        ode=ode,
        events=events,
        truncated=reason is not None,
        truncation_reason=reason,
        stats=IntegrationStats(accepted, rejected, rhs_calls, jacobian_calls, stiff_from,
                               rollbacks),
        envelope=envelope,
    )
