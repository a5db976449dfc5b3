"""Frequency-domain analysis: linearization, passivity sweeps, observability.

Passivity of a linearized port model G(s) is certified on a dense
log-spaced frequency grid: at every grid point the smallest eigenvalue of
the Hermitian part G(jw) + G(jw)* must not drop below -1e-9 * ||G(jw)||.
The verdict also records whether any diagonal entry's real part goes (and
stays) negative towards high frequency, the tell-tale of an excessive
relative degree.

The sweep works on whole stacks over the grid: the jw I - A stack built
in place in one buffer, one batched resolvent solve, one C X matrix
product over every frequency's columns, then one closed-form pass over the
2x2 entries (ports have 1 or 2 channels) that gives each point's smallest
eigenvalue of G + G*, ||G(jw)||_2 from the largest eigenvalue of the Gram
matrix G* G, and Re diag G, with no per-point eigen-solve or SVD.  Points
where jw hits an eigenvalue of A or the response overflows are skipped;
they are found point by point only when the batched solve fails or when
one sum shows that G is not finite.

The imaginary-axis Rosenbrock ranks are read off one transfer stack, as n +
rank G(jw), wherever G clearly has full rank; only the other samples (a
nearly singular 2x2 map, an irregular point) get an SVD of their pencil.
A column of [B; D] that is exactly +- another is dropped first, so a port
driven by one signal is ranked as a one-channel port.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import EquilibriumPoint, OdeSystem, ilc_jacobian, law_jacobian, write_csv
from .errors import NumericalError, ValidationError
from .ilc import GFM, IlcUnit, unit_state_names
from .linear import LinearSystem, transfer_stack
from .mg import MgModel

# the passivity verdict's tolerance band around zero, in units of ||G||
_EPS_REL = 1e-9
# the frequency grid's span (rad/s)
_GRID_W_MIN = 1e-2
_GRID_W_MAX = 1e4


def default_grid(n_points: int = 400) -> np.ndarray:
    """Log-spaced frequency grid (rad/s) from 1e-2 to 1e4, used by all sweeps."""
    if n_points < 1:
        raise ValidationError(f"a frequency grid needs at least 1 point, got {n_points}")
    try:
        return np.logspace(math.log10(_GRID_W_MIN), math.log10(_GRID_W_MAX), n_points)
    except (ValueError, MemoryError) as exc:  # numpy refuses the size
        raise ValidationError(f"a frequency grid of {n_points} points: {exc}") from exc


# the imaginary-axis samples (rad/s) of the Rosenbrock ranks
_ROSENBROCK_OMEGAS = default_grid(32)
_ROSENBROCK_OMEGAS.flags.writeable = False
# a 2x2 port map's cancellation ratio above which its rank is read as full
_RANK_SCREEN = 1e-9


def linearize_unit(
    unit: IlcUnit,
    state: Sequence[float] | None = None,
    inputs: tuple[float, float] = (0.0, 0.0),
) -> LinearSystem:
    """Linearize one ILC about an equilibrium (default: the origin, where the
    DC voltage sits at its nominal value), from the exact Jacobian derived
    from the scheme's law.

    Ports follow the passivity convention: grid-following and partial units
    take inputs (omega1, omega2) and emit (-p1, -p2); grid-forming units
    take (-p1, -p2) and emit (omega1, omega2).  ``inputs`` are the
    equilibrium port inputs in that same convention.
    """
    names = unit_state_names(unit)
    n = len(names)
    x = np.zeros(n) if state is None else np.asarray(state, dtype=float)
    u1, u2 = inputs
    if unit.port_kind == GFM:
        in_labels, out_labels = ("-p1", "-p2"), ("omega1", "omega2")
        jac = ilc_jacobian(unit, x, (-u1, -u2))
        jac[:, n:] *= -1.0
    else:
        in_labels, out_labels = ("omega1", "omega2"), ("-p1", "-p2")
        jac = ilc_jacobian(unit, x, (u1, u2))
        jac[n:] *= -1.0
    return LinearSystem(
        a=jac[:n, :n], b=jac[:n, n:], c=jac[n:, :n], d=jac[n:, n:],
        state_labels=names, input_labels=in_labels, output_labels=out_labels,
    )


def mg_linearize(model: MgModel) -> LinearSystem:
    """Exact linearization of one MG with input p (W) and output omega
    (rad/s), compiled from a trace of its law, the equations the engine
    integrates (see ``engine.law_jacobian``); the model is linear, so the
    point does not matter."""
    n = len(model.state_names)
    jac = law_jacobian(f"MG model {type(model).__name__}",
                       lambda tape, y, p: (model.law(y, p), y[0]), n, 1)([0.0] * n, [0.0])
    return LinearSystem(
        a=jac[:n, :n], b=jac[:n, n:], c=jac[n:, :n], d=jac[n:, n:],
        state_labels=model.state_names, input_labels=("p",), output_labels=("omega",),
    )


def linearize_closed_loop(
    ode: OdeSystem, eq: EquilibriumPoint | None = None
) -> LinearSystem:
    """Linearize the assembled interconnection about an equilibrium
    (default: the zero state) with its exact Jacobian.

    The result has no ports (inputs are the frozen load levels); it is the
    object whose spectral abscissa certifies local stability.
    """
    return LinearSystem(
        a=ode.jacobian(np.zeros(ode.dim) if eq is None else np.asarray(eq.x, dtype=float)),
        b=np.zeros((ode.dim, 0)),
        c=np.zeros((0, ode.dim)),
        d=np.zeros((0, 0)),
        state_labels=ode.state_names,
    )


@dataclass(frozen=True)
class PassivityReport:
    """Result of a Hermitian-eigenvalue frequency sweep."""

    omegas: np.ndarray
    min_eigs: np.ndarray
    g_norms: np.ndarray
    diag_real: np.ndarray          # shape (n_points, n_ports)
    verdict: str                   # "passive" | "non-passive" | "marginal"
    worst_omega: float
    worst_margin: float            # min eigenvalue normalized by ||G||
    negative_diag_tail: tuple[tuple[int, float], ...]
    skipped: tuple[float, ...]
    eps_rel: float

    def to_csv(self, path) -> None:
        n_ports = self.diag_real.shape[1]
        header = ["omega", "min_eig"] + [f"diag{k + 1}_re" for k in range(n_ports)]
        write_csv(path, header, [self.omegas, self.min_eigs, self.diag_real])


def _hermitian_eig(top: np.ndarray, bottom: np.ndarray, off: np.ndarray,
                   sign: float) -> np.ndarray:
    """The larger (sign +1) or smaller (sign -1) eigenvalue of each 2x2
    Hermitian matrix [[top, off], [conj(off), bottom]]: mean +- sqrt(dev^2 +
    |off|^2), with mean and dev half the sum and half the difference of the
    diagonal."""
    return 0.5 * (top + bottom) + sign * np.sqrt(
        (0.5 * (top - bottom)) ** 2 + off.real ** 2 + off.imag ** 2)


def _port_forms(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min eig of G + G*, ||G||_2 and Re diag G of each slice of a (k, p, p)
    stack with p <= 2, in closed form.

    A one-channel slice gives 2 Re g and |g|.  A two-channel slice is first
    divided by its largest |g_ij|, so that squaring neither overflows nor
    underflows; then the smallest eigenvalue of its Hermitian part U + U*
    and the largest of its Gram matrix U* U (whose square root is ||U||_2)
    are each one 2x2 Hermitian eigenvalue, and both are scaled back.  The
    absolute error is a few eps ||G||, the class of LAPACK's bound.
    """
    diag_real = np.diagonal(g, axis1=1, axis2=2).real.copy()
    if g.shape[1] == 1:
        return 2.0 * diag_real[:, 0], np.abs(g[:, 0, 0]), diag_real
    # entry by entry: numpy reduces over an axis of length 2 slowly
    mod = np.abs(g)
    scale = np.maximum(np.maximum(mod[:, 0, 0], mod[:, 0, 1]),
                       np.maximum(mod[:, 1, 0], mod[:, 1, 1]))
    scale[scale == 0.0] = 1.0
    u = g / scale[:, None, None]
    re, im = u.real, u.imag
    min_eigs = scale * _hermitian_eig(2.0 * re[:, 0, 0], 2.0 * re[:, 1, 1],
                                      u[:, 0, 1] + u[:, 1, 0].conj(), -1.0)
    # column j of U is (u_0j, u_1j); the Gram entries are their inner products
    sq = re ** 2 + im ** 2
    gram_off = u[:, 0, 0].conj() * u[:, 0, 1] + u[:, 1, 0].conj() * u[:, 1, 1]
    g_norms = scale * np.sqrt(_hermitian_eig(sq[:, 0, 0] + sq[:, 1, 0],
                                             sq[:, 0, 1] + sq[:, 1, 1], gram_off, 1.0))
    return min_eigs, g_norms, diag_real


def passivity_sweep(
    lin: LinearSystem,
    grid: np.ndarray | None = None,
) -> PassivityReport:
    """Sweep min eig of G(jw) + G(jw)* over the grid and classify.

    The port map must be square with 1 or 2 channels: an ILC port has two
    (one per side) and an MG port one.  The grid must be strictly
    increasing, as the diagonal's negative tail is read off its end.  Each
    point's min eig, ||G||_2 and Re diag G come from one closed-form pass
    over the stack (``_port_forms``).  When no point is skipped, the
    report's ``omegas`` is the grid array itself.

    Verdict: ``non-passive`` when some point dips below -_EPS_REL*||G||;
    ``marginal`` when the worst point lies within the +-_EPS_REL band;
    ``passive`` otherwise.  The report records the tolerance as ``eps_rel``.
    """
    if lin.n_inputs != lin.n_outputs:
        raise ValidationError("passivity sweep needs a square port map")
    if lin.n_inputs not in (1, 2):
        raise ValidationError(f"passivity sweep needs a port map with 1 or 2 "
                              f"channels, got {lin.n_inputs}")
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    # strictly increasing from a positive first point to a finite last one:
    # every point is then finite and positive (a nan fails a difference)
    if (grid.ndim != 1 or grid.size == 0 or not grid[0] > 0 or not math.isfinite(grid[-1])
            or not np.all(np.diff(grid) > 0)):
        raise ValidationError("the frequency grid must be a non-empty, strictly "
                              "increasing list of finite positive frequencies")
    g, ok = transfer_stack(lin, grid)
    omegas_arr, skipped = grid, ()
    if not ok.all():
        if not ok.any():
            raise NumericalError("every grid point collided with an eigenvalue")
        skipped = tuple(grid[~ok].tolist())
        omegas_arr, g = grid[ok], g[ok]
    min_eigs_arr, g_norms_arr, diag_arr = _port_forms(g)

    floor = np.maximum(g_norms_arr, 1e-300)
    margins = min_eigs_arr / floor
    worst = int(np.argmin(margins))
    if np.any(min_eigs_arr < -_EPS_REL * g_norms_arr):
        verdict = "non-passive"
    elif margins[worst] <= _EPS_REL:
        verdict = "marginal"
    else:
        verdict = "passive"

    # length of each port's trailing run of negative diagonal real parts
    negative = diag_arr < 0.0
    run = np.where(negative.all(axis=0), len(negative),
                   np.argmin(negative[::-1], axis=0))
    tails = tuple((int(k), float(omegas_arr[-run[k]])) for k in np.flatnonzero(run))
    return PassivityReport(
        omegas=omegas_arr,
        min_eigs=min_eigs_arr,
        g_norms=g_norms_arr,
        diag_real=diag_arr,
        verdict=verdict,
        worst_omega=float(omegas_arr[worst]),
        worst_margin=float(margins[worst]),
        negative_diag_tail=tails,
        skipped=skipped,
        eps_rel=_EPS_REL,
    )


# --- rational transfer functions -------------------------------------------


@dataclass(frozen=True)
class RationalTransfer:
    """Rational transfer function with real coefficient arrays.

    Coefficients are in descending powers of s, numpy-polynomial style.
    """

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "num", _trim(np.asarray(self.num, dtype=float)))
        object.__setattr__(self, "den", _trim(np.asarray(self.den, dtype=float)))
        if not np.any(self.den):
            raise ValidationError("zero denominator")

    def __mul__(self, other: "RationalTransfer") -> "RationalTransfer":
        return RationalTransfer(
            num=np.polymul(self.num, other.num), den=np.polymul(self.den, other.den)
        )

    def evaluate(self, s):
        s = np.asarray(s, dtype=complex)
        return np.polyval(self.num, s) / np.polyval(self.den, s)

    @property
    def relative_degree(self) -> int:
        return (self.den.size - 1) - (self.num.size - 1)


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Strip leading coefficients at most 1e-14 of the largest; all-zero keeps its last."""
    top = float(np.max(np.abs(coeffs), initial=0.0))
    if top == 0.0:
        return coeffs[-1:]
    keep = np.abs(coeffs) > 1e-14 * top
    first = int(np.argmax(keep))
    return coeffs[first:]


@dataclass(frozen=True)
class VscChain:
    """Transfer-function chain of the single-VSC DC-regulation design.

    For the scheme with droop control on side 1 and a pure DC-voltage PI on
    side 2, the response of side-2 power to side-2 frequency factors into
    three stages: frequency-to-power droop at side 1, the open-loop DC bus,
    and the closed PI loop of side 2.  The composed diagonal term has
    relative degree >= 2, hence its real part must go negative: the design
    cannot be passivated.
    """

    freq_to_p1: RationalTransfer    # (-omega2) -> p1
    p1_to_vdc: RationalTransfer     # p1 -> Vdc with the side-2 loop open
    vdc_to_p2: RationalTransfer     # Vdc disturbance -> p2 through the closed PI loop
    freq_to_p2: RationalTransfer    # (-omega2) -> p2 (product of the three)


def single_vsc_dc_chain(unit: IlcUnit) -> VscChain:
    """Build the chain for a ``dual-freq-droop-1`` unit.

    Coefficients are derived from the same DC-bus model the simulator
    integrates, so the composed transfer matches the numeric linearization
    entry (-omega2) -> p2 on the grid.
    """
    if unit.scheme != "dual-freq-droop-1":
        raise ValidationError("the single-VSC chain applies to dual-freq-droop-1")
    g, phys = unit.gains, unit.physical
    cv = phys.C * phys.V_dc_ref
    kv = phys.K_dc * phys.V_dc_ref
    # the equalizing integrator integrates the droop-weighted mismatch, so
    # the integral path from omega2 carries the droop gain as well
    freq_to_p1 = RationalTransfer(
        num=[-g.K_omega2, -g.K_i * g.K_omega2],
        den=np.polymul([phys.tau1, 1.0], [1.0, 0.0]),
    )
    p1_to_vdc = RationalTransfer(num=[-1.0], den=[cv, kv])
    pi_num = np.array([g.K_pdc, g.K_idc])
    bus = np.array([cv, kv])
    den20 = np.polyadd(np.polymul(np.polymul([phys.tau2, 1.0], [1.0, 0.0]), bus), pi_num)
    vdc_to_p2 = RationalTransfer(num=np.polymul(pi_num, bus), den=den20)
    return VscChain(
        freq_to_p1=freq_to_p1,
        p1_to_vdc=p1_to_vdc,
        vdc_to_p2=vdc_to_p2,
        freq_to_p2=freq_to_p1 * p1_to_vdc * vdc_to_p2,
    )


# --- observability ----------------------------------------------------------


@dataclass(frozen=True)
class ObservabilityReport:
    """Linear observability rank plus imaginary-axis Rosenbrock ranks."""

    obs_rank: int
    n_states: int
    rosenbrock_ranks: tuple[tuple[float, int], ...]
    n_columns: int

    @property
    def observable(self) -> bool:
        return self.obs_rank == self.n_states

    @property
    def input_observable(self) -> bool:
        return all(rank == self.n_columns for _, rank in self.rosenbrock_ranks)


def _normalize_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=-1, keepdims=True)
    return mat / np.where(norms > 0, norms, 1.0)


def _full_rank_samples(g: np.ndarray, regular: np.ndarray) -> np.ndarray:
    """Mask of the samples where the (k, p, m) stack G clearly has full rank
    min(p, m): no port, a nonzero one-channel map, or a 2x2 map whose
    cancellation ratio |g11 g22 - g12 g21| / (|g11 g22| + |g12 g21|) is above
    _RANK_SCREEN.  Irregular points and other port shapes are never full."""
    p, m = g.shape[1:]
    if p == 0 and m == 0:
        return regular
    if min(p, m) == 1 and max(p, m) <= 2:
        return regular & np.any(g != 0, axis=(1, 2))
    if (p, m) != (2, 2):
        return np.zeros_like(regular)
    main, cross = g[:, 0, 0] * g[:, 1, 1], g[:, 0, 1] * g[:, 1, 0]
    # 0/0 and inf/inf give nan, which is not above the screen
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.abs(main - cross) / (np.abs(main) + np.abs(cross))
    return regular & (ratio > _RANK_SCREEN)


def _distinct_columns(lin: LinearSystem) -> list[int]:
    """Indices of the columns of [B; D] left after dropping each one that is
    exactly +- an earlier kept one."""
    columns = np.concatenate((lin.b, lin.d)).T.tolist()
    keep: list[int] = []
    for j, col in enumerate(columns):
        neg = [-v for v in col]
        if not any(columns[i] == col or columns[i] == neg for i in keep):
            keep.append(j)
    return keep


def observability_report(lin: LinearSystem) -> ObservabilityReport:
    """Rank of the observability matrix [C; CA; ...; CA^(n-1)], its rows
    normalized so that widely scaled physical units do not mask a rank
    deficiency, and of the Rosenbrock pencil P(jw) = [jwI-A, -B; C, D] at 32
    log-spaced imaginary-axis samples.

    Where jwI - A is regular, the Schur complement gives rank P(jw) = n +
    rank G(jw), so a sample takes n + min(p, m) from one transfer stack when
    G clearly has full rank (``_full_rank_samples``: for a 2x2 port, a
    cancellation ratio above 1e-9).  The screen is wide because near an
    undamped pole the ratio falls towards 0 with the distance to the pole
    while the pencil keeps full rank.  Every other sample (a ratio at or
    below the screen, an irregular point, another port shape) is ranked by
    an SVD of its column-normalized pencil, so each deficient rank comes
    from the SVD.  A well-conditioned G that is tiny against the pencil
    (a 1e-300 output row) thus reads full rank, as it exactly is, where the
    SVD's relative tolerance alone would call the pencil deficient.

    A column of [B; D] that is exactly +- another (``_distinct_columns``) is
    dropped before the transfer stack and the pencils, as it leaves every
    pencil rank unchanged.  A two-channel port driven by one signal, as on
    dual-freq-droop-1, dual-freq-droop-2 and matching, is thus screened as
    the one-channel port it is and takes no pencil SVD.  ``n_columns``
    stays n + m, so such a port is not input observable.
    """
    n, p, m = lin.n_states, lin.n_outputs, lin.n_inputs
    blocks = [lin.c]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ lin.a)
    obs = _normalize_rows(np.vstack(blocks))
    obs_rank = int(np.linalg.matrix_rank(obs)) if obs.size else 0

    keep = _distinct_columns(lin)
    if len(keep) < m:
        lin = LinearSystem(a=lin.a, b=lin.b[:, keep], c=lin.c, d=lin.d[:, keep])

    omegas = _ROSENBROCK_OMEGAS
    ranks = np.full(omegas.size, n + min(p, len(keep)))
    hard = ~_full_rank_samples(*transfer_stack(lin, omegas))
    if np.any(hard):
        pencils = np.empty((np.count_nonzero(hard), n + p, n + len(keep)), dtype=complex)
        pencils[:, :n, :n] = 1j * omegas[hard, None, None] * np.eye(n) - lin.a
        pencils[:, :n, n:] = -lin.b
        pencils[:, n:, :n] = lin.c
        pencils[:, n:, n:] = lin.d
        norms = np.linalg.norm(pencils, axis=1, keepdims=True)
        pencils /= np.where(norms > 0, norms, 1.0)
        ranks[hard] = np.linalg.matrix_rank(pencils)
    return ObservabilityReport(
        obs_rank=obs_rank,
        n_states=n,
        rosenbrock_ranks=tuple(zip(omegas.tolist(), ranks.tolist())),
        n_columns=n + m,
    )


def spectral_abscissa(lin: LinearSystem) -> float:
    """Max real part of the eigenvalues of ``lin.a``; -inf with no state."""
    return float(np.max(np.real(np.linalg.eigvals(lin.a)), initial=-math.inf))
