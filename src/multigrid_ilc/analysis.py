"""Frequency-domain analysis: linearization, passivity sweeps, observability.

Passivity of a linearized port model G(s) is certified on a dense
log-spaced frequency grid: at every grid point the smallest eigenvalue of
the Hermitian part G(jw) + G(jw)* must not drop below -eps_rel * ||G(jw)||.
This replaces an LMI feasibility test with a direct sweep; the verdict also
records whether any diagonal entry's real part goes (and stays) negative
towards high frequency, the tell-tale of an excessive relative degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .engine import (
    EquilibriumPoint,
    OdeSystem,
    finite_difference_jacobian,
    scales_and_atols,
)
from .errors import SingularResolvent, ValidationError
from .ilc import GFM, IlcUnit, ilc_derivative, ilc_output, unit_state_names
from .linear import LinearSystem, transfer_matrix
from .mg import MgModel, mg_derivative

__all__ = [
    "LinearSystem",
    "transfer_matrix",
    "default_grid",
    "linearize_unit",
    "linearize_mg",
    "linearize_closed_loop",
    "passivity_sweep",
    "PassivityReport",
    "RationalTransfer",
    "single_vsc_dc_chain",
    "VscChain",
    "observability_report",
    "ObservabilityReport",
    "spectral_abscissa",
]

_COND_FLAG_LIMIT = 1e12


def default_grid(n_points: int = 400, w_min: float = 1e-2, w_max: float = 1e4) -> np.ndarray:
    """Log-spaced frequency grid (rad/s) used by all sweeps."""
    return np.logspace(math.log10(w_min), math.log10(w_max), n_points)


def _split_jacobian(f_aug: Callable, x0: np.ndarray, scales, n: int, p: int):
    jac = finite_difference_jacobian(f_aug, x0, np.asarray(scales))
    a = jac[:n, :n]
    b = jac[:n, n:]
    c = jac[n:, :n]
    d = jac[n:, n:]
    flags = ()
    if n and np.linalg.cond(a) > _COND_FLAG_LIMIT:
        flags = ("ill-conditioned-jacobian",)
    return a, b, c, d, flags


def linearize_unit(
    unit: IlcUnit,
    state: Sequence[float] | None = None,
    inputs: tuple[float, float] = (0.0, 0.0),
) -> LinearSystem:
    """Linearize one ILC about an equilibrium (default: the origin, where the
    DC voltage sits at its nominal value).

    Ports follow the passivity convention: grid-following and partial units
    take inputs (omega1, omega2) and emit (-p1, -p2); grid-forming units
    take (-p1, -p2) and emit (omega1, omega2).  ``inputs`` are the
    equilibrium port inputs in that same convention.
    """
    names = unit_state_names(unit)
    n = len(names)
    x_state = np.zeros(n) if state is None else np.asarray(state, dtype=float)
    x_eq = np.concatenate([x_state, np.asarray(inputs, dtype=float)])
    gfm = unit.port_kind == GFM
    if gfm:
        in_labels, out_labels = ("-p1", "-p2"), ("omega1", "omega2")
    else:
        in_labels, out_labels = ("omega1", "omega2"), ("-p1", "-p2")
    scales, _ = scales_and_atols(unit, names + in_labels)

    def f_aug(z):
        x, u = tuple(z[:n]), (z[n], z[n + 1])
        raw = (-u[0], -u[1]) if gfm else u
        rates = ilc_derivative(unit, x, raw)
        outs = ilc_output(unit, x, raw)
        return np.array(rates + outs)

    a, b, c, d, flags = _split_jacobian(f_aug, x_eq, scales, n, 2)
    return LinearSystem(
        a=a, b=b, c=c, d=d,
        state_labels=names, input_labels=in_labels, output_labels=out_labels,
        flags=flags,
    )


def linearize_mg(model: MgModel) -> LinearSystem:
    """Finite-difference linearization of an MG model (input p, output omega)."""
    names = model.state_names
    n = len(names)
    scales, _ = scales_and_atols(model, names + ("p",))

    def f_aug(z):
        rates = mg_derivative(model, tuple(z[:n]), z[n], p_load=0.0)
        return np.array(rates + (z[0],))

    a, b, c, d, flags = _split_jacobian(f_aug, np.zeros(n + 1), scales, n, 1)
    return LinearSystem(
        a=a, b=b, c=c, d=d,
        state_labels=names, input_labels=("p",), output_labels=("omega",),
        flags=flags,
    )


def linearize_closed_loop(
    ode: OdeSystem, eq: EquilibriumPoint | None = None
) -> LinearSystem:
    """Linearize the assembled interconnection about an equilibrium.

    The result has no ports (inputs are the frozen load levels); it is the
    object whose spectral abscissa certifies local stability.
    """
    if eq is None:
        x0 = np.zeros(ode.dim)
        loads = ode.base_loads
    else:
        x0 = np.asarray(eq.x, dtype=float)
        loads = eq.loads

    def f(x):
        return np.asarray(ode.derivative(0.0, list(x), loads))

    a = finite_difference_jacobian(f, x0, ode.state_scales)
    flags = ()
    if np.linalg.cond(a) > _COND_FLAG_LIMIT:
        flags = ("ill-conditioned-jacobian",)
    return LinearSystem(
        a=a,
        b=np.zeros((ode.dim, 0)),
        c=np.zeros((0, ode.dim)),
        d=np.zeros((0, 0)),
        state_labels=ode.state_names,
        flags=flags,
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
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(header) + "\n")
            for i, w in enumerate(self.omegas):
                row = [w, self.min_eigs[i]] + list(self.diag_real[i])
                handle.write(",".join(repr(float(v)) for v in row) + "\n")


def passivity_sweep(
    lin: LinearSystem,
    grid: np.ndarray | None = None,
    eps_rel: float = 1e-9,
) -> PassivityReport:
    """Sweep min eig of G(jw) + G(jw)* over the grid and classify.

    Verdict: ``non-passive`` when some point dips below -eps_rel*||G||;
    ``marginal`` when the worst point lies within the +-eps_rel band;
    ``passive`` otherwise.
    """
    if lin.n_inputs != lin.n_outputs:
        raise ValidationError("passivity sweep needs a square port map")
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    omegas, min_eigs, g_norms, diag_real, skipped = [], [], [], [], []
    for w in grid:
        try:
            g = transfer_matrix(lin, float(w))
        except SingularResolvent:
            skipped.append(float(w))
            continue
        h = g + g.conj().T
        eigs = np.linalg.eigvalsh(h)
        omegas.append(float(w))
        min_eigs.append(float(eigs[0]))
        g_norms.append(float(np.linalg.norm(g, 2)))
        diag_real.append(np.real(np.diag(g)))
    if not omegas:
        raise SingularResolvent("every grid point collided with an eigenvalue")
    omegas_arr = np.array(omegas)
    min_eigs_arr = np.array(min_eigs)
    g_norms_arr = np.array(g_norms)
    diag_arr = np.array(diag_real)

    floor = np.maximum(g_norms_arr, 1e-300)
    margins = min_eigs_arr / floor
    worst = int(np.argmin(margins))
    if np.any(min_eigs_arr < -eps_rel * g_norms_arr):
        verdict = "non-passive"
    elif margins[worst] <= eps_rel:
        verdict = "marginal"
    else:
        verdict = "passive"

    tails = []
    for k in range(diag_arr.shape[1]):
        negative = diag_arr[:, k] < 0.0
        if negative[-1]:
            start = len(negative)
            while start > 0 and negative[start - 1]:
                start -= 1
            tails.append((k, float(omegas_arr[start])))
    return PassivityReport(
        omegas=omegas_arr,
        min_eigs=min_eigs_arr,
        g_norms=g_norms_arr,
        diag_real=diag_arr,
        verdict=verdict,
        worst_omega=float(omegas_arr[worst]),
        worst_margin=float(margins[worst]),
        negative_diag_tail=tuple(tails),
        skipped=tuple(skipped),
        eps_rel=eps_rel,
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
        if self.den.size == 0 or not np.any(self.den):
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
    if coeffs.size == 0:
        return coeffs
    top = float(np.max(np.abs(coeffs)))
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
    cv = phys.c * phys.v_dc_ref
    kv = phys.k_dc * phys.v_dc_ref
    # the equalizing integrator integrates the droop-weighted mismatch, so
    # the integral path from omega2 carries the droop gain as well
    freq_to_p1 = RationalTransfer(
        num=[-g.k_omega2, -g.k_i * g.k_omega2],
        den=np.polymul([phys.tau1, 1.0], [1.0, 0.0]),
    )
    p1_to_vdc = RationalTransfer(num=[-1.0], den=[cv, kv])
    pi_num = np.array([g.k_pdc, g.k_idc])
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
    out = mat.copy()
    for i in range(out.shape[0]):
        norm = np.linalg.norm(out[i])
        if norm > 0:
            out[i] /= norm
    return out


def observability_report(lin: LinearSystem, n_samples: int = 32) -> ObservabilityReport:
    """Rank of the stacked observability matrix and of the Rosenbrock pencil
    [sI-A, -B; C, D] at log-spaced imaginary-axis samples.

    Blocks are row/column normalized before the SVD so that widely scaled
    physical units do not mask rank deficiencies.
    """
    n = lin.n_states
    blocks = []
    block = lin.c.copy()
    for _ in range(n):
        blocks.append(_normalize_rows(block))
        block = block @ lin.a
    obs = np.vstack(blocks) if blocks else np.zeros((0, n))
    obs_rank = int(np.linalg.matrix_rank(obs)) if obs.size else 0

    m = lin.n_inputs
    ranks = []
    for w in default_grid(n_samples):
        pencil = np.block(
            [
                [1j * w * np.eye(n) - lin.a, -lin.b],
                [lin.c.astype(complex), lin.d.astype(complex)],
            ]
        )
        for col in range(pencil.shape[1]):
            norm = np.linalg.norm(pencil[:, col])
            if norm > 0:
                pencil[:, col] /= norm
        ranks.append((float(w), int(np.linalg.matrix_rank(pencil))))
    return ObservabilityReport(
        obs_rank=obs_rank,
        n_states=n,
        rosenbrock_ranks=tuple(ranks),
        n_columns=n + m,
    )


def spectral_abscissa(lin: LinearSystem | np.ndarray) -> float:
    """Max real part of the eigenvalues of A."""
    a = lin.a if isinstance(lin, LinearSystem) else np.asarray(lin, dtype=float)
    if a.size == 0:
        return -math.inf
    return float(np.max(np.real(np.linalg.eigvals(a))))
