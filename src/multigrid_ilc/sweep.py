"""Stability classification and parameter-boundary bisection.

A configuration is classified *stable* only when two pieces of evidence
agree: the spectral abscissa of the closed-loop linearization is below
-1e-6, and a standardized disturbance simulation (a load step of 1 % of
the first MG's rating, 60 s horizon) stays inside the divergence bounds
and settles back toward the post-step equilibrium.  A configuration whose
abscissa is not below the margin is classified unstable; simulation
evidence that contradicts a spectrally stable verdict yields
*indeterminate*.

Boundaries are located by bisection assuming the classification is
monotone along the swept interval.  The bisection runs on the spectral
half alone (:func:`classify_spectrum`); a probe whose spectrum is stable
reads *spectrally-stable* until a simulation confirms it.  The full
classification, simulation included, runs only at the values a result
reports stable: the stable end of the final bracket, both ends of a
stable-throughout interval, and the one stable end of a direction
mismatch.  A confirmation upgrades its probe in place, so no probe reads
stable without a simulation; when one does not confirm, the cell is
bisected again with the full classification at every probe.  The evidence
for each end of the final bracket is the probe recorded there, a full
classification: the reported boundary was classified stable, its
neighbour within the tolerance was not.  The ``table3`` harness runs the
whole scheme-by-parameter boundary table on the shipped two-MG scenario,
every column through one bisection routine, and reports the published
reference values alongside.

Each probe and each confirmation is a DEBUG event on the
``multigrid_ilc.sweep`` logger, and a fallback to the full classification
a WARNING; the package installs no handler.
"""

from __future__ import annotations

import copy
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from .analysis import linearize_closed_loop, spectral_abscissa
from .engine import (EquilibriumPoint, IntegrateOptions, IntegrationStats, LoadEvent,
                     find_equilibrium, integrate)
from .errors import NonBracketing, NumericalError, ValidationError
from .ilc import GFL, SCHEME
from .scenario import SystemBundle, build_system, resolve, set_parameter

STABLE = "stable"
UNSTABLE = "unstable"
INDETERMINATE = "indeterminate"
# a probe whose spectrum is stable and whose simulation has not run
SPECTRALLY_STABLE = "spectrally-stable"

_ABSCISSA_MARGIN = 1e-6

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Classification:
    """A verdict with its evidence.  ``sim_stats`` and ``sim_seconds``
    describe the disturbance simulation when one ran (``sim_stats`` stays
    None when it aborted)."""

    verdict: str
    abscissa: float | None
    cause: str
    sim_peak: float | None = None
    sim_tail: float | None = None
    sim_stats: IntegrationStats | None = None
    sim_seconds: float | None = None


@dataclass(frozen=True)
class SweepRequest:
    """One boundary search over a single parameter path.

    ``tol`` is the width at which bisection stops; a ``log`` search takes it
    as a ratio and stops once ``hi / lo <= 1 + tol``.  A ``gains.<name>``
    path (or bundle) that no addressed ILC's scheme reads is refused.
    """

    resolved: dict
    path: str
    lo: float
    hi: float
    direction: str  # "min-stable" | "max-stable"
    tol: float
    log: bool = False

    def __post_init__(self):
        if self.direction not in ("min-stable", "max-stable"):
            raise ValidationError(f"unknown direction {self.direction!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValidationError("interval bounds must be finite with lo < hi")
        if self.log and self.lo <= 0:
            raise ValidationError("log bisection needs lo > 0")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValidationError(f"tol must be finite and positive, got {self.tol!r}")
        if self.path.partition(".")[2].startswith("gains."):
            # NaN differs from every value, so it marks each field the path
            # sets; a scheme names its gains by the lowercased field
            addressed = [
                (block["scheme"], [k.lower() for k, v in block["gains"].items() if math.isnan(v)])
                for block in set_parameter(self.resolved, self.path, math.nan)["ilcs"]
            ]
            if not any(f in SCHEME[scheme].gains for scheme, fields in addressed for f in fields):
                schemes = ", ".join(dict.fromkeys(s for s, fields in addressed if fields))
                raise ValidationError(
                    f"{self.path}: no addressed ILC's scheme reads this gain ({schemes}); "
                    "sweeping it changes nothing"
                )


@dataclass(frozen=True)
class BoundaryResult:
    value: float | None
    status: str  # "boundary" | "stable-throughout" | "unstable-throughout"
    bracket: tuple[float, float] | None
    probes: tuple[tuple[float, str, float | None], ...]  # (value, verdict, abscissa)


def _spectrum(
    resolved: dict,
) -> tuple[Classification, SystemBundle, EquilibriumPoint | None]:
    """The spectral half of :func:`classify_stability`: the verdict from
    the equilibrium and the closed-loop spectral abscissa, with the system
    and equilibrium a simulation would start from."""
    bundle = build_system(resolved)
    try:
        eq0 = find_equilibrium(bundle.ode)
    except NumericalError as exc:
        return Classification(UNSTABLE, None, f"no-equilibrium: {exc}"), bundle, None
    absc = spectral_abscissa(linearize_closed_loop(bundle.ode, eq0))
    if not (absc < -_ABSCISSA_MARGIN):
        return Classification(UNSTABLE, absc, "spectral abscissa above margin"), bundle, eq0
    return Classification(SPECTRALLY_STABLE, absc, "spectral abscissa below margin"), bundle, eq0


def classify_spectrum(resolved: dict) -> Classification:
    """Classify by the spectral half of :func:`classify_stability` alone:
    an unstable verdict is final, a stable spectrum reads spectrally-stable
    until a simulation confirms it."""
    return _spectrum(resolved)[0]


def classify_stability(resolved: dict) -> Classification:
    """Classify one resolved scenario configuration.

    The scenario's own event list is ignored; the standardized disturbance
    is applied instead so classifications are comparable across sweeps.
    """
    spectral, bundle, eq0 = _spectrum(resolved)
    if spectral.verdict == UNSTABLE:
        return spectral
    ode, absc = bundle.ode, spectral.abscissa

    t_event, horizon = 1.0, 60.0
    step = -0.01 * bundle.rating(0)
    events = (LoadEvent(time=t_event, mg=0, delta_p_load=step),)
    # the step cap keeps the settling tail sampled once the integrator has
    # switched to large stiff steps; the verdict reads only step endpoints
    # and step envelopes, so no dense output
    opts = IntegrateOptions(rtol=1e-6, atol_scale=10.0, max_step=horizon / 30.0,
                            dense=False)
    start = perf_counter()
    try:
        traj = integrate(ode, eq0.x, events, (0.0, t_event + horizon), opts)
    except NumericalError as exc:
        return Classification(INDETERMINATE, absc, f"simulation aborted: {exc}",
                              sim_seconds=perf_counter() - start)
    sim = {"sim_stats": traj.stats, "sim_seconds": perf_counter() - start}
    if traj.truncated:
        return Classification(
            INDETERMINATE, absc, f"simulation diverged: {traj.truncation_reason}", **sim
        )
    stepped = list(ode.base_loads)
    stepped[0] += step
    try:
        eq1 = find_equilibrium(ode, loads=stepped, guess=traj.final_state)
    except NumericalError as exc:
        return Classification(INDETERMINATE, absc, f"no post-step equilibrium: {exc}",
                              **sim)
    # scaled deviation from the post-step equilibrium: the peak from the step
    # endpoints in the first third of the window (it can only under-read),
    # the tail from the envelope of every step that reaches into the last
    # third (it can only over-read), so no verdict is easier than exact
    # maxima would make it
    t, scales, (lo, hi) = traj.t, ode.state_scales, traj.envelope
    early = (t >= t_event) & (t <= t_event + horizon / 3.0)
    peak = float(np.max(np.abs(traj.y[early] - eq1.x) / scales))
    late = t[1:] >= t_event + 2.0 * horizon / 3.0
    tail = float(np.max(np.maximum(hi[late] - eq1.x, eq1.x - lo[late]) / scales))
    floor = 1e-9
    if tail <= max(peak, floor):
        return Classification(STABLE, absc, "spectral and simulation agree",
                              sim_peak=peak, sim_tail=tail, **sim)
    return Classification(
        INDETERMINATE, absc,
        "simulation deviation grew while spectrum predicts decay",
        sim_peak=peak, sim_tail=tail, **sim,
    )


def _simulation_note(cls: Classification) -> str:
    """Whether a simulation backs ``cls`` and, when it ran, what it did."""
    # only the simulation gives stable or indeterminate
    if cls.verdict not in (STABLE, INDETERMINATE):
        return "not simulated"
    note = "simulated"
    if cls.sim_stats is not None:
        s = cls.sim_stats
        note += (f": {s.accepted} accepted and {s.rejected} rejected steps, "
                 f"{s.rhs_calls} RHS and {s.jacobian_calls} Jacobian calls, "
                 f"stiff from {s.stiff_from!r}")
    if cls.sim_seconds is not None:
        note += f", {cls.sim_seconds:.3f} s"
    return note


def bisect_boundary(
    req: SweepRequest, configure: Callable[[float], dict] | None = None
) -> BoundaryResult:
    """Locate the stability boundary of one parameter by bisection.

    ``min-stable`` searches for the smallest stable value (stable at the
    high end); ``max-stable`` for the largest (stable at the low end).
    When both endpoints classify the same way there is no bracket: the
    result is "stable-throughout" (boundary beyond the searched range) or
    "unstable-throughout".  Indeterminate probes count as not-stable, so
    the reported boundary is always a value classified stable, and each
    end of the final bracket is backed by its recorded probe.

    The loop runs on :func:`classify_spectrum` first; then the full
    :func:`classify_stability` runs at each reported end that reads
    spectrally-stable and upgrades its probe in place.  When one of those
    simulations does not confirm ``stable``, the loop reruns with the full
    classification at every probe.

    ``configure`` maps a swept value to the scenario to classify; by
    default it sets ``req.path`` in ``req.resolved``.
    """
    if configure is None:
        def configure(value: float) -> dict:
            return set_parameter(req.resolved, req.path, value)

    def classify_at(classify: Callable[[dict], Classification], value: float):
        cls = classify(configure(value))
        _log.debug("%s=%r: %s (%s), abscissa %r, %s", req.path, value, cls.verdict,
                   cls.cause, cls.abscissa, _simulation_note(cls))
        return cls

    stable_end_is_hi = req.direction == "min-stable"
    for classify in (classify_spectrum, classify_stability):
        probes: list[tuple[float, str, float | None]] = []

        def stable_at(value: float) -> bool:
            cls = classify_at(classify, value)
            probes.append((value, cls.verdict, cls.abscissa))
            return cls.verdict in (STABLE, SPECTRALLY_STABLE)

        lo_stable = stable_at(req.lo)
        hi_stable = stable_at(req.hi)
        stable_end = hi_stable if stable_end_is_hi else lo_stable
        other_end = lo_stable if stable_end_is_hi else hi_stable
        lo, hi = req.lo, req.hi
        if not stable_end:
            status = "unstable-throughout" if not other_end else "non-bracketing"
        elif other_end:
            status = "stable-throughout"
        else:
            status = "boundary"
            while (hi / lo > 1.0 + req.tol) if req.log else (hi - lo > req.tol):
                mid = math.sqrt(lo * hi) if req.log else 0.5 * (lo + hi)
                if not (lo < mid < hi):
                    break
                if stable_at(mid) == stable_end_is_hi:
                    hi = mid
                else:
                    lo = mid

        # confirm by simulation every reported end that only the spectrum
        # called stable
        disagreement = None
        for i, (value, verdict, _) in enumerate(probes):
            if value in (lo, hi) and verdict == SPECTRALLY_STABLE:
                cls = classify_at(classify_stability, value)
                probes[i] = (value, cls.verdict, cls.abscissa)
                if cls.verdict != STABLE:
                    disagreement = (value, cls.cause)
                    break
        if disagreement is None:
            break
        _log.warning("%s %s=%r: simulation does not confirm the spectrum (%s); "
                     "bisecting again with a simulation at every probe",
                     "+".join(dict.fromkeys(b["scheme"] for b in req.resolved["ilcs"])),
                     req.path, *disagreement)

    if status == "non-bracketing":
        # stable only at the "wrong" end: the direction does not match
        raise NonBracketing(
            f"{req.path}: stable at the {'low' if stable_end_is_hi else 'high'} "
            "end only; direction does not match"
        )
    if status == "unstable-throughout":
        return BoundaryResult(None, status, None, tuple(probes))
    if status == "stable-throughout":
        return BoundaryResult(lo if stable_end_is_hi else hi, status, None, tuple(probes))
    return BoundaryResult(hi if stable_end_is_hi else lo, status, (lo, hi), tuple(probes))


# --- the published boundary table -------------------------------------------

# per scheme: gain fields swept together in the "max gain" column, plus the
# published reference values for comparison
TABLE3_ROWS: tuple[dict, ...] = (
    {"scheme": "dual-freq-droop-1", "gain": ("K_omega1", "K_omega2"),
     "gain_label": "K_omega",
     "paper": {"min_kdc": "0.00", "max_tau": "0.07", "max_gain": "K_omega=1e9",
               "min_l_mh": "n/a"}},
    {"scheme": "dual-freq-droop-2", "gain": ("K_omega1", "K_omega2"),
     "gain_label": "K_omega",
     "paper": {"min_kdc": "0.00", "max_tau": "0.08", "max_gain": "any reasonable",
               "min_l_mh": "n/a"}},
    {"scheme": "dual-acdc-droop", "gain": ("K_omega1", "K_omega2"),
     "gain_label": "K_omega",
     "paper": {"min_kdc": "0.00", "max_tau": "0.08", "max_gain": "any reasonable",
               "min_l_mh": "n/a"}},
    {"scheme": "matching", "gain": ("m1", "m2"), "gain_label": "m",
     "paper": {"min_kdc": "0.06", "max_tau": ">5", "max_gain": "m=0.03",
               "min_l_mh": "0.70"}},
    {"scheme": "gfm-freq-droop", "gain": ("m_p1", "m_p2"), "gain_label": "m_p",
     "paper": {"min_kdc": "0.20", "max_tau": "0.09", "max_gain": "m_p=1e-6",
               "min_l_mh": "0.30"}},
    {"scheme": "gfm-dual-droop", "gain": ("m_p1", "m_p2"), "gain_label": "m_p",
     "paper": {"min_kdc": "0.08", "max_tau": "0.50", "max_gain": "m_p=6e-6",
               "min_l_mh": "0.05"}},
    {"scheme": "dual-droop-matching", "gain": ("m1", "K_omega2"),
     "gain_label": "m+K_omega",
     "paper": {"min_kdc": "0.00", "max_tau": ">5", "max_gain": "any reasonable",
               "min_l_mh": "0.01"}},
    {"scheme": "gfl-gfm-dual-droop", "gain": ("m_p1",), "gain_label": "m_p",
     "paper": {"min_kdc": "0.00", "max_tau": ">5", "max_gain": "m_p=9e-6",
               "min_l_mh": "0.01"}},
)

# the gain column's path: one scale factor applied to every gain field of
# the row, each relative to its catalogue value
GAINS = "ilc.gains"
GAIN_SPAN = 100.0  # gain cells sweep [1x, 100x] the catalogue default


@dataclass(frozen=True)
class Column:
    """How one column of the boundary table is swept and shown.

    ``tol`` is a ratio when ``log`` is set.  The two display strings show a
    boundary and a stable-throughout end; they are formatted with ``v``
    (the cell value), ``mh`` (``v`` in millihenry) and ``label`` (the row's
    gain label).
    """

    path: str
    interval: tuple[float, float]
    direction: str
    tol: float
    boundary: str
    throughout: str
    log: bool = False
    gfm_only: bool = False  # not applicable to grid-following ports


COLUMNS: dict[str, Column] = {
    "min_kdc": Column("ilc.K_dc", (0.0, 1.0), "min-stable", 0.01,
                      boundary="{v:.2f}", throughout="{v:.2f}"),
    "max_tau": Column("ilc.tau", (0.01, 5.0), "max-stable", 0.01,
                      boundary="{v:.2f}", throughout=">{v:g}"),
    # a boundary shows the gain itself, a stable-throughout end the scale
    "max_gain": Column(GAINS, (1.0, GAIN_SPAN), "max-stable", 0.1,
                       boundary="{label}={v:.3g}",
                       throughout="any reasonable (<= {v:g}x)", log=True),
    "min_l_mh": Column("ilc.L", (1e-5, 2e-3), "min-stable", 1e-5,
                       boundary="{mh:.2f} mH", throughout="<={mh:.2f} mH",
                       gfm_only=True),
}


@dataclass(frozen=True)
class Cell:
    scheme: str
    column: str  # "min_kdc" | "max_tau" | "max_gain" | "min_l_mh"
    status: str
    value: float | None
    display: str
    paper: str
    probes: tuple = ()


@dataclass
class SweepTable:
    rows: tuple[dict, ...]  # scheme -> {column: Cell}

    def cell(self, scheme: str, column: str) -> Cell:
        for row in self.rows:
            if row["scheme"] == scheme:
                return row[column]
        raise KeyError(scheme)

    def _lines(self, paper_header: str) -> list[list[str]]:
        """The header and one line per scheme: each column's display, then
        its paper value, under the headers ``column`` and
        ``paper_header.format(column)``."""
        cols = [c for c in COLUMNS if all(c in row for row in self.rows)]
        lines = [["scheme"] + [h for c in cols for h in (c, paper_header.format(c))]]
        for row in self.rows:
            lines.append([row["scheme"]]
                         + [t for c in cols for t in (row[c].display, row[c].paper)])
        return lines

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for line in self._lines("{}_paper"):
                handle.write(",".join(line) + "\n")

    def to_text(self) -> str:
        table = self._lines("paper {}")
        widths = [max(len(r[i]) for r in table) + 2 for i in range(len(table[0]))]
        return "\n".join(
            "".join(value.ljust(width) for value, width in zip(line, widths)).rstrip()
            for line in table
        )


def _scheme_scenario(resolved: dict, scheme: str) -> dict:
    """Re-point every ILC of the base scenario at one scheme, with catalogue
    gains re-resolved for that scheme."""
    raw = copy.deepcopy(resolved)
    for block in raw["ilcs"]:
        block["scheme"] = scheme
        block["gains"] = {}
    return resolve(raw)


def _run_cell(args: tuple) -> tuple:
    """One cell of the boundary table: its column's sweep on one scheme."""
    resolved, row, column = args
    scheme, paper, spec = row["scheme"], row["paper"][column], COLUMNS[column]
    if spec.gfm_only and SCHEME[scheme].port == GFL:
        return (scheme, column, Cell(scheme, column, "not-applicable", None, "n/a", paper))
    base = _scheme_scenario(resolved, scheme)
    unit, configure = 1.0, None
    if spec.path == GAINS:
        # the sweep runs over the scale factor; a boundary is reported as the
        # value of the row's first gain field
        fields = row["gain"]
        unit = base["ilcs"][0]["gains"][fields[0]]

        def configure(scale: float) -> dict:
            out = base
            for name in fields:
                for l, block in enumerate(base["ilcs"]):
                    out = set_parameter(out, f"ilc[{l + 1}].gains.{name}",
                                        block["gains"][name] * scale)
            return out

    req = SweepRequest(base, spec.path, *spec.interval, spec.direction, spec.tol,
                       spec.log)
    result = bisect_boundary(req, configure)
    if result.status == "unstable-throughout":
        value, display = None, "unstable throughout"
    else:
        at_boundary = result.status == "boundary"
        value = unit * result.value if at_boundary else result.value
        shown = spec.boundary if at_boundary else spec.throughout
        display = shown.format(v=value, mh=value * 1e3, label=row["gain_label"])
    return (scheme, column,
            Cell(scheme, column, result.status, value, display, paper, result.probes))


def worker_count(requested: int | None = None) -> int:
    cap = os.environ.get("MULTIGRID_ILC_THREADS")
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        limit = 0  # rejected below, like a cap below 1
    if limit < 1:
        raise ValidationError(f"MULTIGRID_ILC_THREADS must be a positive integer, got {cap!r}")
    if requested is not None:
        if requested < 1:
            raise ValidationError(f"worker count must be at least 1, got {requested!r}")
        limit = min(limit, requested)
    return limit


def table3_harness(
    resolved: dict,
    workers: int | None = None,
    columns: Sequence[str] = tuple(COLUMNS),
    rows: Sequence[dict] = TABLE3_ROWS,
) -> SweepTable:
    """Run every scheme-by-parameter cell of the boundary table.

    Cells run as independent jobs (a process pool, never larger than the
    cells to run, when more than one worker is available).  Individual
    cell failures, a crashed worker included, are recorded as error cells;
    the harness continues.
    """
    n_workers = worker_count(workers)
    jobs = [(resolved, row, column) for row in rows for column in columns]
    if n_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
            futures = [pool.submit(_run_cell_safe, job) for job in jobs]
            outcomes = []
            for job, future in zip(jobs, futures):
                try:
                    outcomes.append(future.result())
                except BrokenProcessPool as exc:
                    # a worker died: every cell not finished by then is
                    # lost, the finished ones are kept
                    outcomes.append(_error_outcome(job, exc))
    else:
        outcomes = [_run_cell_safe(job) for job in jobs]

    results = {(scheme, column): cell for scheme, column, cell in outcomes}
    return SweepTable(rows=tuple(
        {"scheme": row["scheme"], **{c: results[(row["scheme"], c)] for c in columns}}
        for row in rows
    ))


def _error_outcome(args: tuple, exc: BaseException) -> tuple:
    _, row, column = args
    return (
        row["scheme"], column,
        Cell(row["scheme"], column, "error", None, f"error: {exc}",
             row["paper"][column]),
    )


def _run_cell_safe(args: tuple) -> tuple:
    try:
        return _run_cell(args)
    except Exception as exc:  # cell failures are recorded, not fatal
        return _error_outcome(args, exc)
