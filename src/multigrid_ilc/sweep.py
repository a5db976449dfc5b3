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
monotone along the swept interval; accepted brackets are re-verified
spectrally.  The ``table3`` harness runs the whole scheme-by-parameter
boundary table on the shipped two-MG scenario and reports the published
reference values alongside.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import linearize_closed_loop, spectral_abscissa
from .engine import IntegrateOptions, LoadEvent, find_equilibrium, integrate
from .errors import NonBracketing, NumericalError, ValidationError
from .ilc import GFL, SCHEME
from .scenario import build_system, set_parameter

STABLE = "stable"
UNSTABLE = "unstable"
INDETERMINATE = "indeterminate"

_ABSCISSA_MARGIN = 1e-6


@dataclass(frozen=True)
class Classification:
    verdict: str
    abscissa: float | None
    cause: str
    sim_peak: float | None = None
    sim_tail: float | None = None


@dataclass(frozen=True)
class SweepRequest:
    """One boundary search over a single parameter path."""

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


@dataclass(frozen=True)
class BoundaryResult:
    value: float | None
    status: str  # "boundary" | "stable-throughout" | "unstable-throughout"
    bracket: tuple[float, float] | None
    probes: tuple[tuple[float, str, float | None], ...]  # (value, verdict, abscissa)


def classify_stability(
    resolved: dict,
    disturbance_frac: float = 0.01,
    horizon: float = 60.0,
    sim_rtol: float = 1e-6,
) -> Classification:
    """Classify one resolved scenario configuration.

    The scenario's own event list is ignored; the standardized disturbance
    is applied instead so classifications are comparable across sweeps.
    """
    bundle = build_system(resolved)
    ode = bundle.ode
    try:
        eq0 = find_equilibrium(ode)
    except NumericalError as exc:
        return Classification(UNSTABLE, None, f"no-equilibrium: {exc}")
    absc = spectral_abscissa(linearize_closed_loop(ode, eq0))
    if not (absc < -_ABSCISSA_MARGIN):
        return Classification(UNSTABLE, absc, "spectral abscissa above margin")

    t_event = 1.0
    step = -disturbance_frac * bundle.rating(0)
    events = (LoadEvent(time=t_event, mg=0, delta_p_load=step),)
    # the step cap keeps the settling tail sampled once the integrator has
    # switched to large stiff steps
    opts = IntegrateOptions(rtol=sim_rtol, atol_scale=10.0, max_step=horizon / 30.0)
    try:
        traj = integrate(ode, eq0.x, events, (0.0, t_event + horizon), opts)
    except NumericalError as exc:
        return Classification(INDETERMINATE, absc, f"simulation aborted: {exc}")
    if traj.truncated:
        return Classification(
            INDETERMINATE, absc, f"simulation diverged: {traj.truncation_reason}"
        )
    stepped = list(ode.base_loads)
    stepped[0] += step
    try:
        eq1 = find_equilibrium(ode, loads=stepped, guess=traj.final_state)
    except NumericalError as exc:
        return Classification(INDETERMINATE, absc, f"no post-step equilibrium: {exc}")
    dev = np.max(
        np.abs(traj.y - eq1.x[None, :]) / ode.state_scales[None, :], axis=1
    )
    post = traj.t >= t_event
    t_post = traj.t[post]
    d_post = dev[post]
    third = t_event + horizon / 3.0
    peak = float(np.max(d_post[t_post <= third]))
    tail = float(np.max(d_post[t_post >= t_event + 2.0 * horizon / 3.0]))
    floor = 1e-9
    if tail <= max(peak, floor):
        return Classification(STABLE, absc, "spectral and simulation agree",
                              sim_peak=peak, sim_tail=tail)
    return Classification(
        INDETERMINATE, absc,
        "simulation deviation grew while spectrum predicts decay",
        sim_peak=peak, sim_tail=tail,
    )


def _midpoint(lo: float, hi: float, log: bool) -> float:
    return math.sqrt(lo * hi) if log else 0.5 * (lo + hi)


def bisect_boundary(req: SweepRequest) -> BoundaryResult:
    """Locate the stability boundary of one parameter by bisection.

    ``min-stable`` searches for the smallest stable value (stable at the
    high end); ``max-stable`` for the largest (stable at the low end).
    When both endpoints classify the same way there is no bracket: the
    result is "stable-throughout" (boundary beyond the searched range) or
    "unstable-throughout".  Indeterminate probes count as not-stable, so
    the reported boundary is always a verified-stable value.
    """
    probes: list[tuple[float, str, float | None]] = []

    def classify_at(value: float) -> str:
        cls = classify_stability(set_parameter(req.resolved, req.path, value))
        probes.append((value, cls.verdict, cls.abscissa))
        return cls.verdict

    lo_v = classify_at(req.lo)
    hi_v = classify_at(req.hi)
    stable_end_is_hi = req.direction == "min-stable"
    stable_end = hi_v if stable_end_is_hi else lo_v
    other_end = lo_v if stable_end_is_hi else hi_v
    if stable_end != STABLE:
        if other_end != STABLE:
            return BoundaryResult(None, "unstable-throughout", None, tuple(probes))
        # stable only at the "wrong" end: the direction does not match
        raise NonBracketing(
            f"{req.path}: stable at the {'low' if not stable_end_is_hi else 'high'} "
            "end only; direction does not match"
        )
    if other_end == STABLE:
        value = req.lo if stable_end_is_hi else req.hi
        return BoundaryResult(value, "stable-throughout", None, tuple(probes))

    lo, hi = req.lo, req.hi
    while hi - lo > req.tol:
        mid = _midpoint(lo, hi, req.log)
        if not (lo < mid < hi):
            break
        verdict = classify_at(mid)
        mid_stable = verdict == STABLE
        if mid_stable == stable_end_is_hi:
            hi = mid
        else:
            lo = mid
    # re-verify the accepted bracket spectrally
    for value, want_stable in ((lo, not stable_end_is_hi), (hi, stable_end_is_hi)):
        bundle = build_system(set_parameter(req.resolved, req.path, value))
        try:
            eq = find_equilibrium(bundle.ode)
            absc = spectral_abscissa(linearize_closed_loop(bundle.ode, eq))
            got_stable = absc < -_ABSCISSA_MARGIN
        except NumericalError:
            got_stable = False
        if got_stable != want_stable:
            raise NonBracketing(
                f"{req.path}: bracket endpoint {value:g} failed re-verification"
            )
    boundary = hi if stable_end_is_hi else lo
    return BoundaryResult(boundary, "boundary", (lo, hi), tuple(probes))


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

KDC_INTERVAL = (0.0, 1.0)
KDC_TOL = 0.01
TAU_INTERVAL = (0.01, 5.0)
TAU_TOL = 0.01
L_INTERVAL = (1e-5, 2e-3)
L_TOL = 1e-5
GAIN_SPAN = 100.0  # gain cells sweep [1x, 100x] the catalogue default


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

    def to_csv(self, path) -> None:
        cols = [c for c in ("min_kdc", "max_tau", "max_gain", "min_l_mh")
                if all(c in row for row in self.rows)]
        with open(path, "w", encoding="utf-8") as handle:
            header = ["scheme"]
            for col in cols:
                header += [col, f"{col}_paper"]
            handle.write(",".join(header) + "\n")
            for row in self.rows:
                out = [row["scheme"]]
                for col in cols:
                    cell = row[col]
                    out += [cell.display, cell.paper]
                handle.write(",".join(out) + "\n")

    def to_text(self) -> str:
        cols = [c for c in ("min_kdc", "max_tau", "max_gain", "min_l_mh")
                if all(c in row for row in self.rows)]
        table = [["scheme"] + [t for c in cols for t in (c, "paper " + c)]]
        for row in self.rows:
            line = [row["scheme"]]
            for col in cols:
                cell = row[col]
                line += [cell.display, cell.paper]
            table.append(line)
        widths = [max(len(r[i]) for r in table) + 2 for i in range(len(table[0]))]
        return "\n".join(
            "".join(value.ljust(width) for value, width in zip(line, widths)).rstrip()
            for line in table
        )


def _scale_gains(resolved: dict, fields: Sequence[str], factor: float) -> dict:
    out = resolved
    for name in fields:
        for l, block in enumerate(resolved["ilcs"]):
            out = set_parameter(out, f"ilc[{l + 1}].gains.{name}",
                                block["gains"][name] * factor)
    return out


def _gain_cell(resolved: dict, row: dict) -> Cell:
    fields = row["gain"]
    base = resolved["ilcs"][0]["gains"][fields[0]]
    probes = []

    def classify_scale(scale: float) -> str:
        cls = classify_stability(_scale_gains(resolved, fields, scale))
        probes.append((scale, cls.verdict, cls.abscissa))
        return cls.verdict

    if classify_scale(1.0) != STABLE:
        return Cell(row["scheme"], "max_gain", "unstable-throughout", None,
                    "unstable at default", row["paper"]["max_gain"], tuple(probes))
    if classify_scale(GAIN_SPAN) == STABLE:
        return Cell(row["scheme"], "max_gain", "stable-throughout", GAIN_SPAN,
                    f"any reasonable (<= {GAIN_SPAN:g}x)", row["paper"]["max_gain"],
                    tuple(probes))
    lo, hi = 1.0, GAIN_SPAN
    while hi / lo > 1.1:
        mid = math.sqrt(lo * hi)
        if classify_scale(mid) == STABLE:
            lo = mid
        else:
            hi = mid
    value = base * lo
    return Cell(row["scheme"], "max_gain", "boundary", value,
                f"{row['gain_label']}={value:.3g}", row["paper"]["max_gain"],
                tuple(probes))


def _boundary_cell(resolved: dict, row: dict, column: str) -> Cell:
    scheme = resolved["ilcs"][0]["scheme"]
    if column == "min_kdc":
        req = SweepRequest(resolved, "ilc.K_dc", *KDC_INTERVAL,
                           direction="min-stable", tol=KDC_TOL)
    elif column == "max_tau":
        req = SweepRequest(resolved, "ilc.tau", *TAU_INTERVAL,
                           direction="max-stable", tol=TAU_TOL)
    else:  # min_l_mh
        if SCHEME[scheme].port == GFL:
            return Cell(scheme, column, "not-applicable", None, "n/a",
                        row["paper"]["min_l_mh"])
        req = SweepRequest(resolved, "ilc.L", *L_INTERVAL,
                           direction="min-stable", tol=L_TOL)
    result = bisect_boundary(req)
    if result.status == "stable-throughout":
        if column == "min_kdc":
            display = f"{req.lo:.2f}"
        elif column == "max_tau":
            display = f">{req.hi:g}"
        else:
            display = f"<={req.lo * 1e3:.2f} mH"
        return Cell(scheme, column, result.status, result.value, display,
                    row["paper"][column], result.probes)
    if result.status == "unstable-throughout":
        return Cell(scheme, column, result.status, None, "unstable throughout",
                    row["paper"][column], result.probes)
    if column == "min_l_mh":
        display = f"{result.value * 1e3:.2f} mH"
    else:
        display = f"{result.value:.2f}"
    return Cell(scheme, column, result.status, result.value, display,
                row["paper"][column], result.probes)


def _scheme_scenario(resolved: dict, scheme: str) -> dict:
    """Re-point every ILC of the base scenario at one scheme, with catalogue
    gains re-resolved for that scheme."""
    import copy

    from .scenario import resolve

    raw = copy.deepcopy(resolved)
    for block in raw["ilcs"]:
        block["scheme"] = scheme
        block.pop("gains", None)
        block["gains"] = {}
    return resolve(raw)


def _run_cell(args: tuple) -> tuple:
    resolved, row, column = args
    scenario = _scheme_scenario(resolved, row["scheme"])
    if column == "max_gain":
        cell = _gain_cell(scenario, row)
    else:
        cell = _boundary_cell(scenario, row, column)
    return (row["scheme"], column, cell)


@lru_cache(maxsize=None)
def _source_digest() -> str:
    """sha256 over the package's Python source."""
    digest = hashlib.sha256()
    package = Path(__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_key(args: tuple) -> str:
    """Content hash of a cell request, the code that computes it and the
    sweep constants it depends on, so a cache never serves a cell computed
    by other code or settings.  The source digest covers the disturbance,
    whose settings are literal defaults of :func:`classify_stability`; the
    module constants are read at call time, so they enter the key as well."""
    resolved, row, column = args
    constants = [KDC_INTERVAL, KDC_TOL, TAU_INTERVAL, TAU_TOL, L_INTERVAL, L_TOL,
                 GAIN_SPAN, _ABSCISSA_MARGIN]
    blob = json.dumps([_source_digest(), constants, resolved, row["scheme"], column],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def worker_count(requested: int | None = None) -> int:
    cap = os.environ.get("MULTIGRID_ILC_THREADS")
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        raise ValidationError(
            f"MULTIGRID_ILC_THREADS must be an integer, got {cap!r}"
        ) from None
    if requested is not None:
        limit = min(limit, requested)
    return max(1, limit)


def table3_harness(
    resolved: dict,
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    columns: Sequence[str] = ("min_kdc", "max_tau", "max_gain", "min_l_mh"),
    rows: Sequence[dict] = TABLE3_ROWS,
) -> SweepTable:
    """Run every scheme-by-parameter cell of the boundary table.

    Cells run as independent jobs (process pool when more than one worker
    is available) and are cached by a content hash of the cell request and
    the code, so an interrupted run resumes where it left off.  Individual
    cell failures, a crashed worker included, are recorded as error cells
    and never cached; the harness continues.
    """
    jobs = [(resolved, row, column) for row in rows for column in columns]
    cache = Path(cache_dir) if cache_dir else None
    if cache:
        cache.mkdir(parents=True, exist_ok=True)

    results: dict[tuple[str, str], Cell] = {}
    pending = []
    for job in jobs:
        if cache:
            stash = cache / f"{_cache_key(job)}.json"
            if stash.exists():
                payload = json.loads(stash.read_text())
                results[(payload["scheme"], payload["column"])] = Cell(**{
                    **payload, "probes": tuple(map(tuple, payload["probes"]))
                })
                continue
        pending.append(job)

    def store(scheme: str, column: str, cell: Cell, job) -> None:
        results[(scheme, column)] = cell
        if cache and cell.status != "error":
            payload = {
                "scheme": cell.scheme, "column": cell.column, "status": cell.status,
                "value": cell.value, "display": cell.display, "paper": cell.paper,
                "probes": [list(p) for p in cell.probes],
            }
            (cache / f"{_cache_key(job)}.json").write_text(json.dumps(payload))

    n_workers = worker_count(workers)
    if n_workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(_run_cell_safe, job) for job in pending]
            for job, future in zip(pending, futures):
                try:
                    outcome = future.result()
                except BrokenProcessPool as exc:
                    # a worker died: every cell not finished by then is
                    # lost, the finished ones are kept
                    outcome = _error_outcome(job, exc)
                store(*outcome, job)
    else:
        for job in pending:
            scheme, column, cell = _run_cell_safe(job)
            store(scheme, column, cell, job)

    out_rows = []
    for row in rows:
        entry: dict = {"scheme": row["scheme"]}
        for column in columns:
            entry[column] = results[(row["scheme"], column)]
        out_rows.append(entry)
    return SweepTable(rows=tuple(out_rows))


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
