"""Correctness oracles; every check runs outside the timed region.

Each oracle recomputes what it checks with code of its own (scipy and
numpy), calling the package only to build the model under test:

* table: value inside its searched interval, no error cells, both bracket
  endpoints of every boundary cell re-classified by an independent
  spectral test, and at seed 0 the text byte-identical to the reference;
* simulate: states at every event time and at the final time against a
  tight-tolerance scipy Radau solution, in the ``state_scales`` norm;
* certify: min eig of G(jw)+G(jw)* at sampled grid points from an
  explicit numpy resolvent inverse, and at seed 0 each scheme's verdicts
  against the reference.
"""

from __future__ import annotations

import copy
import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import root

from multigrid_ilc import scenario, sweep

REFERENCE = Path(__file__).resolve().parent / "reference"

ABSCISSA_MARGIN = 1e-6
# searched intervals of the boundary table, by column
INTERVALS = {"min_kdc": (0.0, 1.0), "max_tau": (0.01, 5.0), "min_l_mh": (1e-5, 2e-3)}
PATHS = {"min_kdc": "ilc.K_dc", "max_tau": "ilc.tau", "min_l_mh": "ilc.L"}
GAIN_SPAN = 100.0
# bisection tolerances; max_gain's is the ratio step of its log bisection
TOLERANCES = {"min_kdc": 0.01, "max_tau": 0.01, "min_l_mh": 1e-5, "max_gain": 0.1}
SIM_REL_TOL = 1e-4      # scaled state error allowed against the reference
# reference tolerances: rtol three decades below the scenarios' 1e-7, atol
# two decades below SIM_REL_TOL in the state_scales norm.  A tighter atol
# (1e-8) moves the reference by about 1e-8 in that norm and costs 3-4x the
# time on ieee39-reduced, whose lightly damped 14 rad/s mode bounds the step.
RADAU_RTOL = 1e-10
RADAU_ATOL_SCALED = 1e-6
CERT_SAMPLES = 16
CERT_REL_TOL = 1e-7     # min-eig agreement, relative to ||G(jw)||


# --- table -------------------------------------------------------------------

def _jacobian(f, x: np.ndarray, scales: np.ndarray) -> np.ndarray:
    jac = np.empty((x.size, x.size))
    for i in range(x.size):
        h = 1e-5 * max(scales[i], abs(x[i]))
        step = np.zeros(x.size)
        step[i] = h
        jac[:, i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return jac


def own_abscissa(resolved: dict) -> float | None:
    """Spectral abscissa at the equilibrium found by scipy's hybrid solver,
    or None when no equilibrium is found."""
    bundle = scenario.build_system(resolved)
    ode = bundle.ode
    loads = tuple(m.p_load for m in bundle.models)
    scales = ode.state_scales

    def f(x):
        return np.asarray(ode.derivative(0.0, list(x), loads), dtype=float)

    try:
        sol = root(lambda z: f(z * scales) / scales, np.zeros(ode.dim),
                   method="hybr", options={"xtol": 1e-12})
    except (ArithmeticError, ValueError):
        return None
    if not sol.success:
        return None
    x = sol.x * scales
    return float(np.max(np.linalg.eigvals(_jacobian(f, x, scales)).real))


def scheme_scenario(resolved: dict, scheme: str) -> dict:
    raw = copy.deepcopy(resolved)
    for block in raw["ilcs"]:
        block["scheme"] = scheme
        block["gains"] = {}
    return scenario.resolve(raw)


def _gain_config(base: dict, fields, scale: float) -> dict:
    out = base
    for name in fields:
        for l, block in enumerate(base["ilcs"]):
            out = scenario.set_parameter(out, f"ilc[{l + 1}].gains.{name}",
                                         block["gains"][name] * scale)
    return out


def _spectral_agrees(own: float | None, verdict: str) -> bool:
    """An endpoint's recorded verdict matches the own spectral test.

    ``indeterminate`` means the spectrum said stable and the simulation
    overruled it, so the spectral re-check expects stable there too.
    """
    own_stable = own is not None and own < -ABSCISSA_MARGIN
    return own_stable if verdict in ("stable", "indeterminate") else not own_stable


def check_cell(base: dict, column: str, cell, gain_fields) -> str | None:
    """Why one table cell is wrong, or None.  ``base`` is the cell's scheme
    scenario at catalogue gains."""
    if cell.status == "error":
        return f"error cell: {cell.display}"
    if cell.status in ("not-applicable", "unstable-throughout"):
        return None
    value = cell.value
    if column == "max_gain":
        # the gain bisection runs over a scale factor of the catalogue gain;
        # a boundary cell reports the gain itself, a stable-throughout cell
        # reports the scale (GAIN_SPAN)
        if cell.status == "boundary":
            value /= base["ilcs"][0]["gains"][gain_fields[0]]
        lo, hi = 1.0, GAIN_SPAN
    else:
        lo, hi = INTERVALS[column]
    if not (lo * (1 - 1e-12) <= value <= hi * (1 + 1e-12)):
        return f"value {cell.value!r} outside [{lo:g}, {hi:g}]"
    if cell.status != "boundary":
        return None

    # bracket: the probe at the reported value, and the nearest probe on its
    # unstable side (above for max-columns, below for min-columns)
    upward = column in ("max_tau", "max_gain")
    at = [p for p in cell.probes if math.isclose(p[0], value, rel_tol=1e-12)]
    beyond = [p for p in cell.probes if (p[0] > value if upward else p[0] < value)]
    if not at or not beyond:
        return "bracket endpoints missing from the probes"
    stable_end = at[0]
    other_end = (min if upward else max)(beyond, key=lambda p: p[0])
    if stable_end[1] != "stable" or other_end[1] == "stable":
        return f"bracket {stable_end[:2]} / {other_end[:2]} does not straddle the boundary"
    width = (other_end[0] / value - 1.0) if column == "max_gain" \
        else abs(other_end[0] - value)
    if width > TOLERANCES[column] * (1 + 1e-9):
        return f"bracket width {width:g} above the tolerance {TOLERANCES[column]:g}"
    for probe_value, verdict, recorded in (stable_end, other_end):
        if column == "max_gain":
            config = _gain_config(base, gain_fields, probe_value)
        else:
            config = scenario.set_parameter(base, PATHS[column], probe_value)
        own = own_abscissa(config)
        if not _spectral_agrees(own, verdict):
            return (f"endpoint {probe_value:g} recorded {verdict} "
                    f"(abscissa {recorded}), own abscissa {own}")
    return None


def check_table(resolved: dict, table, seed: int) -> tuple[int, list[str]]:
    """Return (failed cells, messages) for one boundary table."""
    gain_fields = {row["scheme"]: row["gain"] for row in sweep.TABLE3_ROWS}
    failures: dict[tuple[str, str], str] = {}
    for row in table.rows:
        base = scheme_scenario(resolved, row["scheme"])
        for column in ("min_kdc", "max_tau", "max_gain", "min_l_mh"):
            msg = check_cell(base, column, row[column], gain_fields[row["scheme"]])
            if msg:
                failures[(row["scheme"], column)] = msg
    messages = [f"table {s} {c}: {msg}" for (s, c), msg in sorted(failures.items())]
    if seed == 0:
        reference = (REFERENCE / "table3-seed0.txt").read_text(encoding="utf-8")
        got = table.to_text() + "\n"
        if got != reference:
            mismatched = _text_mismatches(got, reference) or {("table", "text")}
            messages.append(f"table text differs from the reference in {sorted(mismatched)}")
            failures.update({cell: "text mismatch" for cell in mismatched})
    return len(failures), messages


def _text_mismatches(got: str, reference: str) -> set[tuple[str, str]]:
    def parse(text):
        lines = [re.split(r"\s{2,}", line.strip()) for line in text.strip().splitlines()]
        header = lines[0]
        return {(line[0], header[k]): line[k] for line in lines[1:]
                for k in range(1, len(header)) if not header[k].startswith("paper")}

    a, b = parse(got), parse(reference)
    return {key for key in set(a) | set(b) if a.get(key) != b.get(key)}


# --- simulate ----------------------------------------------------------------

def radau_marks(bundle) -> dict[float, np.ndarray]:
    """States at every event time and at the final time, from scipy Radau."""
    ode = bundle.ode
    loads = [m.p_load for m in ode.models]
    y = np.zeros(ode.dim)
    t = 0.0
    out = {}
    marks = sorted({ev.time for ev in bundle.events if 0.0 < ev.time < bundle.t_end})
    for mark in marks + [bundle.t_end]:
        frozen = tuple(loads)
        sol = solve_ivp(lambda tt, yy: ode.derivative(tt, yy.tolist(), frozen),
                        (t, mark), y, method="Radau", rtol=RADAU_RTOL,
                        atol=RADAU_ATOL_SCALED * ode.state_scales)
        if not sol.success:
            raise ArithmeticError(f"reference solver failed: {sol.message}")
        y, t = sol.y[:, -1], mark
        out[mark] = y
        for ev in bundle.events:
            if ev.time == mark:
                loads[ev.mg] += ev.delta_p_load
    return out


def check_trajectory(bundle, marks: dict[float, np.ndarray]) -> str | None:
    """``marks`` are the package's states at the same times; None if they
    match the reference."""
    try:
        reference = radau_marks(bundle)
    except ArithmeticError as exc:
        return str(exc)
    scales = bundle.ode.state_scales
    for t, y_ref in reference.items():
        if t not in marks:
            return f"no sample at t = {t:g} s"
        err = float(np.max(np.abs(marks[t] - y_ref) / scales))
        if not err <= SIM_REL_TOL:
            return f"scaled error {err:.3e} at t = {t:g} s"
    return None


# --- certify -----------------------------------------------------------------

def check_certificate(lin, report) -> str | None:
    idx = np.unique(np.linspace(0, report.omegas.size - 1, CERT_SAMPLES).astype(int))
    n = lin.a.shape[0]
    for i in idx:
        w = float(report.omegas[i])
        g = lin.c @ np.linalg.inv(1j * w * np.eye(n) - lin.a) @ lin.b + lin.d
        min_eig = float(np.linalg.eigvalsh(g + g.conj().T)[0])
        tol = CERT_REL_TOL * max(np.linalg.norm(g, 2), 1e-300)
        if not abs(min_eig - report.min_eigs[i]) <= tol:
            return (f"min eig at w = {w:g}: package {report.min_eigs[i]:.6e}, "
                    f"resolvent {min_eig:.6e}")
    return None


def certify_reference() -> dict:
    return json.loads((REFERENCE / "certify-seed0.json").read_text(encoding="utf-8"))
