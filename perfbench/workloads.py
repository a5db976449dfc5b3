"""The three workloads: set-up, one operation, and the correctness checks.

All calls into the package go through module attributes (``engine.integrate``
rather than a name bound at import), so that the tracer's wrappers see them.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from multigrid_ilc import analysis, engine, scenario, svg, sweep

import oracles
from inputs import SIM_ROUND


@dataclass
class Outcome:
    index: int          # which of the workload's distinct operations ran
    start: float
    end: float
    result: Any = None
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Table:
    """The full boundary table on the two-MG scenario; one operation is one
    table, and correctness is judged per cell."""

    calibrated = False

    def __init__(self, inputs: dict, seed: int, workers: int, out_dir: Path):
        self.inputs, self.seed, self.workers = inputs, seed, workers

    def setup(self) -> None:
        self.resolved = scenario.resolve(self.inputs["scenario"])
        scenario.build_system(self.resolved)

    def size(self) -> int:
        return 1

    def run(self, index: int, workers: int | None = None):
        return sweep.table3_harness(self.resolved, workers=workers or self.workers)

    def check(self, outcomes: list[Outcome]) -> tuple[int, int, list[str]]:
        """Every table with a result is checked; a repeat whose result was
        dropped (see ``measure``) counts the failures of the first."""
        cells = len(sweep.TABLE3_ROWS) * 4
        attempted = failed = 0
        first_bad = None
        messages: list[str] = []
        for out in outcomes:
            attempted += cells
            if out.error:
                failed += cells
                messages.append(out.error)
            elif out.result is None:
                failed += first_bad or 0
            else:
                bad, msgs = oracles.check_table(self.resolved, out.result, self.seed)
                first_bad = bad if first_bad is None else first_bad
                failed += bad
                messages += msgs
        return attempted, failed, messages


class Simulate:
    """Long-horizon trajectories from a zero state, each followed by the
    CSV and SVG export of ``multigrid-ilc simulate``."""

    calibrated = False

    def __init__(self, inputs: dict, seed: int, workers: int, out_dir: Path):
        self.inputs = inputs
        self.out_dir = out_dir / "simulate"

    def setup(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.bundles = [scenario.build_system(scenario.resolve(doc))
                        for doc in self.inputs["scenarios"]]

    def size(self) -> int:
        return len(self.bundles)

    def run(self, index: int) -> dict:
        b = self.bundles[index]
        traj = engine.integrate(b.ode, [0.0] * b.ode.dim, b.events, (0.0, b.t_end),
                                b.options)
        traj.to_csv(self.out_dir / f"{b.name}-trajectory.csv", pu_base=b.omega_nominal)
        t = traj.t.tolist()
        svg.write_svg(self.out_dir / f"{b.name}-frequencies.svg",
                      [svg.Series(f"MG{j + 1}", t, traj.omega(j).tolist())
                       for j in range(b.network.n_mgs)],
                      "time (s)", "frequency deviation (rad/s)",
                      title=f"{b.name}: MG frequencies")
        svg.write_svg(self.out_dir / f"{b.name}-dc-voltages.svg",
                      [svg.Series(f"ILC{l + 1}", t, traj.vdc(l).tolist())
                       for l in range(b.network.n_ilcs)],
                      "time (s)", "DC voltage deviation (V)",
                      title=f"{b.name}: DC-bus voltages")
        marks = {}
        for mark in sorted({ev.time for ev in b.events if 0.0 < ev.time < b.t_end}) + [b.t_end]:
            k = int(np.argmin(np.abs(traj.t - mark)))
            if abs(traj.t[k] - mark) <= 1e-9 * max(1.0, mark):
                marks[mark] = traj.y[k].copy()
        return {"marks": marks, "truncated": traj.truncated,
                "reason": traj.truncation_reason, "sim_s": float(traj.t[-1] - traj.t[0])}

    def check(self, outcomes: list[Outcome]) -> tuple[int, int, list[str]]:
        verdicts: dict[int, str | None] = {}
        for out in outcomes:
            if out.error or out.index in verdicts:
                continue
            b = self.bundles[out.index]
            if out.result["truncated"]:
                verdicts[out.index] = f"truncated: {out.result['reason']}"
            else:
                verdicts[out.index] = oracles.check_trajectory(b, out.result["marks"])
        return _per_op(outcomes, verdicts, [b.name for b in self.bundles])


class Certify:
    """Per-scheme passivity certificates plus the closed-loop spectrum."""

    # certificates take tens of milliseconds, far shorter than the host's
    # speed phases, so a kernel sample beside them sees the same speed
    calibrated = True

    def __init__(self, inputs: dict, seed: int, workers: int, out_dir: Path):
        self.inputs, self.seed = inputs, seed

    def setup(self) -> None:
        self.grid = analysis.default_grid(self.inputs["grid_points"])
        self.bundles = [scenario.build_system(scenario.resolve(doc))
                        for doc in self.inputs["scenarios"]]

    def size(self) -> int:
        return len(self.bundles)

    def run(self, index: int) -> dict:
        b = self.bundles[index]
        unit = b.units[0]
        lin = analysis.linearize_unit(unit)
        report = analysis.passivity_sweep(lin, self.grid)
        obs = analysis.observability_report(lin)
        eq = engine.find_equilibrium(b.ode, loads=[m.p_load for m in b.models])
        abscissa = analysis.spectral_abscissa(analysis.linearize_closed_loop(b.ode, eq))
        if unit.scheme == "dual-freq-droop-1":
            analysis.single_vsc_dc_chain(unit)
        return {"lin": lin, "report": report, "verdicts": {
            "passivity": report.verdict,
            "observable": obs.observable,
            "input_observable": obs.input_observable,
            "closed_loop_stable": abscissa < -oracles.ABSCISSA_MARGIN,
        }}

    def check(self, outcomes: list[Outcome]) -> tuple[int, int, list[str]]:
        reference = oracles.certify_reference() if self.seed == 0 else None
        verdicts: dict[int, str | None] = {}
        for out in outcomes:
            if out.error or out.index in verdicts:
                continue
            msg = oracles.check_certificate(out.result["lin"], out.result["report"])
            scheme = self.bundles[out.index].units[0].scheme
            if msg is None and reference and out.result["verdicts"] != reference[scheme]:
                msg = f"verdicts {out.result['verdicts']} differ from {reference[scheme]}"
            verdicts[out.index] = msg
        return _per_op(outcomes, verdicts, [b.name for b in self.bundles])


def _per_op(outcomes, verdicts, names) -> tuple[int, int, list[str]]:
    """Every operation counts; it fails when it raised or when its distinct
    input failed the oracle."""
    failed = 0
    messages = []
    for out in outcomes:
        if out.error:
            failed += 1
            messages.append(f"{names[out.index]}: {out.error}")
        elif verdicts.get(out.index):
            failed += 1
    messages += [f"{names[i]}: {msg}" for i, msg in sorted(verdicts.items()) if msg]
    return len(outcomes), failed, messages


WORKLOADS = {"table": Table, "simulate": Simulate, "certify": Certify}
# operations a timed run completes at least, whatever --seconds says: a whole
# simulate round, so every run has the same mix, and enough certificates
# for a p90 with ten samples beyond it
MIN_OPS = {"table": 1, "simulate": len(SIM_ROUND), "certify": 100}
# operations in each of the untraced and traced passes of a --trace 1 run
TRACE_OPS = {"table": 1, "simulate": 5, "certify": 144}


def run_one(workload, index: int, **kwargs) -> Outcome:
    t0 = perf_counter()
    try:
        result = workload.run(index, **kwargs)
    except Exception:  # an operation failure is counted, not fatal
        return Outcome(index, t0, perf_counter(),
                       error=traceback.format_exc(limit=3).strip().splitlines()[-1])
    return Outcome(index, t0, perf_counter(), result)


def measure(workload, seconds: float, min_ops: int, probe=None) -> list[Outcome]:
    """Cycle through the workload's operations until ``seconds`` have passed
    and at least ``min_ops`` operations completed; with a probe, host-speed
    samples are taken before, between (see ``SpeedProbe.sample_if_due``)
    and after them.  Only the first result of each distinct operation is
    kept (the oracles check that one), so memory does not grow with the run
    length."""
    outcomes: list[Outcome] = []
    seen: set[int] = set()
    if probe:
        probe.sample()
    start = perf_counter()
    while len(outcomes) < min_ops or perf_counter() - start < seconds:
        out = run_one(workload, len(outcomes) % workload.size())
        if out.index in seen:
            out.result = None
        seen.add(out.index)
        outcomes.append(out)
        if probe:
            probe.sample_if_due()
    if probe:
        probe.sample()
    return outcomes


def serial_table(conn, resolved: dict) -> None:
    """Child-process entry: the table untraced at one worker, with each
    cell's wall time; sends (start, end, cell seconds, table) back."""
    cell_times: list[float] = []
    run_cell = sweep._run_cell

    def timed_cell(args):
        t0 = perf_counter()
        try:
            return run_cell(args)
        finally:
            cell_times.append(perf_counter() - t0)

    sweep._run_cell = timed_cell
    t0 = perf_counter()
    table = sweep.table3_harness(resolved, workers=1)
    conn.send((t0, perf_counter(), cell_times, table))
    conn.close()

