"""Out-of-package tracing: spans and counters around the package's layers.

Wrappers are installed at every module binding through which callers
resolve the public functions (``from .engine import integrate`` makes
``sweep.integrate`` a second binding of the same function), so the package
itself is unchanged.  Spans stay in memory until the run ends.  The two hot
inner calls, ``OdeSystem.derivative`` and ``transfer_matrix``, get a call
counter and accumulated time instead of one span per call.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from time import perf_counter

from inputs import SCHEMES

# (module, attribute) of every function that gets a span; attribute
# functions below record extra per-span facts from the call's result
SPAN_TARGETS = (
    ("multigrid_ilc.sweep", "_run_cell"),
    ("multigrid_ilc.sweep", "bisect_boundary"),
    ("multigrid_ilc.sweep", "classify_stability"),
    ("multigrid_ilc.engine", "integrate"),
    ("multigrid_ilc.engine", "find_equilibrium"),
    ("multigrid_ilc.analysis", "linearize_closed_loop"),
    ("multigrid_ilc.analysis", "spectral_abscissa"),
    ("multigrid_ilc.analysis", "linearize_unit"),
    ("multigrid_ilc.analysis", "passivity_sweep"),
    ("multigrid_ilc.analysis", "observability_report"),
    ("multigrid_ilc.analysis", "single_vsc_dc_chain"),
    ("multigrid_ilc.scenario", "build_system"),
    ("multigrid_ilc.scenario", "set_parameter"),
    ("multigrid_ilc.svg", "write_svg"),
)
METHOD_SPANS = (("multigrid_ilc.engine", "Trajectory", "to_csv"),)
COUNTED_METHODS = (("multigrid_ilc.engine", "OdeSystem", "derivative", "rhs"),)
COUNTED_FUNCTIONS = (("multigrid_ilc.linear", "transfer_matrix", "transfer"),)


def _integrate_facts(args, kwargs, out):
    schemes = {unit.scheme for unit in args[0].units}
    return {"steps": len(out.t) - 1, "sim_s": float(out.t[-1] - out.t[0]),
            "scheme": schemes.pop() if len(schemes) == 1 else "mixed"}


def _file_size(args, kwargs, out, position=0):
    return {"bytes": os.path.getsize(args[position])}


FACTS = {
    "integrate": _integrate_facts,
    "classify_stability": lambda a, k, out: {"verdict": out.verdict},
    "_run_cell": lambda a, k, out: {"scheme": a[0][1]["scheme"], "column": a[0][2]},
    "passivity_sweep": lambda a, k, out: {"points": out.omegas.size + len(out.skipped)},
    "to_csv": functools.partial(_file_size, position=1),
    "write_svg": _file_size,
}


class Tracer:
    """Holds spans ``[name, start, end, parent, rhs_at_start, rhs_at_end,
    facts]`` and per-call counters ``[calls, seconds]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        rhs = self.counters.setdefault("rhs", [0, 0.0])
        facts = FACTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   rhs[0], 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[5] = rhs[0]
                stack.pop()
            if facts is not None:
                rec[6] = facts(args, kwargs, out)
            return out

        return wrapper

    def _counted(self, key, fn):
        acc = self.counters.setdefault(key, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[0] += 1
                acc[1] += perf_counter() - t0

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        """Replace every binding of ``original`` in the package's modules."""
        for name, module in list(sys.modules.items()):
            if not name.startswith("multigrid_ilc"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for module, attr in SPAN_TARGETS:
            original = getattr(sys.modules[module], attr)
            self._rebind(original, self._span(attr, original))
        for module, attr, key in COUNTED_FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            self._rebind(original, self._counted(key, original))
        for module, cls_name, attr in METHOD_SPANS:
            cls = getattr(sys.modules[module], cls_name)
            self._undo.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, self._span(attr, vars(cls)[attr]))
        for module, cls_name, attr, key in COUNTED_METHODS:
            cls = getattr(sys.modules[module], cls_name)
            self._undo.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, self._counted(key, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reporting ----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def facts(self, name: str) -> list[dict]:
        return [s[6] for s in self.spans if s[0] == name]

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            out.setdefault(s[3], []).append(i)
        return out

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds (total minus
        the time covered by direct child spans)."""
        kids = self.children()
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            total = s[2] - s[1]
            child = sum(self.spans[c][2] - self.spans[c][1] for c in kids.get(i, ()))
            entry = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += total
            entry["self_s"] += total - child
        return out

    def dump(self, path) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "rhs_at_start",
                       "rhs_at_end", "facts"],
            "spans": self.spans,
            "counters": self.counters,
            "summary": self.summary(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def percentile(values, q: int) -> float:
    """Linear-interpolation percentile, ``q`` a whole number in 1..99."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced pass that took ``wall_s`` seconds.

    Layers that the pass did not exercise report 0.
    """
    rhs_calls, rhs_s = tracer.counters.get("rhs", [0, 0.0])
    tf_calls, tf_s = tracer.counters.get("transfer", [0, 0.0])
    integ = [s for s in tracer.spans if s[0] == "integrate"]
    steps = sum(s[6]["steps"] for s in integ)
    rhs_in_integrate = sum(s[5] - s[4] for s in integ)
    m: dict[str, float] = {
        "engine.rhs_calls": rhs_calls,
        "engine.rhs_us": 1e6 * rhs_s / rhs_calls if rhs_calls else 0.0,
        "engine.steps": steps,
        "engine.rhs_per_step": rhs_in_integrate / steps if steps else 0.0,
        "engine.integrate_s": sum(s[2] - s[1] for s in integ),
        "engine.rhs_share": rhs_s / wall_s if wall_s > 0 else 0.0,
    }
    classify_ids = {i for i, s in enumerate(tracer.spans) if s[0] == "classify_stability"}
    per_scheme: dict[str, list[int]] = {}
    for s in integ:
        if s[3] in classify_ids:
            per_scheme.setdefault(s[6]["scheme"], []).append(s[6]["steps"])
    for scheme in SCHEMES:
        counts = per_scheme.get(scheme, [])
        m[f"engine.steps.{scheme}"] = statistics.median(counts) if counts else 0
    eq = tracer.durations("find_equilibrium")
    m["engine.equilibrium_calls"] = len(eq)
    m["engine.equilibrium_ms"] = 1e3 * _mean(eq)
    m["analysis.linearize_ms"] = 1e3 * _mean(tracer.durations("linearize_closed_loop"))
    m["analysis.abscissa_ms"] = 1e3 * _mean(tracer.durations("spectral_abscissa"))
    m["analysis.linearize_unit_ms"] = 1e3 * _mean(tracer.durations("linearize_unit"))
    sweeps = tracer.durations("passivity_sweep")
    points = sum(f["points"] for f in tracer.facts("passivity_sweep"))
    m["analysis.passivity_ms"] = 1e3 * _mean(sweeps)
    m["analysis.points_per_s"] = points / sum(sweeps) if sweeps else 0.0
    m["analysis.observability_ms"] = 1e3 * _mean(tracer.durations("observability_report"))
    m["linear.transfer_calls"] = tf_calls
    m["linear.transfer_us"] = 1e6 * tf_s / tf_calls if tf_calls else 0.0
    m["engine.csv_ms"] = 1e3 * _mean(tracer.durations("to_csv"))
    m["engine.csv_bytes"] = _mean([f["bytes"] for f in tracer.facts("to_csv")])
    m["svg.write_ms"] = 1e3 * _mean(tracer.durations("write_svg"))
    m["svg.bytes"] = _mean([f["bytes"] for f in tracer.facts("write_svg")])
    builds = tracer.durations("build_system")
    m["scenario.build_calls"] = len(builds)
    m["scenario.build_ms"] = 1e3 * _mean(builds)
    sets = tracer.durations("set_parameter")
    m["scenario.set_parameter_calls"] = len(sets)
    m["scenario.set_parameter_ms"] = 1e3 * _mean(sets)

    kids = tracer.children()
    classify = [(i, tracer.spans[i]) for i in sorted(classify_ids)]
    times = [s[2] - s[1] for _, s in classify]
    spectral_only = sum(
        1 for i, _ in classify
        if not any(tracer.spans[c][0] == "integrate" for c in kids.get(i, ()))
    )
    verdicts = [s[6]["verdict"] for _, s in classify]
    probing_cells = sum(
        1 for i, s in enumerate(tracer.spans)
        if s[0] == "_run_cell" and _has_descendant(tracer, kids, i, "classify_stability")
    )
    m["sweep.classify_calls"] = len(classify)
    m["sweep.classify_p50_ms"] = 1e3 * statistics.median(times) if times else 0.0
    m["sweep.classify_tail_ms"] = 1e3 * percentile(times, 90)
    m["sweep.classify_per_s"] = len(classify) / wall_s if classify and wall_s > 0 else 0.0
    m["sweep.spectral_only_frac"] = spectral_only / len(classify) if classify else 0.0
    for verdict in ("stable", "unstable", "indeterminate"):
        m[f"sweep.verdict.{verdict}"] = verdicts.count(verdict)
    m["sweep.probes_per_cell"] = len(classify) / probing_cells if probing_cells else 0.0
    return m


def _has_descendant(tracer: Tracer, kids, index: int, name: str) -> bool:
    todo = list(kids.get(index, ()))
    while todo:
        i = todo.pop()
        if tracer.spans[i][0] == name:
            return True
        todo.extend(kids.get(i, ()))
    return False


def _layer_units() -> dict[str, tuple[str, str]]:
    """Unit and better direction of every per-layer metric."""
    rows = [
        ("engine.rhs_calls", "count", "lower"),
        ("engine.rhs_us", "us", "lower"),
        ("engine.steps", "count", "lower"),
        ("engine.rhs_per_step", "ratio", "lower"),
        ("engine.integrate_s", "s", "lower"),
        ("engine.rhs_share", "ratio", "lower"),
    ]
    rows += [(f"engine.steps.{scheme}", "count", "lower") for scheme in SCHEMES]
    rows += [
        ("engine.equilibrium_calls", "count", "lower"),
        ("engine.equilibrium_ms", "ms", "lower"),
        ("analysis.linearize_ms", "ms", "lower"),
        ("analysis.abscissa_ms", "ms", "lower"),
        ("analysis.linearize_unit_ms", "ms", "lower"),
        ("analysis.passivity_ms", "ms", "lower"),
        ("analysis.points_per_s", "1/s", "higher"),
        ("analysis.observability_ms", "ms", "lower"),
        ("linear.transfer_calls", "count", "lower"),
        ("linear.transfer_us", "us", "lower"),
        ("engine.csv_ms", "ms", "lower"),
        ("engine.csv_bytes", "B", "lower"),
        ("svg.write_ms", "ms", "lower"),
        ("svg.bytes", "B", "lower"),
        ("scenario.build_calls", "count", "lower"),
        ("scenario.build_ms", "ms", "lower"),
        ("scenario.set_parameter_calls", "count", "lower"),
        ("scenario.set_parameter_ms", "ms", "lower"),
        ("sweep.classify_calls", "count", "lower"),
        ("sweep.classify_p50_ms", "ms", "lower"),
        ("sweep.classify_tail_ms", "ms", "lower"),
        ("sweep.classify_per_s", "1/s", "higher"),
        ("sweep.spectral_only_frac", "ratio", "higher"),
        ("sweep.verdict.stable", "count", "higher"),
        ("sweep.verdict.unstable", "count", "lower"),
        ("sweep.verdict.indeterminate", "count", "lower"),
        ("sweep.probes_per_cell", "count", "lower"),
        ("sweep.cell_p50_s", "s", "lower"),
        ("sweep.cell_max_s", "s", "lower"),
        ("sweep.serial_s", "s", "lower"),
        ("sweep.pool_efficiency", "ratio", "higher"),
        ("sim_rate", "s/s", "higher"),
        ("cert_tail_ms", "ms", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return {name: (unit, better) for name, unit, better in rows}


LAYER_UNITS = _layer_units()


# counts that must repeat exactly between two traced runs on the same seed
EXACT_COUNTS = (
    "engine.rhs_calls",
    "engine.steps",
    "engine.equilibrium_calls",
    "linear.transfer_calls",
    "scenario.build_calls",
    "sweep.classify_calls",
    "sweep.probes_per_cell",
)
STEP_COUNTS = tuple(f"engine.steps.{scheme}" for scheme in SCHEMES)
