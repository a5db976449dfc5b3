"""Command-line interface.

Subcommands: ``simulate``, ``linearize``, ``passivity``, ``sweep``,
``table3``.  Exit codes: 0 success, 1 usage error, 2 validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import re
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from . import analysis
from .engine import find_equilibrium, integrate
from .errors import MultigridError, NumericalError, ValidationError
from .scenario import build_system, dump_resolved, load_resolved, shipped_scenario_names
from .svg import Series, write_svg
from .sweep import SweepRequest, bisect_boundary, table3_harness

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_log = logging.getLogger(__name__)


def _cmd_simulate(args) -> int:
    resolved = load_resolved(args.scenario)
    bundle = build_system(resolved)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.dump_config:
        (out / f"{bundle.name}-resolved.json").write_text(
            dump_resolved(resolved), encoding="utf-8"
        )
    marks = [perf_counter()]
    traj = integrate(
        bundle.ode,
        [0.0] * bundle.ode.dim,
        bundle.events,
        (0.0, bundle.t_end),
        bundle.options,
    )
    marks.append(perf_counter())
    csv_path = out / f"{bundle.name}-trajectory.csv"
    traj.to_csv(csv_path, pu_base=bundle.omega_nominal)
    marks.append(perf_counter())
    series = [Series(f"MG{j + 1}", traj.t, traj.omega(j))
              for j in range(bundle.network.n_mgs)]
    write_svg(out / f"{bundle.name}-frequencies.svg", series,
              "time (s)", "frequency deviation (rad/s)",
              title=f"{bundle.name}: MG frequencies")
    marks.append(perf_counter())
    vdc_series = [Series(f"ILC{l + 1}", traj.t, traj.vdc(l))
                  for l in range(bundle.network.n_ilcs)]
    write_svg(out / f"{bundle.name}-dc-voltages.svg", vdc_series,
              "time (s)", "DC voltage deviation (V)",
              title=f"{bundle.name}: DC-bus voltages")
    marks.append(perf_counter())
    _log.debug("simulate %s: %d samples; integrate %.3f s, CSV %.3f s, "
               "frequencies SVG %.3f s, DC-voltages SVG %.3f s", bundle.name,
               len(traj.t), *(b - a for a, b in zip(marks, marks[1:])))
    status = "truncated" if traj.truncated else "completed"
    print(f"{status}: {len(traj.t)} samples to t = {traj.t[-1]:g} s -> {csv_path}")
    if traj.truncated:
        print(f"truncation: {traj.truncation_reason}")
    return EXIT_OK


def _check_index(value: int, count: int, what: str) -> None:
    if not (1 <= value <= count):
        raise ValidationError(f"{what} index {value} out of range 1..{count}")


def _cmd_linearize(args) -> int:
    bundle = build_system(load_resolved(args.scenario))
    if args.ilc is not None:
        _check_index(args.ilc, bundle.network.n_ilcs, "ILC")
        lin = analysis.linearize_unit(bundle.units[args.ilc - 1])
        label = f"ilc{args.ilc}"
    elif args.mg is not None:
        _check_index(args.mg, bundle.network.n_mgs, "MG")
        lin = analysis.mg_linearize(bundle.models[args.mg - 1])
        label = f"mg{args.mg}"
    else:
        lin = analysis.linearize_closed_loop(bundle.ode, find_equilibrium(bundle.ode))
        label = "closed-loop"
    absc = analysis.spectral_abscissa(lin)
    print(f"{label}: {lin.n_states} states, spectral abscissa {absc:.6e}")
    if lin.flags:
        print("flags: " + ", ".join(lin.flags))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, mat in (("A", lin.a), ("B", lin.b), ("C", lin.c), ("D", lin.d)):
            np.savetxt(out / f"{bundle.name}-{label}-{name}.csv", mat, delimiter=",")
        print(f"matrices written to {out}")
    return EXIT_OK


def _cmd_passivity(args) -> int:
    bundle = build_system(load_resolved(args.scenario))
    _check_index(args.ilc, bundle.network.n_ilcs, "ILC")
    unit = bundle.units[args.ilc - 1]
    lin = analysis.linearize_unit(unit)
    grid = analysis.default_grid(args.points)
    report = analysis.passivity_sweep(lin, grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{bundle.name}-ilc{args.ilc}-passivity.csv"
    report.to_csv(csv_path)
    write_svg(
        out / f"{bundle.name}-ilc{args.ilc}-passivity.svg",
        [Series("min eig G(jw)+G(jw)*", report.omegas, report.min_eigs)],
        "frequency (rad/s)", "min Hermitian eigenvalue",
        title=f"{unit.scheme} passivity sweep",
    )
    print(
        f"verdict: {report.verdict} (worst at {report.worst_omega:.6g} rad/s, "
        f"normalized margin {report.worst_margin:.3e})"
    )
    for port, start in report.negative_diag_tail:
        print(f"diagonal {port + 1} real part negative from {start:.6g} rad/s onward")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    resolved = load_resolved(args.scenario)
    req = SweepRequest(
        resolved=resolved, path=args.param, lo=args.lo, hi=args.hi,
        direction=args.direction, tol=args.tol, log=args.log,
    )
    result = bisect_boundary(req)
    print(f"status: {result.status}")
    if result.value is not None:
        print(f"boundary: {result.value:.6g}")
    if result.bracket:
        print(f"bracket: [{result.bracket[0]:.6g}, {result.bracket[1]:.6g}]")
    for value, verdict, absc in result.probes:
        extra = "" if absc is None else f" (abscissa {absc:+.3e})"
        print(f"  probe {value:.6g}: {verdict}{extra}")
    return EXIT_OK


def _cmd_table3(args) -> int:
    resolved = load_resolved(args.scenario)
    table = table3_harness(resolved, workers=args.workers)
    text = table.to_text()
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        table.to_csv(out / "table3.csv")
        (out / "table3.txt").write_text(text + "\n", encoding="utf-8")
        print(f"table written to {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read "-1e-3" as a number, not an option: the default pattern of
        # Python 3.11's argparse matches only the forms "-1" and "-1.5"
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multigrid-ilc",
        description="Simulation and passivity analysis of AC multi-grids "
    "coupled by AC-AC interlinking converters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scen_help = ("scenario file path or shipped name: "
                 + ", ".join(shipped_scenario_names()))

    p = sub.add_parser("simulate", help="integrate a scenario and export CSV/SVG")
    p.add_argument("--scenario", required=True, help=scen_help)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dump-config", action="store_true",
                   help="also write the resolved configuration")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("linearize", help="linearize the closed loop, an ILC, or an MG")
    p.add_argument("--scenario", required=True, help=scen_help)
    one = p.add_mutually_exclusive_group()
    one.add_argument("--ilc", type=int, help="1-based ILC index")
    one.add_argument("--mg", type=int, help="1-based MG index")
    p.add_argument("--out", help="directory for A,B,C,D matrices")
    p.set_defaults(func=_cmd_linearize)

    p = sub.add_parser("passivity", help="frequency-sweep passivity certificate")
    p.add_argument("--scenario", required=True, help=scen_help)
    p.add_argument("--ilc", type=int, required=True, help="1-based ILC index")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--points", type=int, default=400, help="grid points")
    p.set_defaults(func=_cmd_passivity)

    p = sub.add_parser("sweep", help="bisect one stability boundary")
    p.add_argument("--scenario", required=True, help=scen_help)
    p.add_argument("--param", required=True,
                   help="parameter path, e.g. ilc.K_dc or ilc.gains.K_omega")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--direction", choices=("min-stable", "max-stable"),
                   default="min-stable")
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--log", action="store_true",
                   help="bisect in log space; --tol is then a ratio")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table3", help="run the full stability-boundary table")
    p.add_argument("--scenario", default="two-mg", help=scen_help)
    p.add_argument("--out", help="output directory")
    p.add_argument("--workers", type=int, help="parallel worker cap")
    p.set_defaults(func=_cmd_table3)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MultigridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
