"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  Stated
runtime budgets assume eight workers for the boundary-table harness; on
machines with fewer cores the asserted envelope scales by 8/workers while
the total CPU budget stays the same.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from multigrid_ilc.analysis import (
    default_grid,
    linearize_closed_loop,
    linearize_unit,
    observability_report,
    passivity_sweep,
    single_vsc_dc_chain,
    spectral_abscissa,
    transfer_matrix,
)
from multigrid_ilc.engine import IntegrateOptions, LoadEvent, integrate
from multigrid_ilc.ilc import SCHEMES
from multigrid_ilc.mg import FirstOrderDroop, SwingGovernor, mg_linearize
from multigrid_ilc.scenario import build_system, load_resolved
from multigrid_ilc.sweep import table3_harness, worker_count

from jacobian_reference import mg_port_jacobian, system_jacobian
from model_reference import connection_powers
from test_ilc import unit_for


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


@pytest.fixture(scope="module")
def table3(two_mg_resolved):
    started = time.monotonic()
    workers = worker_count()
    table = table3_harness(two_mg_resolved, workers=workers)
    elapsed = time.monotonic() - started
    budget = 120.0 * 8.0 / workers
    print(f"\ntable3 harness: {elapsed:.1f} s with {workers} worker(s) "
          f"(budget {budget:.0f} s)\n" + table.to_text())
    assert elapsed < budget
    return table


def test_criterion_1_passivity_verdicts():
    t0 = time.monotonic()
    dfd1 = passivity_sweep(linearize_unit(unit_for("dual-freq-droop-1")))
    t_dfd1 = time.monotonic() - t0
    t0 = time.monotonic()
    ddm = passivity_sweep(linearize_unit(unit_for("dual-droop-matching")))
    t_ddm = time.monotonic() - t0
    dfd1_ok = dfd1.verdict == "non-passive" and np.min(dfd1.min_eigs) < 0
    ddm_ok = bool(np.all(ddm.min_eigs >= -1e-9 * ddm.g_norms)) and \
        ddm.verdict == "passive"
    passed = dfd1_ok and ddm_ok and t_dfd1 < 5.0 and t_ddm < 5.0
    assert report(
        "1 passivity verdicts", passed,
        f"dual-freq-droop-1 {dfd1.verdict} (worst {dfd1.worst_margin:.2e} at "
        f"{dfd1.worst_omega:.3g} rad/s, {t_dfd1:.2f} s); dual-droop-matching "
        f"{ddm.verdict} (worst {ddm.worst_margin:.2e}, {t_ddm:.2f} s)",
    )


def test_criterion_2_relative_degree_diagnostic():
    t0 = time.monotonic()
    unit = unit_for("dual-freq-droop-1")
    chain = single_vsc_dc_chain(unit)
    lin = linearize_unit(unit)
    rel_deg = chain.freq_to_p2.relative_degree
    values = chain.freq_to_p2.evaluate(1j * default_grid())
    worst_err = 0.0
    for w in default_grid():
        g = transfer_matrix(lin, float(w))[1, 1]
        worst_err = max(worst_err, abs(chain.freq_to_p2.evaluate(1j * w) - g) / abs(g))
    elapsed = time.monotonic() - t0
    passed = rel_deg >= 2 and float(np.min(values.real)) < 0 and \
        worst_err < 1e-6 and elapsed < 1.0
    assert report(
        "2 relative-degree diagnostic", passed,
        f"relative degree {rel_deg}, min Re {np.min(values.real):.3g}, "
        f"max linearization mismatch {worst_err:.2e}, {elapsed:.2f} s",
    )


def test_criterion_3_equalization_and_sharing(scheme_scenario):
    failures = []
    for scheme in SCHEMES:
        bundle = build_system(scheme_scenario(scheme))
        t0 = time.monotonic()
        traj = integrate(
            bundle.ode, [0.0] * bundle.ode.dim,
            (LoadEvent(1.0, 0, -1e6),), (0.0, 61.0), bundle.options,
        )
        elapsed = time.monotonic() - t0
        gains = bundle.resolved["ilcs"][0]["gains"]
        w1, w2 = traj.omega(0)[-1], traj.omega(1)[-1]
        n1, n2 = gains["K_omega1"] * w1, gains["K_omega2"] * w2
        mismatch = abs(n1 - n2) / max(abs(n1), abs(n2))
        contributions = []
        for j in range(2):
            w = traj.omega(j)[-1]
            p_m = traj.y[-1, bundle.ode.column("mg", j, "p_m")]
            contributions.append(p_m - bundle.models[j].D * w)
        ratio = contributions[0] / contributions[1]
        ok = (not traj.truncated and mismatch < 1e-4
              and abs(ratio - 2.0) / 2.0 < 0.02 and elapsed < 10.0)
        if not ok:
            failures.append(f"{scheme}: mismatch={mismatch:.2e} ratio={ratio:.3f}")
        print(f"  {scheme:22s} mismatch={mismatch:.2e} ratio={ratio:.4f} "
              f"({elapsed:.1f} s)")
    assert report(
        "3 equalization & sharing", not failures,
        "all schemes reach <1e-4 mismatch and 2:1 split within 2%"
        if not failures else "; ".join(failures),
    )


def test_criterion_4_dc_transient_topology(scheme_scenario):
    bundle = build_system(scheme_scenario("dual-freq-droop-1"))
    t0 = time.monotonic()
    peaks = []
    for mg in (0, 1):
        traj = integrate(
            bundle.ode, [0.0] * bundle.ode.dim,
            (LoadEvent(1.0, mg, -1e6),), (0.0, 3.0), bundle.options,
        )
        seg = traj.vdc(0)[traj.t >= 1.0]
        peaks.append(float(seg[np.argmax(np.abs(seg))]))
    elapsed = time.monotonic() - t0
    passed = peaks[0] * peaks[1] < 0 and elapsed < 10.0
    assert report(
        "4 DC transient topology dependence", passed,
        f"initial Vdc excursions {peaks[0]:+.3f} V (step at MG1) vs "
        f"{peaks[1]:+.3f} V (step at MG2), {elapsed:.1f} s",
    )


GFL_SCHEMES = ("dual-freq-droop-1", "dual-freq-droop-2", "dual-acdc-droop")
PARTIAL_SCHEMES = ("dual-droop-matching", "gfl-gfm-dual-droop")
GFM_SCHEMES = ("matching", "gfm-freq-droop", "gfm-dual-droop")


def test_criterion_5a_kdc_trends(table3):
    failures = []
    for scheme in GFL_SCHEMES + PARTIAL_SCHEMES:
        cell = table3.cell(scheme, "min_kdc")
        if not (cell.status == "stable-throughout" and cell.value == 0.0):
            failures.append(f"{scheme}: expected 0.00, got {cell.display}")
    for scheme in GFM_SCHEMES:
        cell = table3.cell(scheme, "min_kdc")
        if not (cell.status == "boundary" and cell.value and cell.value > 0.0):
            failures.append(
                f"{scheme}: expected strictly positive boundary, got {cell.display}"
            )
    for scheme in SCHEMES:
        cell = table3.cell(scheme, "min_kdc")
        print(f"  {scheme:22s} min K_dc {cell.display:>12s}  (published {cell.paper})")
    assert report(
        "5a K_dc trends", not failures,
        "zero for GFL/partial, positive for GFM schemes"
        if not failures else "; ".join(failures),
    )


def test_criterion_5b_tau_trends(table3):
    failures = []
    for scheme in ("matching",) + PARTIAL_SCHEMES:
        cell = table3.cell(scheme, "max_tau")
        if cell.status != "stable-throughout":
            failures.append(f"{scheme}: expected >5 s, got {cell.display}")
    for scheme in GFL_SCHEMES:
        cell = table3.cell(scheme, "max_tau")
        if not (cell.status == "boundary" and cell.value and cell.value < 0.2):
            failures.append(f"{scheme}: expected boundary below 0.2 s, got "
                            f"{cell.display}")
    for scheme in SCHEMES:
        cell = table3.cell(scheme, "max_tau")
        print(f"  {scheme:22s} max tau {cell.display:>12s}  (published {cell.paper})")
    assert report(
        "5b tau trends", not failures,
        "beyond 5 s for matching/partial, below 0.2 s for the GFL family"
        if not failures else "; ".join(failures),
    )


def test_criterion_5c_inductance_ordering(table3):
    ddm = table3.cell("dual-droop-matching", "min_l_mh")
    gfmfd = table3.cell("gfm-freq-droop", "min_l_mh")
    # "stable-throughout" means the boundary lies at or below the interval
    # floor; treat it as the floor value for the ordering comparison
    floor = 1e-5
    ddm_value = ddm.value if ddm.status == "boundary" else floor
    gfmfd_value = gfmfd.value if gfmfd.status == "boundary" else floor
    passed = ddm_value <= gfmfd_value
    for scheme in SCHEMES:
        cell = table3.cell(scheme, "min_l_mh")
        print(f"  {scheme:22s} min L {cell.display:>14s}  (published {cell.paper})")
    assert report(
        "5c inductance ordering", passed,
        f"dual-droop-matching {ddm.display} <= gfm-freq-droop {gfmfd.display}",
    )


def test_table_text_matches_reference(table3):
    """The boundary table's text is the committed seed-0 reference, byte for
    byte, so a refactor that moves any cell shows here."""
    reference = Path(__file__).resolve().parents[1] / "perfbench/reference/table3-seed0.txt"
    assert table3.to_text() + "\n" == reference.read_text(encoding="utf-8")


def test_criterion_6_passivity_implies_stability():
    t0 = time.monotonic()
    counterexamples = []
    fired = 0
    for name in ("two-mg", "three-mg", "ieee39-reduced"):
        bundle = build_system(load_resolved(name))
        mg_strict = all(
            passivity_sweep(mg_linearize(m)).min_eigs.min() > 0
            for m in bundle.models
        )
        ilc_reports = [passivity_sweep(linearize_unit(u)) for u in bundle.units]
        ilc_pr = all(
            bool(np.all(r.min_eigs >= -r.eps_rel * r.g_norms)) for r in ilc_reports
        )
        absc = spectral_abscissa(linearize_closed_loop(bundle.ode))
        verdicts = ",".join(r.verdict for r in ilc_reports)
        print(f"  {name:16s} MG strict-PR={mg_strict} ILC=[{verdicts}] "
              f"abscissa={absc:+.3e}")
        if mg_strict and ilc_pr:
            fired += 1
            if not (absc < 0):
                counterexamples.append(f"{name}: abscissa {absc:+.3e}")
    elapsed = time.monotonic() - t0
    passed = not counterexamples and fired >= 2 and elapsed < 30.0
    assert report(
        "6 passivity implies stability", passed,
        f"{fired} configurations fired the implication, "
        f"{len(counterexamples)} counterexamples, {elapsed:.1f} s",
    )


def test_criterion_7_observability():
    t0 = time.monotonic()
    ddm = observability_report(linearize_unit(unit_for("dual-droop-matching")))
    mg_reports = [
        observability_report(mg_linearize(m))
        for m in (
            FirstOrderDroop(T=1.0, D=2e7),
            SwingGovernor(M=3e7, D=1e4, T_g=0.3, inv_R=4e7),
        )
    ]
    elapsed = time.monotonic() - t0
    passed = (ddm.n_states == 4 and ddm.obs_rank == 4
              and all(r.input_observable for r in mg_reports) and elapsed < 1.0)
    assert report(
        "7 observability", passed,
        f"forming-plus-droop ILC rank {ddm.obs_rank}/4; MG Rosenbrock full "
        f"column rank at all samples; {elapsed:.2f} s",
    )


def test_criterion_8_numerical_hygiene(two_mg_resolved):
    # (a) finite differences against analytic linearizations
    worst = 0.0
    for model in (FirstOrderDroop(T=1.0, D=2e7),
                  SwingGovernor(M=3e7, D=1e4, T_g=0.3, inv_R=4e7)):
        lin = mg_linearize(model)
        analytic = np.block([[lin.a, lin.b], [lin.c, lin.d]])
        scale = max(1.0, float(np.max(np.abs(analytic))))
        numeric = mg_port_jacobian(model)
        worst = max(worst, float(np.max(np.abs(analytic - numeric))) / scale)
    unit = unit_for("dual-freq-droop-1")
    g, ph = unit.gains, unit.physical
    analytic_a = np.array([
        [-1 / ph.tau1, 0.0, 0.0, g.k_i / ph.tau1, 0.0],
        [0.0, -1 / ph.tau2, g.k_pdc / ph.tau2, 0.0, g.k_idc / ph.tau2],
        [-1 / (ph.c * ph.v_dc_ref), -1 / (ph.c * ph.v_dc_ref), -ph.k_dc / ph.c,
         0.0, 0.0],
        [0.0] * 5,
        [0.0, 0.0, 1.0, 0.0, 0.0],
    ])
    numeric_a = linearize_unit(unit).a
    worst = max(worst, float(np.max(np.abs(analytic_a - numeric_a)))
                / float(np.max(np.abs(analytic_a))))
    fd_ok = worst < 1e-6

    # (b) DC energy bookkeeping along a trajectory
    bundle = build_system(two_mg_resolved)
    ode = bundle.ode
    unit0 = bundle.units[0]
    vdc_idx = ode.column("ilc", 0, "vdc")

    class Augmented:
        dim = ode.dim + 1
        state_scales = np.append(ode.state_scales, 1e3)
        state_atols = np.append(ode.state_atols, 1e-3)
        state_names = ode.state_names + ("aux.energy",)
        units = ode.units
        net = ode.net
        models = ode.models

        @staticmethod
        def derivative(t, y, loads=None):
            rates = ode.derivative(t, y[:-1], loads)
            p1, p2 = connection_powers(ode, y[:-1])[0]
            v = y[vdc_idx]
            flow = (-(p1 + p2) * v / (v + unit0.physical.v_dc_ref)
                    - unit0.physical.k_dc * v * v)
            return rates + [flow]

    Augmented.jacobian = staticmethod(system_jacobian(Augmented))

    traj = integrate(Augmented, [0.0] * Augmented.dim,
                     (LoadEvent(1.0, 0, -1e6),), (0.0, 15.0),
                     IntegrateOptions(rtol=1e-8))
    v = traj.y[:, vdc_idx]
    stored = 0.5 * unit0.physical.c * v**2
    energy_err = float(np.max(np.abs(stored - traj.y[:, -1]))
                       / np.max(np.abs(stored)))
    energy_ok = energy_err < 1e-6

    # (c) halving the tolerances changes the final state by < 10*rtol
    rtol = 1e-6
    finals = []
    for factor in (1.0, 0.5):
        opts = IntegrateOptions(rtol=rtol * factor, atol_scale=factor)
        t = integrate(ode, [0.0] * ode.dim, (LoadEvent(1.0, 0, -1e6),),
                      (0.0, 10.0), opts)
        finals.append(t.final_state)
    scale = np.maximum(np.abs(finals[0]), ode.state_scales)
    tol_err = float(np.max(np.abs(finals[0] - finals[1]) / scale))
    tol_ok = tol_err < 10.0 * rtol

    passed = fd_ok and energy_ok and tol_ok
    assert report(
        "8 numerical hygiene", passed,
        f"linearization mismatch {worst:.2e}; energy identity error "
        f"{energy_err:.2e}; tolerance-halving shift {tol_err:.2e}",
    )
