import ast
import copy
import logging
import math
import multiprocessing
import os
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from multigrid_ilc import engine, sweep
from multigrid_ilc.errors import NonBracketing, ValidationError
from multigrid_ilc.scenario import load_resolved, resolve, set_parameter
from multigrid_ilc.sweep import (
    COLUMNS,
    INDETERMINATE,
    SPECTRALLY_STABLE,
    STABLE,
    UNSTABLE,
    Cell,
    Classification,
    SweepRequest,
    TABLE3_ROWS,
    bisect_boundary,
    classify_stability,
    table3_harness,
    worker_count,
)


def use_classifier(monkeypatch, classify):
    """Drive ``bisect_boundary`` by a synthetic full classification.  Its
    spectral half reads spectrally-stable wherever the full one is not
    unstable, as ``classify_spectrum`` does."""
    def spectrum(resolved):
        cls = classify(resolved)
        if cls.verdict == UNSTABLE:
            return cls
        return Classification(SPECTRALLY_STABLE, cls.abscissa, "synthetic spectrum")

    monkeypatch.setattr(sweep, "classify_spectrum", spectrum)
    monkeypatch.setattr(sweep, "classify_stability", classify)


def every_probe_bisection(monkeypatch, req, classify):
    """The result of bisecting with the full classification at every probe:
    with ``classify`` as the spectral half too, no probe reads
    spectrally-stable and nothing is left to confirm."""
    with monkeypatch.context() as m:
        m.setattr(sweep, "classify_spectrum", classify)
        m.setattr(sweep, "classify_stability", classify)
        return bisect_boundary(req)


class TestClassify:
    def test_dual_acdc_defaults_stable(self, scheme_scenario):
        cls = classify_stability(scheme_scenario("dual-acdc-droop"))
        assert cls.verdict == STABLE
        assert cls.abscissa < -1e-6
        assert cls.sim_tail <= cls.sim_peak

    def test_matching_with_support_stable(self, scheme_scenario):
        resolved = set_parameter(scheme_scenario("matching"), "ilc.K_dc", 0.5)
        assert classify_stability(resolved).verdict == STABLE

    def test_matching_without_support_not_stable(self, scheme_scenario):
        resolved = set_parameter(scheme_scenario("matching"), "ilc.K_dc", 0.0)
        cls = classify_stability(resolved)
        assert cls.verdict == UNSTABLE
        assert cls.abscissa >= -1e-6

    def test_unstable_past_lag_boundary(self, scheme_scenario):
        resolved = set_parameter(
            scheme_scenario("dual-freq-droop-1"), "ilc.tau", 0.5
        )
        cls = classify_stability(resolved)
        assert cls.verdict == UNSTABLE
        assert cls.abscissa > 0

    def test_no_equilibrium_counts_unstable(self, scheme_scenario):
        resolved = scheme_scenario("dual-droop-matching")
        # baseline load beyond the filter limit leaves no equilibrium
        resolved = set_parameter(resolved, "ilc.B", 1e5)
        resolved["mgs"][0]["p_load"] = -2e6
        cls = classify_stability(resolved)
        assert cls.verdict == UNSTABLE
        assert "no-equilibrium" in cls.cause


class TestBisection:
    def test_kdc_stable_throughout(self, scheme_scenario):
        req = SweepRequest(
            scheme_scenario("dual-freq-droop-1"), "ilc.K_dc", 0.0, 1.0,
            direction="min-stable", tol=0.01,
        )
        result = bisect_boundary(req)
        assert result.status == "stable-throughout"
        assert result.value == 0.0

    def test_dfd1_lag_boundary_window(self, scheme_scenario):
        req = SweepRequest(
            scheme_scenario("dual-freq-droop-1"), "ilc.tau", 0.01, 1.0,
            direction="max-stable", tol=0.01,
        )
        result = bisect_boundary(req)
        assert result.status == "boundary"
        assert 0.03 < result.value < 0.2
        lo, hi = result.bracket
        # bracketed by one verified stable and one verified unstable probe
        verdicts = {v: verdict for v, verdict, _ in result.probes}
        assert verdicts[lo] == STABLE
        assert verdicts[hi] == UNSTABLE

    def test_matching_kdc_boundary_positive(self, scheme_scenario):
        req = SweepRequest(
            scheme_scenario("matching"), "ilc.K_dc", 0.0, 1.0,
            direction="min-stable", tol=0.01,
        )
        result = bisect_boundary(req)
        assert result.status == "boundary"
        # published value 0.06; the near-lossless aggregate model keeps the
        # crossing small, so only positivity and order are asserted
        assert 0.0 < result.value <= 0.11

    def test_indeterminate_unstable_end_still_brackets(self, scheme_scenario, monkeypatch):
        """An indeterminate probe (spectrum stable, simulation not) may end
        the final bracket: its recorded classification is the evidence."""
        def classify(resolved):
            tau = resolved["ilcs"][0]["physical"]["tau1"]
            if tau > 1.0:
                return Classification(INDETERMINATE, -0.5, "synthetic")
            return Classification(STABLE, -0.5, "synthetic")

        use_classifier(monkeypatch, classify)
        req = SweepRequest(
            scheme_scenario("dual-droop-matching"), "ilc.tau", 0.01, 5.0,
            direction="max-stable", tol=0.01,
        )
        result = bisect_boundary(req)
        assert result.status == "boundary"
        lo, hi = result.bracket
        assert lo <= 1.0 < hi and hi - lo <= 0.01
        verdicts = {v: verdict for v, verdict, _ in result.probes}
        assert verdicts[lo] == STABLE
        assert verdicts[hi] == INDETERMINATE
        assert result.value == lo

    def test_log_sweep_stops_at_ratio_tolerance(self, two_mg_resolved, monkeypatch):
        def classify(resolved):
            tau = resolved["ilcs"][0]["physical"]["tau1"]
            return Classification(STABLE if tau < 19.3 else UNSTABLE, None, "synthetic")

        use_classifier(monkeypatch, classify)
        req = SweepRequest(two_mg_resolved, "ilc.tau", 1.0, 100.0,
                           direction="max-stable", tol=0.1, log=True)
        result = bisect_boundary(req)
        values = [v for v, _, _ in result.probes]
        # each probe, cut to two decimals
        assert [math.floor(100.0 * v) / 100.0 for v in values] == \
            [1.0, 100.0, 10.0, 31.62, 17.78, 23.71, 20.53, 19.10]
        lo, hi = result.bracket
        assert hi / lo <= 1.1
        assert result.value == lo == values[-1]

    def test_direction_mismatch_raises(self, scheme_scenario):
        req = SweepRequest(
            scheme_scenario("dual-freq-droop-1"), "ilc.tau", 0.01, 1.0,
            direction="min-stable", tol=0.01,
        )
        with pytest.raises(NonBracketing):
            bisect_boundary(req)


class TestSpectralBisection:
    """The bisection runs on the spectrum; the full classification,
    simulation included, runs only at the ends a result reports."""

    @pytest.fixture
    def simulations(self, monkeypatch):
        integrate = sweep.integrate
        calls = []

        def recording_integrate(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(sweep, "integrate", recording_integrate)
        return calls

    @staticmethod
    def cell(two_mg_resolved, scheme, column):
        row = next(r for r in TABLE3_ROWS if r["scheme"] == scheme)
        return sweep._run_cell((two_mg_resolved, row, column))[2]

    def test_boundary_cell_simulates_its_stable_end_once(
        self, two_mg_resolved, simulations, caplog
    ):
        with caplog.at_level(logging.DEBUG, logger="multigrid_ilc.sweep"):
            cell = self.cell(two_mg_resolved, "dual-freq-droop-1", "max_tau")
        assert cell.status == "boundary"
        assert len(cell.probes) == 11
        assert len(simulations) == 1
        assert [v for v, verdict, _ in cell.probes if verdict == STABLE] == [cell.value]
        assert {verdict for _, verdict, _ in cell.probes} == \
            {STABLE, SPECTRALLY_STABLE, UNSTABLE}
        # one event per probe and one for the confirming simulation
        events = [r.getMessage() for r in caplog.records if r.name == "multigrid_ilc.sweep"]
        assert len(events) == 12
        assert sum(e.endswith(", not simulated") for e in events) == 11
        assert events[-1].startswith(f"ilc.tau={cell.value!r}: stable")

    def test_simulated_probe_events_report_the_run(self, two_mg_resolved, trajectories,
                                                   caplog):
        """The event of each confirming simulation gives its steps, calls,
        switch time and seconds, as its Classification does."""
        with caplog.at_level(logging.DEBUG, logger="multigrid_ilc.sweep"):
            cell = self.cell(two_mg_resolved, "dual-acdc-droop", "min_kdc")
        assert cell.status == "stable-throughout"
        events = [r.getMessage() for r in caplog.records if r.name == "multigrid_ilc.sweep"]
        simulated = [e for e in events if not e.endswith(", not simulated")]
        assert len(simulated) == len(trajectories) == 2
        for event, traj in zip(simulated, trajectories):
            s = traj.stats
            head, seconds = event.rsplit(", ", 1)
            assert head.endswith(
                f"simulated: {s.accepted} accepted and {s.rejected} rejected steps, "
                f"{s.rhs_calls} RHS and {s.jacobian_calls} Jacobian calls, "
                f"stiff from {s.stiff_from!r}")
            assert seconds.endswith(" s") and float(seconds[:-2]) > 0.0

    def test_stable_throughout_cell_simulates_both_ends(self, two_mg_resolved, simulations):
        cell = self.cell(two_mg_resolved, "dual-freq-droop-1", "min_kdc")
        assert cell.status == "stable-throughout"
        assert len(simulations) == 2
        assert [(v, verdict) for v, verdict, _ in cell.probes] == \
            [(0.0, STABLE), (1.0, STABLE)]

    def test_unstable_throughout_cell_never_simulates(self, scheme_scenario, simulations):
        req = SweepRequest(scheme_scenario("dual-freq-droop-1"), "ilc.tau", 0.5, 1.0,
                           direction="max-stable", tol=0.01)
        result = bisect_boundary(req)
        assert result.status == "unstable-throughout"
        assert simulations == []

    def test_non_bracketing_simulates_its_stable_end(self, scheme_scenario, simulations):
        req = SweepRequest(scheme_scenario("dual-freq-droop-1"), "ilc.tau", 0.01, 1.0,
                           direction="min-stable", tol=0.01)
        with pytest.raises(NonBracketing, match="stable at the low end only"):
            bisect_boundary(req)
        assert len(simulations) == 1

    @pytest.mark.parametrize("direction, verdict_at", [
        # stable-throughout on the spectrum, the high end not confirmed
        ("max-stable", lambda tau: STABLE if tau <= 1.0 else INDETERMINATE),
        # the spectral bracket's stable end not confirmed
        ("max-stable",
         lambda tau: STABLE if tau < 1.0 else INDETERMINATE if tau < 2.0 else UNSTABLE),
        # stable only at the wrong end on the spectrum, and not confirmed there
        ("min-stable",
         lambda tau: INDETERMINATE if tau < 1.0 else STABLE if tau < 2.0 else UNSTABLE),
    ])
    def test_unconfirmed_end_reruns_every_probe_bisection(
        self, scheme_scenario, monkeypatch, caplog, direction, verdict_at
    ):
        def classify(resolved):
            verdict = verdict_at(resolved["ilcs"][0]["physical"]["tau1"])
            return Classification(verdict, 0.5 if verdict == UNSTABLE else -0.5,
                                  "synthetic")

        req = SweepRequest(scheme_scenario("dual-droop-matching"), "ilc.tau", 0.01, 5.0,
                           direction=direction, tol=0.01)
        expected = every_probe_bisection(monkeypatch, req, classify)
        use_classifier(monkeypatch, classify)
        with caplog.at_level(logging.WARNING, logger="multigrid_ilc.sweep"):
            assert bisect_boundary(req) == expected
        (warning,) = caplog.records
        assert warning.levelno == logging.WARNING
        assert warning.getMessage().startswith("dual-droop-matching ilc.tau=")
        assert "(synthetic)" in warning.getMessage()

    def test_no_table_probe_reads_stable_without_a_simulation(
        self, two_mg_resolved, monkeypatch
    ):
        integrate, run_cell = sweep.integrate, sweep._run_cell
        simulated: dict[tuple[str, str], int] = {}
        current = []

        def recording_integrate(*args, **kwargs):
            simulated[current[-1]] = simulated.get(current[-1], 0) + 1
            return integrate(*args, **kwargs)

        def recording_run_cell(args):
            current.append((args[1]["scheme"], args[2]))
            return run_cell(args)

        monkeypatch.setattr(sweep, "integrate", recording_integrate)
        monkeypatch.setattr(sweep, "_run_cell", recording_run_cell)
        table = table3_harness(two_mg_resolved, workers=1)
        for row in table.rows:
            for column in COLUMNS:
                cell = row[column]
                runs = simulated.get((row["scheme"], column), 0)
                # every simulation of the shipped table confirms its end
                assert sum(verdict == STABLE for _, verdict, _ in cell.probes) == runs
                assert runs == {"boundary": 1, "stable-throughout": 2}.get(cell.status, 0)
        assert sum(simulated.values()) == 52


def test_package_installs_no_log_handler():
    assert logging.getLogger("multigrid_ilc.sweep").handlers == []
    assert logging.getLogger("multigrid_ilc").handlers == []


class TestHarness:
    def test_single_cell(self, two_mg_resolved):
        rows = tuple(r for r in TABLE3_ROWS if r["scheme"] == "dual-droop-matching")
        table = table3_harness(two_mg_resolved, workers=1, columns=("min_kdc",), rows=rows)
        cell = table.cell("dual-droop-matching", "min_kdc")
        assert cell.status == "stable-throughout"
        assert cell.display == "0.00"

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched cell runner reaches the workers by fork")
    def test_crashed_worker_gives_error_cells(self, two_mg_resolved, monkeypatch):
        rows = TABLE3_ROWS[:2]
        columns = ("min_kdc", "max_tau")
        crash = (rows[0]["scheme"], "max_tau")

        def run_cell(args):
            _, row, column = args
            if (row["scheme"], column) == crash:
                os._exit(1)
            return (row["scheme"], column,
                    Cell(row["scheme"], column, "stable-throughout", 0.0, "ok",
                         row["paper"][column]))

        monkeypatch.setattr(sweep, "_run_cell", run_cell)
        monkeypatch.setenv("MULTIGRID_ILC_THREADS", "2")
        table = table3_harness(two_mg_resolved, workers=2, columns=columns, rows=rows)
        assert table.cell(*crash).status == "error"
        statuses = [table.cell(r["scheme"], c).status for r in rows for c in columns]
        assert set(statuses) <= {"error", "stable-throughout"}

    def test_pool_is_never_larger_than_the_work(self, two_mg_resolved, monkeypatch):
        sizes = []

        class InlinePool:
            """Records its size and runs each job at submission."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        def run_cell(args):
            _, row, column = args
            return (row["scheme"], column,
                    Cell(row["scheme"], column, "stable-throughout", 0.0, "ok",
                         row["paper"][column]))

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(sweep, "_run_cell", run_cell)
        monkeypatch.setenv("MULTIGRID_ILC_THREADS", "64")
        rows = TABLE3_ROWS[:3]
        table = table3_harness(two_mg_resolved, columns=("min_kdc",), rows=rows)
        assert sizes == [3]
        assert all(table.cell(r["scheme"], "min_kdc").display == "ok" for r in rows)

    def test_worker_count_env_cap(self, monkeypatch):
        monkeypatch.setenv("MULTIGRID_ILC_THREADS", "2")
        assert worker_count() == 2
        assert worker_count(1) == 1
        monkeypatch.delenv("MULTIGRID_ILC_THREADS")
        assert worker_count(4) >= 1

    @pytest.mark.parametrize("requested", [0, -2])
    def test_worker_count_rejects_fewer_than_one(self, monkeypatch, requested):
        monkeypatch.setenv("MULTIGRID_ILC_THREADS", "2")
        with pytest.raises(ValidationError, match="at least 1"):
            worker_count(requested)

    def test_worker_count_rejects_non_integer(self, monkeypatch):
        monkeypatch.setenv("MULTIGRID_ILC_THREADS", "abc")
        with pytest.raises(ValidationError):
            worker_count()

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_worker_count_rejects_non_positive_cap(self, monkeypatch, cap):
        monkeypatch.setenv("MULTIGRID_ILC_THREADS", cap)
        with pytest.raises(ValidationError, match="MULTIGRID_ILC_THREADS"):
            worker_count()


def test_table3_row_set_matches_published_schemes():
    from multigrid_ilc.ilc import SCHEMES

    assert tuple(r["scheme"] for r in TABLE3_ROWS) == SCHEMES
    for row in TABLE3_ROWS:
        assert set(row["paper"]) == {"min_kdc", "max_tau", "max_gain", "min_l_mh"}


def test_sweep_request_validation(two_mg_resolved):
    from multigrid_ilc.errors import ValidationError

    with pytest.raises(ValidationError):
        SweepRequest(two_mg_resolved, "ilc.K_dc", 1.0, 0.0,
                     direction="min-stable", tol=0.01)
    with pytest.raises(ValidationError):
        SweepRequest(two_mg_resolved, "ilc.K_dc", 0.0, 1.0,
                     direction="sideways", tol=0.01)
    # a NaN tolerance skips bisection, a non-positive one never stops short
    # of float resolution
    for tol in (math.nan, math.inf, 0.0, -0.01):
        for log in (False, True):
            with pytest.raises(ValidationError):
                SweepRequest(two_mg_resolved, "ilc.tau", 0.01, 1.0,
                             direction="max-stable", tol=tol, log=log)


def test_sweep_request_refuses_a_gain_no_addressed_scheme_reads():
    """A gain path is refused only when none of the ILCs it addresses reads
    any field it sets; a bundle read on one side is accepted."""
    raw = copy.deepcopy(load_resolved("three-mg"))
    raw["ilcs"][0]["scheme"] = "dual-freq-droop-1"  # ILC 2 stays dual-droop-matching
    raw["ilcs"][0]["gains"] = {}
    mixed = resolve(raw)

    def request(path):
        return SweepRequest(mixed, path, 0.5, 2.0, direction="max-stable", tol=0.1)

    for path in ("ilc.gains.m1", "ilc.gains.K_omega", "ilc[1].gains.K_omega1",
                 "ilc[2].gains.K_omega2"):
        request(path)
    with pytest.raises(ValidationError) as refused:
        request("ilc[1].gains.m1")
    assert "ilc[1].gains.m1" in str(refused.value)
    assert "(dual-freq-droop-1)" in str(refused.value)
    with pytest.raises(ValidationError, match=r"\(dual-freq-droop-1, dual-droop-matching\)"):
        request("ilc.gains.m2")
    # the table's gain column sweeps one scale factor, not a gain field
    SweepRequest(mixed, sweep.GAINS, 1.0, sweep.GAIN_SPAN, "max-stable", 0.1, log=True)


def test_log_sweep_rejects_non_positive_lo(two_mg_resolved):
    for lo in (0.0, -1.0):
        with pytest.raises(ValidationError):
            SweepRequest(two_mg_resolved, "ilc.tau", lo, 1.0,
                         direction="max-stable", tol=0.01, log=True)
    SweepRequest(two_mg_resolved, "ilc.K_dc", 0.0, 1.0,
                 direction="min-stable", tol=0.01)


@pytest.fixture
def trajectories(monkeypatch):
    """The trajectories ``sweep.integrate`` returns, in call order."""
    integrate = sweep.integrate
    seen = []

    def recording_integrate(*args, **kwargs):
        seen.append(integrate(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(sweep, "integrate", recording_integrate)
    return seen


@pytest.mark.parametrize("scheme", ["matching", "gfl-gfm-dual-droop"])
def test_classifier_tail_window_is_sampled(scheme, scheme_scenario, trajectories):
    """Large stiff steps must not leave the settling tail to one sample:
    the window t >= 1 + 2*horizon/3 holds at least ten."""
    cls = classify_stability(scheme_scenario(scheme))
    assert cls.verdict == STABLE
    (traj,) = trajectories
    assert traj.stats.stiff_from is not None
    assert int(np.sum(traj.t >= 1.0 + 2.0 * 60.0 / 3.0)) >= 10


def test_undamped_dc_bus_disturbance_stays_on_rodas4(scheme_scenario, trajectories):
    """dual-acdc-droop at K_dc = 0 rings at -5 +- 316j, which pins DP45 to
    its stability limit (about 9.7k steps).  Rodas4 needs tens of steps to
    damp what DP45 left ringing before its step grows, and the trial lasts
    long enough to see it: the run stays on Rodas4 and the verdict holds."""
    resolved = set_parameter(scheme_scenario("dual-acdc-droop"), "ilc.K_dc", 0.0)
    assert classify_stability(resolved).verdict == STABLE
    (traj,) = trajectories
    assert traj.stats.stiff_from is not None
    assert traj.stats.rollbacks == 0
    assert traj.stats.accepted < 1000


def test_exact_jacobians_keep_the_trial_price(scheme_scenario, trajectories):
    """The same run with exact Jacobians takes the same 536 steps, and the
    trial, which charges each Jacobian the 2*dim RHS calls of a central
    difference, sees the 7405 RHS calls the finite-difference code spent."""
    resolved = set_parameter(scheme_scenario("dual-acdc-droop"), "ilc.K_dc", 0.0)
    classify_stability(resolved)
    (traj,) = trajectories
    stats = traj.stats
    assert stats.accepted == 536
    assert stats.rhs_calls + 2 * traj.ode.dim * stats.jacobian_calls == 7405


def test_classification_carries_its_simulation(scheme_scenario, trajectories):
    resolved = set_parameter(scheme_scenario("dual-acdc-droop"), "ilc.K_dc", 0.0)
    cls = classify_stability(resolved)
    (traj,) = trajectories
    assert cls.sim_stats == traj.stats
    assert cls.sim_stats.accepted == 536
    assert cls.sim_seconds > 0.0


def test_sweep_computes_no_hermite_samples(two_mg_resolved, trajectories, monkeypatch):
    """The classifier reads step endpoints and step envelopes only: a cell
    whose confirming simulations run on Rodas4 never samples the cubic."""
    hermite, calls = engine._hermite_samples, []

    def counting_hermite(*args):
        calls.append(args)
        return hermite(*args)

    monkeypatch.setattr(engine, "_hermite_samples", counting_hermite)
    row = next(r for r in TABLE3_ROWS if r["scheme"] == "dual-acdc-droop")
    cell = sweep._run_cell((two_mg_resolved, row, "min_kdc"))[2]
    assert cell.status == "stable-throughout"
    assert [t.stats.stiff_from is not None for t in trajectories] == [True, True]
    assert calls == []


class TestGainColumn:
    """The gain column is a max-stable log sweep of the scale factor on the
    row's gain fields, run by ``bisect_boundary`` like every other column."""

    ROW = next(r for r in TABLE3_ROWS if r["scheme"] == "dual-acdc-droop")

    def run(self, two_mg_resolved, monkeypatch, stable_below):
        base = sweep._scheme_scenario(two_mg_resolved, "dual-acdc-droop")
        k_omega = base["ilcs"][0]["gains"]["K_omega1"]

        def classify(resolved):
            gains = resolved["ilcs"][0]["gains"]
            # both swept fields carry the same scale
            assert gains["K_omega2"] / base["ilcs"][0]["gains"]["K_omega2"] == \
                pytest.approx(gains["K_omega1"] / k_omega)
            stable = stable_below(gains["K_omega1"] / k_omega)
            return Classification(STABLE if stable else UNSTABLE, None, "synthetic")

        use_classifier(monkeypatch, classify)
        return k_omega, sweep._run_cell_safe((two_mg_resolved, self.ROW, "max_gain"))[2]

    def test_boundary_reports_the_gain(self, two_mg_resolved, monkeypatch):
        k_omega, cell = self.run(two_mg_resolved, monkeypatch, lambda s: s < 19.3)
        scales = [p[0] for p in cell.probes]
        assert cell.status == "boundary"
        assert len(scales) == 8
        assert cell.value == k_omega * scales[-1]
        assert cell.display == f"K_omega={cell.value:.3g}"

    def test_stable_throughout(self, two_mg_resolved, monkeypatch):
        _, cell = self.run(two_mg_resolved, monkeypatch, lambda s: True)
        assert (cell.status, cell.value) == ("stable-throughout", sweep.GAIN_SPAN)
        assert cell.display == "any reasonable (<= 100x)"
        assert [p[0] for p in cell.probes] == [1.0, sweep.GAIN_SPAN]

    def test_unstable_at_default(self, two_mg_resolved, monkeypatch):
        _, cell = self.run(two_mg_resolved, monkeypatch, lambda s: False)
        assert (cell.status, cell.display) == ("unstable-throughout", "unstable throughout")
        # stable only above the default: the direction does not match
        _, cell = self.run(two_mg_resolved, monkeypatch, lambda s: s > 50.0)
        assert cell.status == "error"
        assert "direction does not match" in cell.display


def test_benchmark_oracle_constants_match_the_column_table():
    """perfbench's table oracle keeps its own copy of the sweep settings; it
    is read with ``ast`` so this check needs no scipy."""
    oracles = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    consts = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(oracles.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("INTERVALS", "PATHS", "TOLERANCES", "GAIN_SPAN")
    }
    path_columns = [c for c in COLUMNS if c != "max_gain"]
    assert consts["INTERVALS"] == {c: COLUMNS[c].interval for c in path_columns}
    assert consts["PATHS"] == {c: COLUMNS[c].path for c in path_columns}
    assert consts["TOLERANCES"] == {c: spec.tol for c, spec in COLUMNS.items()}
    assert consts["GAIN_SPAN"] == sweep.GAIN_SPAN == COLUMNS["max_gain"].interval[1]
    assert COLUMNS["max_gain"].interval[0] == 1.0 and COLUMNS["max_gain"].log
