import numpy as np
import pytest

from multigrid_ilc import sweep
from multigrid_ilc.errors import NonBracketing, ValidationError
from multigrid_ilc.scenario import set_parameter
from multigrid_ilc.sweep import (
    STABLE,
    UNSTABLE,
    SweepRequest,
    TABLE3_ROWS,
    bisect_boundary,
    classify_stability,
    table3_harness,
    worker_count,
)


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

    def test_direction_mismatch_raises(self, scheme_scenario):
        req = SweepRequest(
            scheme_scenario("dual-freq-droop-1"), "ilc.tau", 0.01, 1.0,
            direction="min-stable", tol=0.01,
        )
        with pytest.raises(NonBracketing):
            bisect_boundary(req)


class TestHarness:
    def test_single_cell_and_cache(self, tmp_path, two_mg_resolved):
        rows = tuple(r for r in TABLE3_ROWS if r["scheme"] == "dual-droop-matching")
        cache = tmp_path / "cells"
        table = table3_harness(two_mg_resolved, workers=1, cache_dir=cache,
                               columns=("min_kdc",), rows=rows)
        cell = table.cell("dual-droop-matching", "min_kdc")
        assert cell.status == "stable-throughout"
        assert cell.display == "0.00"
        cached = list(cache.glob("*.json"))
        assert len(cached) == 1
        # a rerun resumes from the cache and reproduces the table
        again = table3_harness(two_mg_resolved, workers=1, cache_dir=cache,
                               columns=("min_kdc",), rows=rows)
        assert again.cell("dual-droop-matching", "min_kdc").display == "0.00"

    def test_worker_count_env_cap(self, monkeypatch):
        monkeypatch.setenv("MULTIGRID_ILC_THREADS", "2")
        assert worker_count() == 2
        assert worker_count(1) == 1
        monkeypatch.delenv("MULTIGRID_ILC_THREADS")
        assert worker_count(4) >= 1

    def test_worker_count_rejects_non_integer(self, monkeypatch):
        monkeypatch.setenv("MULTIGRID_ILC_THREADS", "abc")
        with pytest.raises(ValidationError):
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


def test_log_sweep_rejects_non_positive_lo(two_mg_resolved):
    for lo in (0.0, -1.0):
        with pytest.raises(ValidationError):
            SweepRequest(two_mg_resolved, "ilc.tau", lo, 1.0,
                         direction="max-stable", tol=0.01, log=True)
    SweepRequest(two_mg_resolved, "ilc.K_dc", 0.0, 1.0,
                 direction="min-stable", tol=0.01)


@pytest.mark.parametrize("scheme", ["matching", "gfl-gfm-dual-droop"])
def test_classifier_tail_window_is_sampled(scheme, scheme_scenario, monkeypatch):
    """Large stiff steps must not leave the settling tail to one sample:
    the window t >= 1 + 2*horizon/3 holds at least ten."""
    integrate = sweep.integrate
    seen = []

    def recording_integrate(*args, **kwargs):
        seen.append(integrate(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(sweep, "integrate", recording_integrate)
    horizon = 60.0
    cls = classify_stability(scheme_scenario(scheme), horizon=horizon)
    assert cls.verdict == STABLE
    (traj,) = seen
    assert traj.stats.stiff_from is not None
    assert int(np.sum(traj.t >= 1.0 + 2.0 * horizon / 3.0)) >= 10
