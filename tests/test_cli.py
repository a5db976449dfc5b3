import json
import logging
import re

import pytest

from multigrid_ilc.cli import main
from multigrid_ilc.scenario import dump_resolved, set_parameter


def dfd1_scenario(tmp_path):
    doc = {
        "name": "cli-dfd1",
        "mgs": [
            {"model": "swing-governor", "M": 3e7, "D": 1e4, "T_g": 0.3,
             "inv_R": 4e7, "rating": 4e8},
            {"model": "swing-governor", "M": 1.5e7, "D": 5e3, "T_g": 0.3,
             "inv_R": 2e7, "rating": 2e8},
        ],
        "ilcs": [{"endpoints": [1, 2], "scheme": "dual-freq-droop-1"}],
        "events": [{"time": 1.0, "mg": 1, "delta_p_load": -1e6}],
        "sim": {"t_end": 5.0},
    }
    path = tmp_path / "dfd1.json"
    path.write_text(json.dumps(doc))
    return path


def test_usage_error_exit_code(capsys):
    """A usage error exits 1 and says why on stderr."""
    for argv, message in [
        ([], "multigrid-ilc: error: the following arguments are required: command"),
        (["simulate"], "multigrid-ilc simulate: error: the following arguments are "
                       "required: --scenario, --out"),
        (["passivity", "--scenario", "two-mg", "--ilc", "abc", "--out", "x"],
         "multigrid-ilc passivity: error: argument --ilc: invalid int value: 'abc'"),
        (["linearize", "--scenario", "two-mg", "--ilc", "1", "--mg", "1"],
         "multigrid-ilc linearize: error: argument --mg: not allowed with argument --ilc"),
    ]:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mgs": [], "ilcs": []}))
    assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path)]) == 2


def test_numerical_error_exit_code(tmp_path, capsys):
    # a sweep whose direction cannot bracket raises a numerical error
    code = main([
        "sweep", "--scenario", str(dfd1_scenario(tmp_path)),
        "--param", "ilc.tau", "--lo", "0.01", "--hi", "1.0",
        "--direction", "min-stable", "--tol", "0.01",
    ])
    assert code == 3


def test_simulate_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "simulate", "--scenario", str(dfd1_scenario(tmp_path)),
        "--out", str(out), "--dump-config",
    ])
    assert code == 0
    assert (out / "cli-dfd1-trajectory.csv").exists()
    assert (out / "cli-dfd1-frequencies.svg").exists()
    assert (out / "cli-dfd1-resolved.json").exists()
    header = (out / "cli-dfd1-trajectory.csv").read_text().split("\n")[0]
    assert header.startswith("t,mg1.omega,mg2.omega,ilc1.p1,ilc1.p2,ilc1.vdc")


def test_simulate_logs_where_its_time_goes(tmp_path, capsys, caplog):
    """One DEBUG event gives the sample count and the seconds of each layer;
    the package installs no handler, and stdout does not change."""
    assert logging.getLogger("multigrid_ilc.cli").handlers == []
    out = tmp_path / "out"
    with caplog.at_level(logging.DEBUG, logger="multigrid_ilc.cli"):
        code = main(["simulate", "--scenario", str(dfd1_scenario(tmp_path)), "--out", str(out)])
    assert code == 0
    [record] = [r for r in caplog.records if r.name == "multigrid_ilc.cli"]
    assert record.levelno == logging.DEBUG
    samples = len((out / "cli-dfd1-trajectory.csv").read_text().splitlines()) - 1
    match = re.fullmatch(r"simulate cli-dfd1: (\d+) samples; integrate (\S+) s, CSV (\S+) s, "
                         r"frequencies SVG (\S+) s, DC-voltages SVG (\S+) s",
                         record.getMessage())
    assert match and int(match[1]) == samples
    assert all(float(v) >= 0.0 for v in match.groups()[1:])
    assert capsys.readouterr().out == f"completed: {samples} samples to t = 5 s -> " \
        f"{out / 'cli-dfd1-trajectory.csv'}\n"


def test_simulate_reports_a_truncated_run(tmp_path, capsys, scheme_scenario):
    """dual-acdc-droop with both converter lags at 0.4 s, past its max_tau
    boundary, diverges on Rodas4: simulate still writes the trajectory and
    exits 0, and names the step that ended it."""
    scenario = tmp_path / "unstable.json"
    scenario.write_text(dump_resolved(
        set_parameter(scheme_scenario("dual-acdc-droop"), "ilc.tau", 0.4)))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    status, reason = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"truncated: \d+ samples to t = [\d.]+ s -> .*", status)
    assert re.fullmatch(r"truncation: mg2\.omega exceeded 5 between t = [\d.]+ and [\d.]+ s",
                        reason)
    assert (out / "two-mg-trajectory.csv").exists()


def test_passivity_verdict_line(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "passivity", "--scenario", str(dfd1_scenario(tmp_path)),
        "--ilc", "1", "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "verdict: non-passive" in captured
    assert "rad/s" in captured
    assert (out / "cli-dfd1-ilc1-passivity.csv").exists()
    first = (out / "cli-dfd1-ilc1-passivity.csv").read_text().split("\n")[0]
    assert first == "omega,min_eig,diag1_re,diag2_re"


@pytest.mark.parametrize("points", ["0", "-3"])
def test_passivity_bad_point_count_exit_code(tmp_path, capsys, points):
    code = main([
        "passivity", "--scenario", str(dfd1_scenario(tmp_path)),
        "--ilc", "1", "--out", str(tmp_path / "out"), "--points", points,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "at least 1 point" in err


def test_non_positive_rating_exit_code(tmp_path, capsys):
    path = dfd1_scenario(tmp_path)
    doc = json.loads(path.read_text())
    doc["mgs"][0]["rating"] = 0.0
    path.write_text(json.dumps(doc))
    assert main(["linearize", "--scenario", str(path)]) == 2
    assert "rating" in capsys.readouterr().err


def test_linearize_closed_loop(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "linearize", "--scenario", str(dfd1_scenario(tmp_path)), "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "spectral abscissa" in captured
    assert (out / "cli-dfd1-closed-loop-A.csv").exists()


def loaded_two_mg(tmp_path, scheme):
    """The shipped two-MG scenario on one scheme with a 5 % load on MG1,
    so that the zero state is not an equilibrium."""
    from multigrid_ilc.scenario import shipped_scenario

    doc = shipped_scenario("two-mg")
    doc["ilcs"][0]["scheme"] = scheme
    doc["mgs"][0]["p_load"] = -2e7
    path = tmp_path / f"loaded-{scheme}.json"
    path.write_text(json.dumps(doc))
    return path


def test_linearize_closed_loop_at_the_equilibrium(tmp_path, capsys):
    """About the equilibrium the abscissa is -0.8523; about the zero
    state, which a nonzero load moves off equilibrium, it would be -0.8430."""
    code = main(["linearize", "--scenario", str(loaded_two_mg(tmp_path, "matching"))])
    assert code == 0
    assert "spectral abscissa -8.5231" in capsys.readouterr().out


def test_linearize_without_equilibrium_exit_code(tmp_path, capsys):
    code = main(["linearize", "--scenario",
                 str(loaded_two_mg(tmp_path, "dual-acdc-droop"))])
    assert code == 3
    assert "no convergence" in capsys.readouterr().err


def test_sweep_bad_tolerance_exit_code(tmp_path, capsys):
    for tol in ("nan", "0"):
        code = main([
            "sweep", "--scenario", str(dfd1_scenario(tmp_path)),
            "--param", "ilc.K_dc", "--lo", "0.0", "--hi", "1.0",
            "--direction", "min-stable", "--tol", tol,
        ])
        assert code == 2


def test_sweep_command(tmp_path, capsys):
    code = main([
        "sweep", "--scenario", str(dfd1_scenario(tmp_path)),
        "--param", "ilc.K_dc", "--lo", "0.0", "--hi", "1.0",
        "--direction", "min-stable", "--tol", "0.5",
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "status: stable-throughout" in captured


def test_exit_codes_stable_across_runs(tmp_path):
    scn = dfd1_scenario(tmp_path)
    args = ["passivity", "--scenario", str(scn), "--ilc", "1",
            "--out", str(tmp_path / "x")]
    assert main(args) == main(args) == 0


def test_table3_plumbing(tmp_path, monkeypatch, capsys):
    """The table3 subcommand forwards options and writes both artifacts."""
    import multigrid_ilc.cli as cli_mod
    from multigrid_ilc.sweep import Cell, SweepTable

    captured_args = {}

    def fake_harness(resolved, workers=None):
        captured_args.update(workers=workers)
        cell = Cell("dual-freq-droop-1", "min_kdc", "stable-throughout", 0.0,
                    "0.00", "0.00")
        return SweepTable(rows=({"scheme": "dual-freq-droop-1", "min_kdc": cell,
                                 "max_tau": cell, "max_gain": cell,
                                 "min_l_mh": cell},))

    monkeypatch.setattr(cli_mod, "table3_harness", fake_harness)
    out = tmp_path / "t3"
    code = cli_mod.main(["table3", "--scenario", "two-mg", "--out", str(out),
                         "--workers", "2"])
    assert code == 0
    assert captured_args["workers"] == 2
    assert (out / "table3.csv").exists()
    assert (out / "table3.txt").exists()


def test_table3_refuses_the_removed_cache_flag(tmp_path, capsys):
    """The cell cache is gone; its flag is a usage error, not an option that
    is silently ignored."""
    assert main(["table3", "--cache", str(tmp_path)]) == 1
    assert "unrecognized arguments: --cache" in capsys.readouterr().err


def test_sweep_of_a_gain_no_scheme_reads_exit_code(capsys):
    """two-mg's dual-droop-matching law never reads K_omega1: sweeping it
    would report stable-throughout with one abscissa at both ends."""
    code = main(["sweep", "--scenario", "two-mg", "--param", "ilc.gains.K_omega1",
                 "--lo", "-1", "--hi", "1", "--tol", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "ilc.gains.K_omega1" in err
    assert "dual-droop-matching" in err


def test_non_integer_thread_cap_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MULTIGRID_ILC_THREADS", "abc")
    assert main(["table3", "--out", str(tmp_path / "t3")]) == 2
    assert "MULTIGRID_ILC_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("lo", ["0", "-1e-3"])
def test_sweep_non_positive_inductance_exit_code(capsys, lo):
    code = main([
        "sweep", "--scenario", "two-mg", "--param", "ilc.L", f"--lo={lo}",
        "--hi", "1e-3", "--direction", "min-stable", "--tol", "5e-4",
    ])
    assert code == 2
    assert "filter inductance L" in capsys.readouterr().err


def test_zero_inductance_scenario_exit_code(tmp_path, capsys):
    path = dfd1_scenario(tmp_path)
    doc = json.loads(path.read_text())
    doc["ilcs"][0]["physical"] = {"L": 0.0}
    path.write_text(json.dumps(doc))
    assert main(["linearize", "--scenario", str(path)]) == 2
    assert "filter inductance L" in capsys.readouterr().err


def test_non_object_gains_exit_code(tmp_path, capsys):
    path = dfd1_scenario(tmp_path)
    doc = json.loads(path.read_text())
    doc["ilcs"][0]["gains"] = 5
    path.write_text(json.dumps(doc))
    assert main(["linearize", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "scenario.ilcs[0].gains" in err
    assert "Traceback" not in err


def test_non_string_mg_model_exit_code(tmp_path, capsys):
    path = dfd1_scenario(tmp_path)
    doc = json.loads(path.read_text())
    doc["mgs"][0]["model"] = ["x"]
    path.write_text(json.dumps(doc))
    assert main(["linearize", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "scenario.mgs[0].model" in err
    assert "Traceback" not in err


def test_scenario_name_cannot_leave_the_output_directory(tmp_path, capsys):
    path = dfd1_scenario(tmp_path)
    doc = json.loads(path.read_text())
    doc["name"] = "../x"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out" / "sub"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
    assert "scenario.name" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["dfd1.json"]


def test_scenario_name_that_is_not_a_string_exit_code(tmp_path, capsys):
    path = dfd1_scenario(tmp_path)
    doc = json.loads(path.read_text())
    doc["name"] = None
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "scenario.name" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["dfd1.json"]


def test_boolean_event_mg_exit_code(tmp_path, capsys):
    path = dfd1_scenario(tmp_path)
    doc = json.loads(path.read_text())
    doc["events"][0]["mg"] = True
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path), "--out", str(out),
                 "--dump-config"]) == 2
    assert "scenario.events[0].mg" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("param", ["ilc[a].K_dc", "ilc[].K_dc"])
def test_sweep_malformed_ilc_index_exit_code(tmp_path, capsys, param):
    code = main([
        "sweep", "--scenario", str(dfd1_scenario(tmp_path)), "--param", param,
        "--lo", "0.0", "--hi", "1.0", "--tol", "0.5",
    ])
    assert code == 2
    assert "is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_table3_non_positive_workers_exit_code(tmp_path, capsys, workers):
    assert main(["table3", f"--workers={workers}", "--out", str(tmp_path / "t3")]) == 2
    assert "worker count" in capsys.readouterr().err
    assert not (tmp_path / "t3").exists()


@pytest.mark.parametrize("content, message", [
    (b"{not json", "not JSON: Expecting property name enclosed in double quotes "
                   "at line 1 column 2"),
    (b"\xff\xfe{}", "not UTF-8 at byte 0"),
])
@pytest.mark.parametrize("command", ["simulate", "table3"])
def test_undecodable_scenario_file_exit_code(tmp_path, capsys, content, message,
                                             command):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{path}: {message}" in capsys.readouterr().err


def test_sweep_negative_bound_in_exponent_form_reaches_validation(capsys):
    code = main([
        "sweep", "--scenario", "two-mg", "--param", "ilc.K_dc", "--lo", "-1e-3",
        "--hi", "1", "--tol", "0.1",
    ])
    assert code == 2
    assert "k_dc must be non-negative" in capsys.readouterr().err
