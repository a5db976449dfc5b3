import json
import math

import pytest

from multigrid_ilc.errors import SchemaViolation, UnknownScheme, ValidationError
from multigrid_ilc.mg import FirstOrderDroop, SwingGovernor, default_rating
from multigrid_ilc.scenario import (
    build_system,
    dump_resolved,
    load_resolved,
    resolve,
    set_parameter,
    shipped_scenario,
    shipped_scenario_names,
)


def minimal(scheme="matching", gains=None):
    return {
        "mgs": [
            {"model": "swing-governor", "M": 3e7, "D": 1e4, "T_g": 0.3,
             "inv_R": 4e7},
            {"model": "first-order-droop", "T": 1.0, "D": 2e7},
        ],
        "ilcs": [
            {"endpoints": [1, 2], "scheme": scheme, "gains": gains or {}},
        ],
    }


def test_matching_gain_default():
    resolved = resolve(minimal("matching"))
    assert resolved["ilcs"][0]["gains"]["m1"] == pytest.approx(1e-3)


def test_dual_acdc_voltage_droop_default():
    resolved = resolve(minimal("dual-acdc-droop"))
    assert resolved["ilcs"][0]["gains"]["K_v1"] == pytest.approx(2.5e4)
    assert resolved["ilcs"][0]["gains"]["K_v2"] == pytest.approx(2.5e4)


def test_dc_pi_gains_follow_voltage_droop():
    resolved = resolve(minimal("dual-freq-droop-1", gains={"K_v1": 1.0e4}))
    gains = resolved["ilcs"][0]["gains"]
    assert gains["K_pdc"] == pytest.approx(1.0e4)
    assert gains["K_idc"] == pytest.approx(1.0e5)


def test_unknown_scheme():
    with pytest.raises(UnknownScheme):
        resolve(minimal("machting"))


def test_unknown_keys_rejected():
    raw = minimal()
    raw["extra"] = 1
    with pytest.raises(SchemaViolation):
        resolve(raw)
    raw = minimal()
    raw["ilcs"][0]["gains"] = {"K_bogus": 1.0}
    with pytest.raises(SchemaViolation):
        resolve(raw)
    raw = minimal()
    raw["mgs"][0]["X_q"] = 1.0
    with pytest.raises(SchemaViolation):
        resolve(raw)


def test_missing_mg_parameter():
    raw = minimal()
    del raw["mgs"][0]["M"]
    with pytest.raises(SchemaViolation):
        resolve(raw)


def test_events_must_be_sorted():
    raw = minimal()
    raw["events"] = [
        {"time": 2.0, "mg": 1, "delta_p_load": -1.0},
        {"time": 1.0, "mg": 2, "delta_p_load": -1.0},
    ]
    with pytest.raises(SchemaViolation):
        resolve(raw)


def test_event_mg_range():
    raw = minimal()
    raw["events"] = [{"time": 1.0, "mg": 3, "delta_p_load": -1.0}]
    with pytest.raises(SchemaViolation):
        resolve(raw)


def test_event_mg_boolean_rejected():
    """JSON true is not MG 1, as for the endpoints."""
    raw = minimal()
    raw["events"] = [{"time": 1.0, "mg": True, "delta_p_load": -1.0}]
    with pytest.raises(SchemaViolation, match=r"events\[0\]\.mg"):
        resolve(raw)


def test_filter_constant_derived_from_inductance():
    resolved = resolve(minimal())
    phys = resolved["ilcs"][0]["physical"]
    expected = phys["V_ac"] ** 2 / (2 * 3.141592653589793 * 50.0 * phys["L"])
    assert phys["B"] == pytest.approx(expected)


def test_filter_constant_override():
    raw = minimal()
    raw["ilcs"][0]["physical"] = {"B": 1.23e7}
    resolved = resolve(raw)
    assert resolved["ilcs"][0]["physical"]["B"] == 1.23e7


def test_defaults_section_applies_to_all_ilcs():
    raw = minimal()
    raw["defaults"] = {"physical": {"K_dc": 0.5}}
    resolved = resolve(raw)
    assert resolved["ilcs"][0]["physical"]["K_dc"] == 0.5


def test_round_trip_identity():
    for name in shipped_scenario_names():
        resolved = resolve(shipped_scenario(name))
        again = resolve(json.loads(dump_resolved(resolved)))
        assert resolved == again


def test_shipped_scenarios_build():
    for name in shipped_scenario_names():
        bundle = build_system(load_resolved(name))
        assert bundle.ode.dim > 0
        assert bundle.t_end > 0


def test_rescaled_integral_gain_defaults():
    dfd2 = resolve(minimal("dual-freq-droop-2"))["ilcs"][0]["gains"]
    assert dfd2["K_i"] == pytest.approx(10.0 * dfd2["K_omega1"])
    gfmfd = resolve(minimal("gfm-freq-droop"))["ilcs"][0]["gains"]
    assert gfmfd["K_i1"] == pytest.approx(10.0 / gfmfd["m_p1"])
    # explicit values win
    explicit = resolve(minimal("dual-freq-droop-2", gains={"K_i": 7.0}))
    assert explicit["ilcs"][0]["gains"]["K_i"] == 7.0


def test_set_parameter_paths(two_mg_resolved):
    out = set_parameter(two_mg_resolved, "ilc.K_dc", 0.25)
    assert out["ilcs"][0]["physical"]["K_dc"] == 0.25
    out = set_parameter(two_mg_resolved, "ilc.tau", 0.2)
    assert out["ilcs"][0]["physical"]["tau1"] == 0.2
    assert out["ilcs"][0]["physical"]["tau2"] == 0.2
    out = set_parameter(two_mg_resolved, "ilc.L", 5e-4)
    phys = out["ilcs"][0]["physical"]
    assert phys["B"] == pytest.approx(phys["V_ac"] ** 2 / (100 * 3.141592653589793 * 5e-4))
    out = set_parameter(two_mg_resolved, "ilc.gains.K_omega", 5e7)
    assert out["ilcs"][0]["gains"]["K_omega1"] == 5e7
    assert out["ilcs"][0]["gains"]["K_omega2"] == 5e7
    with pytest.raises(SchemaViolation):
        set_parameter(two_mg_resolved, "ilc.gains.bogus", 1.0)
    # the original is never mutated
    assert two_mg_resolved["ilcs"][0]["physical"]["K_dc"] == 1.0


def test_set_parameter_rederives_the_filter_constant(two_mg_resolved):
    """Every path that sets L or V_ac re-derives B; B itself is set directly."""
    def filter_b(path, value):
        return set_parameter(two_mg_resolved, path, value)["ilcs"][0]["physical"]["B"]

    b0 = two_mg_resolved["ilcs"][0]["physical"]["B"]
    assert filter_b("ilc.physical.L", 2e-3) == filter_b("ilc.L", 2e-3) == pytest.approx(b0 / 2)
    assert filter_b("ilc.V_ac", 6600.0) == filter_b("ilc.physical.V_ac", 6600.0)
    assert filter_b("ilc.V_ac", 6600.0) == pytest.approx(4 * b0)
    assert filter_b("ilc[1].V_ac", 6600.0) == pytest.approx(4 * b0)
    assert filter_b("ilc.B", 1e7) == filter_b("ilc.physical.B", 1e7) == 1e7
    with pytest.raises(SchemaViolation, match="unknown physical field 'tau'"):
        set_parameter(two_mg_resolved, "ilc.physical.tau", 0.1)
    with pytest.raises(SchemaViolation, match="unknown parameter path 'bogus'"):
        set_parameter(two_mg_resolved, "ilc.bogus", 0.1)


def test_build_system_structure(two_mg_resolved):
    bundle = build_system(two_mg_resolved)
    assert bundle.network.n_mgs == 2
    assert bundle.network.n_ilcs == 1
    assert bundle.units[0].scheme == "dual-droop-matching"
    assert bundle.events[0].mg == 0  # converted to 0-based
    assert bundle.rating(0) == pytest.approx(4e8)


def test_rating_left_out_follows_default_rating():
    """A block without a rating resolves to ``mg.default_rating`` of its
    model, for both MG forms, at the scenario's nominal frequency."""
    raw = minimal()
    raw["f_nominal"] = 60.0
    resolved = resolve(raw)
    omega_nominal = 2.0 * math.pi * 60.0
    models = (SwingGovernor(M=3e7, D=1e4, T_g=0.3, inv_R=4e7),
              FirstOrderDroop(T=1.0, D=2e7))
    for block, model in zip(resolved["mgs"], models):
        assert block["rating"] == default_rating(model, omega_nominal)
        assert block["rating"] != default_rating(model)  # not the 50 Hz value
    assert build_system(resolved).rating(1) == default_rating(models[1], omega_nominal)


def test_set_parameter_single_ilc():
    resolved = resolve(shipped_scenario("three-mg"))
    out = set_parameter(resolved, "ilc[2].K_dc", 0.3)
    assert out["ilcs"][0]["physical"]["K_dc"] == 1.0
    assert out["ilcs"][1]["physical"]["K_dc"] == 0.3
    with pytest.raises(SchemaViolation):
        set_parameter(resolved, "ilc[9].K_dc", 0.3)
    # an unprefixed path reaches every ILC
    out = set_parameter(resolved, "ilc.gains.K_omega", 5e7)
    assert [block["gains"]["K_omega2"] for block in out["ilcs"]] == [5e7, 5e7]


@pytest.mark.parametrize("path", ["ilc[a].K_dc", "ilc[].K_dc"])
def test_set_parameter_malformed_ilc_index(two_mg_resolved, path):
    with pytest.raises(SchemaViolation, match="is not an integer"):
        set_parameter(two_mg_resolved, path, 0.3)


@pytest.mark.parametrize("inductance", [0.0, -1e-3, math.inf, math.nan])
def test_non_positive_inductance_rejected(two_mg_resolved, inductance):
    with pytest.raises(ValidationError, match="filter inductance L"):
        set_parameter(two_mg_resolved, "ilc.L", inductance)
    raw = minimal()
    raw["ilcs"][0]["physical"] = {"L": inductance}
    with pytest.raises(ValidationError):
        resolve(raw)


@pytest.mark.parametrize("rating", [0.0, -1.0])
def test_non_positive_rating_rejected(rating):
    raw = shipped_scenario("two-mg")
    raw["mgs"][0]["rating"] = rating
    with pytest.raises(SchemaViolation, match=r"mgs\[0\]: rating must be strictly positive"):
        resolve(raw)


def test_non_positive_nominal_frequency_rejected():
    raw = minimal()
    raw["f_nominal"] = 0.0
    with pytest.raises(SchemaViolation, match="f_nominal"):
        resolve(raw)


@pytest.mark.parametrize("t_end", [0.0, -5.0])
def test_non_positive_t_end_rejected(t_end):
    raw = shipped_scenario("two-mg")
    raw["sim"]["t_end"] = t_end
    with pytest.raises(SchemaViolation) as info:
        resolve(raw)
    assert info.value.path == "scenario.sim.t_end"


@pytest.mark.parametrize("sim, key", [
    ({"rtol": -1e-6}, "rtol"),
    ({"atol_scale": -1.0}, "atol_scale"),
    ({"rtol": 0.0, "atol_scale": 0.0}, "atol_scale"),
    ({"max_step": 0.0}, "max_step"),
    ({"max_step": -1.0}, "max_step"),
])
def test_out_of_range_sim_settings_rejected(sim, key):
    raw = shipped_scenario("two-mg")
    raw["sim"].update(sim)
    with pytest.raises(SchemaViolation) as info:
        resolve(raw)
    assert info.value.path == f"scenario.sim.{key}"
