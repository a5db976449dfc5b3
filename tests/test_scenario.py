import json
import math
from dataclasses import asdict, fields

import pytest

from multigrid_ilc.errors import SchemaViolation, ValidationError
from multigrid_ilc.ilc import SCHEME, SCHEMES, Gains, IlcPhysical, filter_susceptance_power
from multigrid_ilc.mg import FirstOrderDroop, SwingGovernor, default_rating
from multigrid_ilc.scenario import (
    _GAIN_KEYS,
    _PHYS_KEYS,
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
    with pytest.raises(SchemaViolation,
                       match=r"ilcs\[0\]\.scheme: 'machting' is not one of") as exc:
        resolve(minimal("machting"))
    assert exc.value.path == "scenario.ilcs[0].scheme"


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


@pytest.mark.parametrize("block, value", [
    ("gains", 5), ("gains", "abc"), ("physical", [1, 2]), ("physical", ["ab"]),
])
def test_ilc_block_that_is_not_an_object_rejected(block, value):
    raw = minimal()
    raw["ilcs"][0][block] = value
    with pytest.raises(SchemaViolation) as info:
        resolve(raw)
    assert info.value.path == f"scenario.ilcs[0].{block}"


@pytest.mark.parametrize("model", [["swing-governor"], {"form": "swing-governor"}])
def test_mg_model_that_is_not_a_string_rejected(model):
    raw = minimal()
    raw["mgs"][0]["model"] = model
    with pytest.raises(SchemaViolation) as info:
        resolve(raw)
    assert info.value.path == "scenario.mgs[0].model"


@pytest.mark.parametrize("name", ["", ".", "..", "../x", "a/b", "a\\b", "a\u0000b"])
def test_name_that_is_not_a_file_name_prefix_rejected(name):
    """The name prefixes every output file, so it must stay inside --out."""
    raw = minimal()
    raw["name"] = name
    with pytest.raises(SchemaViolation) as info:
        resolve(raw)
    assert info.value.path == "scenario.name"


@pytest.mark.parametrize("name", ["three-mg-0", "gfm-dual-droop-v3", "case 1.v2", "..x"])
def test_name_usable_as_a_file_name_prefix_accepted(name):
    raw = minimal()
    raw["name"] = name
    assert resolve(raw)["name"] == name


@pytest.mark.parametrize("value", [None, {"x": 1}, 3.5, 7, True, ["a"]])
@pytest.mark.parametrize("where", ["scenario", "mgs", "ilcs"])
def test_name_that_is_not_a_string_rejected(where, value):
    """A name labels outputs and prefixes file names; a non-string is not
    turned into its Python repr."""
    raw = minimal()
    block = raw if where == "scenario" else raw[where][0]
    block["name"] = value
    with pytest.raises(SchemaViolation) as info:
        resolve(raw)
    assert info.value.path == {"scenario": "scenario.name",
                               "mgs": "scenario.mgs[0].name",
                               "ilcs": "scenario.ilcs[0].name"}[where]


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
    with pytest.raises(SchemaViolation, match=r"^mg\.K_dc: parameter paths start with 'ilc'"):
        set_parameter(two_mg_resolved, "mg.K_dc", 0.1)
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


@pytest.mark.parametrize("section, key, value, message", [
    ("gains", "m1", 0, "scheme 'dual-droop-matching' requires gain m1 > 0, got 0.0"),
    ("physical", "tau1", 0, "tau1 must be strictly positive, got 0.0"),
    ("physical", "K_dc", -1, "K_dc must be non-negative, got -1.0"),
], ids=["m1", "tau1", "K_dc"])
def test_ilc_parameter_error_names_the_ilc(section, key, value, message):
    raw = shipped_scenario("three-mg")
    raw["ilcs"][1][section] = {key: value}
    with pytest.raises(SchemaViolation) as info:
        resolve(raw)
    assert info.value.path == "scenario.ilcs[1]"
    assert str(info.value) == f"scenario.ilcs[1]: {message}"


def test_zero_droop_slope_reaches_the_unit_check():
    """gfm-freq-droop's default K_i1 is 10/m_p1; a zero m_p1 is not divided
    by but rejected by the unit, at the ILC's path."""
    with pytest.raises(SchemaViolation) as info:
        resolve(minimal("gfm-freq-droop", gains={"m_p1": 0}))
    assert str(info.value) == ("scenario.ilcs[0]: scheme 'gfm-freq-droop' requires "
                               "gain m_p1 > 0, got 0.0")


@pytest.mark.parametrize("edit, path", [
    (lambda raw: raw["mgs"][0].update(M=10**400), "scenario.mgs[0].M"),
    (lambda raw: raw["ilcs"][0].update(physical={"C": 10**400}), "scenario.ilcs[0].physical.C"),
    (lambda raw: raw["ilcs"][0].update(gains={"m1": 10**400}), "scenario.ilcs[0].gains.m1"),
    (lambda raw: raw.update(events=[{"time": 10**400, "mg": 1, "delta_p_load": -1.0}]),
     "scenario.events[0].time"),
    (lambda raw: raw.update(sim={"t_end": 10**400}), "scenario.sim.t_end"),
], ids=["mgs", "physical", "gains", "events", "sim"])
def test_integer_beyond_the_float_range_is_not_finite(edit, path):
    raw = minimal()
    edit(raw)
    with pytest.raises(SchemaViolation) as info:
        resolve(raw)
    assert str(info.value) == f"{path}: must be finite"


@pytest.mark.parametrize("physical, f_nominal, named", [
    ({"V_ac": 1e300}, 50.0, "V_ac = 1e+300"),
    ({"L": 1e-320}, 50.0, "L = 1e-320"),
    ({}, 1e308, "f = 1e+308"),
])
def test_filter_constant_error_names_what_was_written(physical, f_nominal, named):
    raw = minimal()
    raw["f_nominal"] = f_nominal
    raw["ilcs"][0]["physical"] = physical
    with pytest.raises(SchemaViolation) as info:
        resolve(raw)
    assert info.value.path == "scenario.ilcs[0]"
    assert "filter power constant" in str(info.value)
    assert named in str(info.value)


def test_sim_settings_reach_the_integrator_options():
    raw = minimal()
    raw["sim"] = {"rtol": 1e-6, "atol_scale": 2.0, "max_step": 0.5}
    options = build_system(resolve(raw)).options
    assert (options.rtol, options.atol_scale, options.max_step) == (1e-6, 2.0, 0.5)
    assert build_system(resolve(minimal())).options.max_step == math.inf


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
    ({"atol_scale": 1e-320}, "atol_scale"),  # the scaled tolerances underflow to 0
])
def test_out_of_range_sim_settings_rejected(sim, key):
    raw = shipped_scenario("two-mg")
    raw["sim"].update(sim)
    with pytest.raises(SchemaViolation) as info:
        resolve(raw)
    assert info.value.path == f"scenario.sim.{key}"


def test_one_spelling_per_converter_parameter():
    """Schemes, gains and physical fields are named by their scenario keys."""
    for scheme in SCHEMES:
        assert set(SCHEME[scheme].gains) <= set(_GAIN_KEYS)
    assert {f.name for f in fields(Gains)} <= set(_GAIN_KEYS)
    assert {f.name for f in fields(IlcPhysical)} <= set(_PHYS_KEYS)


@pytest.mark.parametrize("name, scheme", [(name, None) for name in shipped_scenario_names()]
                         + [("two-mg", scheme) for scheme in SCHEMES])
def test_built_unit_fields_are_its_block_values(name, scheme, scheme_scenario):
    resolved = load_resolved(name) if scheme is None else scheme_scenario(scheme)
    units = build_system(resolved).units
    assert len(units) == len(resolved["ilcs"])
    for unit, block in zip(units, resolved["ilcs"]):
        assert (unit.scheme, unit.name) == (block["scheme"], block["name"])
        assert asdict(unit.gains) == block["gains"]
        physical = asdict(unit.physical)
        assert physical == {key: block["physical"][key] for key in physical}
        assert set(block["physical"]) - set(physical) == {"L", "V_ac"}


@pytest.mark.parametrize("scheme, key, value", [
    ("dual-freq-droop-2", "K_omega1", 1e308),  # K_i = 10*K_omega1
    ("dual-freq-droop-1", "K_v1", 1e308),  # K_idc = 10*K_pdc = 10*K_v1
    ("gfm-freq-droop", "m_p1", 1e-320),  # K_i1 = 10/m_p1
])
def test_overflowing_derived_gain_is_reported_under_the_key_written(scheme, key, value):
    raw = shipped_scenario("two-mg")
    raw["ilcs"][0].update(scheme=scheme, gains={key: value})
    with pytest.raises(SchemaViolation) as info:
        resolve(raw)
    assert info.value.path == f"scenario.ilcs[0].gains.{key}"
    assert "inf" in str(info.value)


def _three_mg_first_ilc():
    raw = shipped_scenario("three-mg")
    raw["ilcs"] = raw["ilcs"][:1]
    return raw


def _two_mg_edited(**block):
    raw = shipped_scenario("two-mg")
    raw["ilcs"][0].update(block)
    return raw


@pytest.mark.parametrize("raw, message", [
    (_two_mg_edited(endpoints=[1, 1]), "ILC 1 connects MG 1 to itself"),
    (_three_mg_first_ilc(), "MGs [3] are not reachable from MG 1"),
    (_two_mg_edited(endpoints=[1, 3]), "ILC 1 references MG 3"),
], ids=["self-loop", "unreachable-mg", "dangling-endpoint"])
def test_resolve_rejects_an_invalid_network(raw, message):
    with pytest.raises(SchemaViolation) as info:
        resolve(raw)
    assert info.value.path == "scenario.ilcs"
    assert message in str(info.value)


@pytest.mark.parametrize("time", [60.0, 100.0])
def test_event_at_or_after_t_end_rejected(time):
    """An event the run would never reach is an error, not a silent no-op."""
    raw = shipped_scenario("two-mg")
    raw["events"].append({"time": time, "mg": 2, "delta_p_load": 1e6})
    with pytest.raises(SchemaViolation) as info:
        resolve(raw)
    assert info.value.path == f"scenario.events[{len(raw['events']) - 1}].time"
    assert "t_end = 60.0" in str(info.value)


def test_negative_event_time_rejected():
    """A run starts at t = 0, so an event before it would be applied at
    t = 0 as if it came then; an event at t = 0 itself is kept."""
    raw = shipped_scenario("two-mg")
    raw["events"][0]["time"] = -5
    with pytest.raises(SchemaViolation) as info:
        resolve(raw)
    assert info.value.path == "scenario.events[0].time"
    assert "must not be negative" in str(info.value)
    raw["events"][0]["time"] = 0.0
    assert resolve(raw)["events"][0]["time"] == 0.0


@pytest.mark.parametrize("key, value", [("L", 5e-3), ("V_ac", 4e3)])
def test_own_filter_parameter_rederives_an_inherited_filter_constant(key, value):
    """An ILC block's own L or V_ac re-derive a B inherited from defaults, as
    set_parameter does; a B set in the same block is kept, and both dumps
    re-resolve to themselves."""
    raw = shipped_scenario("two-mg")
    raw["defaults"] = {"physical": {"B": 1e7}}
    raw["ilcs"][0]["physical"] = {key: value}
    resolved = resolve(raw)
    phys = resolved["ilcs"][0]["physical"]
    assert phys[key] == value
    assert phys["B"] == filter_susceptance_power(phys["V_ac"], phys["L"], 50.0) != 1e7
    inherited = dict(raw, ilcs=[{**raw["ilcs"][0], "physical": {}}])
    assert resolved == set_parameter(resolve(inherited), f"ilc.{key}", value)
    raw["ilcs"][0]["physical"]["B"] = 2e7
    kept = resolve(raw)
    assert kept["ilcs"][0]["physical"]["B"] == 2e7
    for again in (resolved, kept):
        assert resolve(json.loads(dump_resolved(again))) == again
