"""Scenario files: schema validation, catalogue defaults, system building.

A scenario is a JSON document with sections ``mgs``, ``ilcs``, ``events``,
``sim``, plus an optional ``defaults`` section applied to every ILC.  Any
omitted converter parameter falls back to the converter catalogue in
:mod:`multigrid_ilc.ilc` (``PHYSICAL_DEFAULTS`` and ``GAIN_DEFAULTS``, the
per-unit-consistent set used by all shipped scenarios); resolved
configurations echo every value so they can be re-parsed bit-identically.

Two integral gains get scheme-specific defaults: the shared-regulation
dual-frequency-droop integrates the raw frequency mismatch (its sibling
integrates the droop-weighted mismatch), so its default integral gain is
scaled by the frequency droop; similarly the grid-forming frequency-droop
equalizer integrates a frequency difference that re-enters through the
droop slope m_p, so its default is scaled by 1/m_p.  This keeps the
equalization bandwidth consistent across schemes.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any

from .engine import IntegrateOptions, LoadEvent, OdeSystem
from .errors import SchemaViolation, UnknownScheme, ValidationError
from .ilc import (GAIN_DEFAULTS, PHYSICAL_DEFAULTS, SCHEMES, Gains, IlcPhysical, IlcUnit,
                  filter_susceptance_power)
from .mg import FirstOrderDroop, MgModel, SwingGovernor, default_rating
from .network import ValidatedNetwork

_GAIN_KEYS = tuple(GAIN_DEFAULTS) + ("K_pdc", "K_idc")
_PHYS_KEYS = tuple(PHYSICAL_DEFAULTS) + ("B",)

# MG model forms: the model class and its required parameters
_MG_FORMS = {
    "swing-governor": (SwingGovernor, {"M", "D", "T_g", "inv_R"}),
    "first-order-droop": (FirstOrderDroop, {"T", "D"}),
}

_TOP_KEYS = {"name", "f_nominal", "mgs", "ilcs", "defaults", "events", "sim"}
_SIM_KEYS = {"t_end", "rtol", "atol_scale", "max_step"}

# file-key -> Gains field
_GAIN_FIELD = {k: k.lower() for k in _GAIN_KEYS}


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaViolation(path, message)


def _check_number(value: Any, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             path, f"expected a number, got {value!r}")
    _require(math.isfinite(float(value)), path, "must be finite")
    return float(value)


def _check_keys(obj: dict, allowed, path: str) -> None:
    _require(isinstance(obj, dict), path, "expected an object")
    for key in obj:
        _require(key in allowed, f"{path}.{key}", "unknown key")


def load_scenario(path: str | Path) -> dict:
    """Read a scenario document from disk (no validation); a file that is
    not UTF-8 JSON raises :class:`SchemaViolation` naming where it broke."""
    data = Path(path).read_bytes()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaViolation(str(path), f"not UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaViolation(
            str(path), f"not JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc


def shipped_scenario(name: str) -> dict:
    """Load one of the scenarios shipped with the package."""
    ref = resources.files("multigrid_ilc.scenarios").joinpath(f"{name}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def shipped_scenario_names() -> tuple[str, ...]:
    return ("two-mg", "three-mg", "ieee39-reduced")


def resolve(raw: dict) -> dict:
    """Validate a scenario document and apply catalogue defaults.

    Returns a fully populated copy; re-resolving the result is the identity.
    """
    _check_keys(raw, _TOP_KEYS, "scenario")
    _require("mgs" in raw, "scenario.mgs", "required section missing")
    _require("ilcs" in raw, "scenario.ilcs", "required section missing")
    out: dict[str, Any] = {
        "name": str(raw.get("name", "scenario")),
        "f_nominal": _check_number(raw.get("f_nominal", 50.0), "scenario.f_nominal"),
    }
    _require(out["f_nominal"] > 0.0, "scenario.f_nominal", "must be strictly positive")
    omega_nominal = 2.0 * math.pi * out["f_nominal"]

    mgs = raw["mgs"]
    _require(isinstance(mgs, list) and mgs, "scenario.mgs", "expected a non-empty list")
    out_mgs = []
    for i, block in enumerate(mgs):
        path = f"scenario.mgs[{i}]"
        _require(isinstance(block, dict), path, "expected an object")
        model = block.get("model")
        _require(model in _MG_FORMS, f"{path}.model",
                 f"expected one of {sorted(_MG_FORMS)}, got {model!r}")
        keys = _MG_FORMS[model][1]
        _check_keys(block, keys | {"model", "name", "p_load", "rating"}, path)
        resolved = {"model": model, "name": str(block.get("name", f"MG{i + 1}"))}
        for key in sorted(keys):
            _require(key in block, f"{path}.{key}", "required MG parameter missing")
            resolved[key] = _check_number(block[key], f"{path}.{key}")
        resolved["p_load"] = _check_number(block.get("p_load", 0.0), f"{path}.p_load")
        if "rating" in block:
            resolved["rating"] = _check_number(block["rating"], f"{path}.rating")
        try:
            resolved["rating"] = default_rating(_mg_model(resolved), omega_nominal)
        except ValidationError as exc:
            raise SchemaViolation(path, str(exc)) from exc
        out_mgs.append(resolved)
    out["mgs"] = out_mgs

    defaults = raw.get("defaults", {})
    _check_keys(defaults, {"physical", "gains"}, "scenario.defaults")
    default_phys = defaults.get("physical", {})
    default_gains = defaults.get("gains", {})
    _check_keys(default_phys, _PHYS_KEYS, "scenario.defaults.physical")
    _check_keys(default_gains, _GAIN_KEYS, "scenario.defaults.gains")

    ilcs = raw["ilcs"]
    _require(isinstance(ilcs, list) and ilcs, "scenario.ilcs", "expected a non-empty list")
    out_ilcs = []
    for l, block in enumerate(ilcs):
        path = f"scenario.ilcs[{l}]"
        _require(isinstance(block, dict), path, "expected an object")
        _check_keys(block, {"name", "endpoints", "scheme", "physical", "gains"}, path)
        scheme = block.get("scheme")
        if scheme not in SCHEMES:
            raise UnknownScheme(
                f"{path}.scheme: {scheme!r} is not one of {list(SCHEMES)}"
            )
        endpoints = block.get("endpoints")
        _require(
            isinstance(endpoints, list) and len(endpoints) == 2
            and all(isinstance(e, int) and not isinstance(e, bool) for e in endpoints),
            f"{path}.endpoints", "expected a pair of 1-based MG indices",
        )
        for e in endpoints:
            _require(1 <= e <= len(out_mgs), f"{path}.endpoints",
                     f"MG index {e} out of range 1..{len(out_mgs)}")
        phys_in = dict(default_phys)
        phys_in.update(block.get("physical", {}))
        _check_keys(phys_in, _PHYS_KEYS, f"{path}.physical")
        phys = {k: _check_number(phys_in.get(k, PHYSICAL_DEFAULTS[k]),
                                 f"{path}.physical.{k}")
                for k in PHYSICAL_DEFAULTS}
        if "B" in phys_in:
            phys["B"] = _check_number(phys_in["B"], f"{path}.physical.B")
        else:
            phys["B"] = filter_susceptance_power(phys["V_ac"], phys["L"], out["f_nominal"])

        gains_in = dict(default_gains)
        gains_in.update(block.get("gains", {}))
        _check_keys(gains_in, _GAIN_KEYS, f"{path}.gains")
        gains = {k: _check_number(gains_in.get(k, GAIN_DEFAULTS[k]),
                                  f"{path}.gains.{k}")
                 for k in GAIN_DEFAULTS}
        gains["K_pdc"] = _check_number(gains_in.get("K_pdc", gains["K_v1"]),
                                       f"{path}.gains.K_pdc")
        gains["K_idc"] = _check_number(gains_in.get("K_idc", 10.0 * gains["K_pdc"]),
                                       f"{path}.gains.K_idc")
        # scheme-consistent equalization bandwidth (see module docstring)
        if scheme == "dual-freq-droop-2" and "K_i" not in gains_in:
            gains["K_i"] = GAIN_DEFAULTS["K_i"] * gains["K_omega1"]
        if scheme == "gfm-freq-droop":
            if "K_i1" not in gains_in:
                gains["K_i1"] = GAIN_DEFAULTS["K_i1"] / gains["m_p1"]
            if "K_i2" not in gains_in:
                gains["K_i2"] = GAIN_DEFAULTS["K_i2"] / gains["m_p2"]
        out_ilcs.append(
            {
                "name": str(block.get("name", f"ILC{l + 1}")),
                "endpoints": list(endpoints),
                "scheme": scheme,
                "physical": phys,
                "gains": gains,
            }
        )
    out["ilcs"] = out_ilcs

    events_in = raw.get("events", [])
    _require(isinstance(events_in, list), "scenario.events", "expected a list")
    out_events = []
    last_time = -math.inf
    for k, ev in enumerate(events_in):
        path = f"scenario.events[{k}]"
        _check_keys(ev, {"time", "mg", "delta_p_load"}, path)
        time = _check_number(ev.get("time"), f"{path}.time")
        _require(time >= last_time, f"{path}.time", "events must be sorted by time")
        last_time = time
        mg = ev.get("mg")
        _require(isinstance(mg, int) and not isinstance(mg, bool)
                 and 1 <= mg <= len(out_mgs), f"{path}.mg",
                 f"expected a 1-based MG index, got {mg!r}")
        out_events.append(
            {"time": time, "mg": mg,
             "delta_p_load": _check_number(ev.get("delta_p_load"),
                                           f"{path}.delta_p_load")}
        )
    out["events"] = out_events

    sim_in = raw.get("sim", {})
    _check_keys(sim_in, _SIM_KEYS, "scenario.sim")
    sim = {
        "t_end": _check_number(sim_in.get("t_end", 60.0), "scenario.sim.t_end"),
        "rtol": _check_number(sim_in.get("rtol", 1e-7), "scenario.sim.rtol"),
        "atol_scale": _check_number(sim_in.get("atol_scale", 1.0),
                                    "scenario.sim.atol_scale"),
    }
    _require(sim["t_end"] > 0.0, "scenario.sim.t_end", "must be strictly positive")
    _require(sim["rtol"] >= 0.0, "scenario.sim.rtol", "must be non-negative")
    _require(sim["atol_scale"] > 0.0, "scenario.sim.atol_scale",
             "must be strictly positive")
    if "max_step" in sim_in:
        sim["max_step"] = _check_number(sim_in["max_step"], "scenario.sim.max_step")
        _require(sim["max_step"] > 0.0, "scenario.sim.max_step",
                 "must be strictly positive")
    out["sim"] = sim
    return out


def dump_resolved(resolved: dict) -> str:
    """Canonical JSON text of a resolved configuration."""
    return json.dumps(resolved, indent=2, sort_keys=True)


@dataclass
class SystemBundle:
    """Everything needed to run a resolved scenario."""

    name: str
    f_nominal: float
    network: ValidatedNetwork
    models: tuple[MgModel, ...]
    units: tuple[IlcUnit, ...]
    ode: OdeSystem
    events: tuple[LoadEvent, ...]
    options: IntegrateOptions
    t_end: float
    resolved: dict

    @property
    def omega_nominal(self) -> float:
        return 2.0 * math.pi * self.f_nominal

    def rating(self, mg_index: int) -> float:
        return default_rating(self.models[mg_index], self.omega_nominal)


def _mg_model(block: dict) -> MgModel:
    """The MG model of one resolved MG block; a block without a rating gives
    a model that follows the default rating rule."""
    model_class, keys = _MG_FORMS[block["model"]]
    return model_class(**{key: block[key] for key in keys}, p_load=block["p_load"],
                       rating=block.get("rating"), name=block["name"])


def build_system(resolved: dict) -> SystemBundle:
    """Construct the validated network, models, units, and assembled ODE."""
    models = [_mg_model(block) for block in resolved["mgs"]]
    units = []
    for block in resolved["ilcs"]:
        phys = IlcPhysical(
            c=block["physical"]["C"],
            v_dc_ref=block["physical"]["V_dc_ref"],
            k_dc=block["physical"]["K_dc"],
            tau1=block["physical"]["tau1"],
            tau2=block["physical"]["tau2"],
            b=block["physical"]["B"],
        )
        gains = Gains(**{_GAIN_FIELD[k]: v for k, v in block["gains"].items()})
        units.append(IlcUnit(block["scheme"], phys, gains, name=block["name"]))
    net = ValidatedNetwork(len(models), tuple(tuple(e - 1 for e in block["endpoints"])
                                              for block in resolved["ilcs"]))
    ode = OdeSystem(net, models, units)
    events = tuple(
        LoadEvent(time=ev["time"], mg=ev["mg"] - 1, delta_p_load=ev["delta_p_load"])
        for ev in resolved["events"]
    )
    opts = IntegrateOptions(
        rtol=resolved["sim"]["rtol"],
        atol_scale=resolved["sim"]["atol_scale"],
    )
    if "max_step" in resolved["sim"]:
        opts.max_step = resolved["sim"]["max_step"]
    return SystemBundle(
        name=resolved["name"],
        f_nominal=resolved["f_nominal"],
        network=net,
        models=tuple(models),
        units=tuple(units),
        ode=ode,
        events=events,
        options=opts,
        t_end=resolved["sim"]["t_end"],
        resolved=resolved,
    )


def load_resolved(source: str | Path | dict) -> dict:
    """Resolve a scenario given as a document, a shipped name or a file path."""
    if isinstance(source, dict):
        return resolve(source)
    if str(source) in shipped_scenario_names():
        return resolve(shipped_scenario(str(source)))
    return resolve(load_scenario(source))


def set_parameter(resolved: dict, path: str, value: float) -> dict:
    """Return a copy of a resolved scenario with one parameter replaced.

    Paths address every ILC at once: ``ilc.K_dc``, ``ilc.tau`` (both lags),
    ``ilc.gains.K_omega`` (both sides; likewise ``K_v``, ``m``, ``m_p``), or
    any exact ``ilc.gains.<name>`` / ``ilc.physical.<name>`` field, the
    ``physical.`` prefix being optional.  Setting ``L`` or ``V_ac``
    re-derives the filter constant B; B itself can be set directly.  A
    single ILC is addressed as ``ilc[2].K_dc`` (1-based).
    """
    out = copy.deepcopy(resolved)
    head, _, rest = path.partition(".")
    indices = range(len(out["ilcs"]))
    if head.startswith("ilc[") and head.endswith("]"):
        try:
            idx = int(head[4:-1]) - 1
        except ValueError:
            raise SchemaViolation(path, f"ILC index {head[4:-1]!r} is not an integer") from None
        if not (0 <= idx < len(out["ilcs"])):
            raise SchemaViolation(path, f"ILC index {idx + 1} out of range")
        indices = [idx]
    elif head != "ilc":
        raise SchemaViolation(path, "parameter paths start with 'ilc' or 'ilc[n]'")
    bundles = {
        "K_omega": ("K_omega1", "K_omega2"),
        "K_v": ("K_v1", "K_v2"),
        "m": ("m1", "m2"),
        "m_p": ("m_p1", "m_p2"),
    }
    phys_key = rest.removeprefix("physical.")
    for l in indices:
        block = out["ilcs"][l]
        phys = block["physical"]
        if rest == "tau":
            phys["tau1"] = phys["tau2"] = value
        elif phys_key in phys:
            phys[phys_key] = value
            if phys_key in ("L", "V_ac"):
                phys["B"] = filter_susceptance_power(phys["V_ac"], phys["L"], out["f_nominal"])
        elif phys_key != rest:
            raise SchemaViolation(path, f"unknown physical field {phys_key!r}")
        elif rest.startswith("gains."):
            key = rest.split(".", 1)[1]
            for field in bundles.get(key, (key,)):
                if field not in block["gains"]:
                    raise SchemaViolation(path, f"unknown gain field {field!r}")
                block["gains"][field] = value
        else:
            raise SchemaViolation(path, f"unknown parameter path {rest!r}")
    return out
