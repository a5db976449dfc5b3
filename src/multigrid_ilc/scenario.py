"""Scenario files: schema validation, catalogue defaults, system building.

A scenario is a JSON document with sections ``mgs``, ``ilcs``, ``events``,
``sim``, plus an optional ``defaults`` section applied to every ILC.  Any
omitted converter parameter falls back to the converter catalogue in
:mod:`multigrid_ilc.ilc` (``PHYSICAL_DEFAULTS`` and ``GAIN_DEFAULTS``, the
per-unit-consistent set used by all shipped scenarios); resolved
configurations echo every value so they can be re-parsed bit-identically.
The keys of a resolved ILC block are the fields of its unit, which
:func:`_ilc_unit` builds as :func:`_mg_model` builds an MG block's model;
:func:`resolve` builds both, and the network (at ``scenario.ilcs``), so what
a model, unit or network rejects is reported at its path.  The gains whose
defaults derive from other gains are filled in by
:func:`multigrid_ilc.ilc.scheme_gains`.  Every number of a section is read
by :func:`_numbers`; ``sim`` is read first, as events come before ``t_end``.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Any

from .engine import IntegrateOptions, LoadEvent, OdeSystem
from .errors import SchemaViolation, ValidationError
from .ilc import (GAIN_DEFAULTS, PHYSICAL_DEFAULTS, SCHEMES, Gains, IlcPhysical, IlcUnit,
                  filter_susceptance_power, scheme_gains)
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
# each sim setting's default (None: left out of the resolved block unless
# set); IntegrateOptions.out_of_range states the integrator settings' ranges
_SIM = {"t_end": 60.0, "rtol": 1e-7, "atol_scale": 1.0, "max_step": None}


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaViolation(path, message)


def _check_number(value: Any, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    _require(math.isfinite(number), path, "must be finite")
    return number


def _numbers(block: dict, defaults: dict, path: str) -> dict[str, float]:
    """Each key of ``defaults`` read from ``block`` as a finite number, or
    the key's default where the block leaves it out; a default of None makes
    the key required."""
    out = {}
    for key, default in defaults.items():
        _require(key in block or default is not None, f"{path}.{key}", "required value missing")
        out[key] = _check_number(block[key], f"{path}.{key}") if key in block else default
    return out


def _check_name(block: dict, default: str, path: str) -> str:
    name = block.get("name", default)
    _require(isinstance(name, str), path, f"expected a string, got {name!r}")
    return name


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
    """Validate a scenario document and apply catalogue defaults; the ``sim``
    settings the integrator takes must pass :meth:`IntegrateOptions.out_of_range`.

    Returns a fully populated copy; re-resolving the result is the identity.
    """
    _check_keys(raw, _TOP_KEYS, "scenario")
    _require("mgs" in raw, "scenario.mgs", "required section missing")
    _require("ilcs" in raw, "scenario.ilcs", "required section missing")
    out: dict[str, Any] = {
        "name": _check_name(raw, "scenario", "scenario.name"),
        "f_nominal": _check_number(raw.get("f_nominal", 50.0), "scenario.f_nominal"),
    }
    # the name prefixes output file names, so it must not leave their directory
    _require(out["name"] not in ("", ".", "..")
             and not any(c in out["name"] for c in "/\\\0"),
             "scenario.name", f"must be a plain file name, got {out['name']!r}")
    _require(out["f_nominal"] > 0.0, "scenario.f_nominal", "must be strictly positive")
    omega_nominal = 2.0 * math.pi * out["f_nominal"]

    mgs = raw["mgs"]
    _require(isinstance(mgs, list) and mgs, "scenario.mgs", "expected a non-empty list")
    out_mgs = []
    for i, block in enumerate(mgs):
        path = f"scenario.mgs[{i}]"
        _require(isinstance(block, dict), path, "expected an object")
        model = block.get("model")
        _require(isinstance(model, str) and model in _MG_FORMS, f"{path}.model",
                 f"expected one of {sorted(_MG_FORMS)}, got {model!r}")
        keys = _MG_FORMS[model][1]
        _check_keys(block, keys | {"model", "name", "p_load", "rating"}, path)
        resolved = {"model": model, "name": _check_name(block, f"MG{i + 1}", f"{path}.name"),
                    **_numbers(block, {**dict.fromkeys(sorted(keys)), "p_load": 0.0,
                                       **dict.fromkeys({"rating"} & block.keys())}, path)}
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
            raise SchemaViolation(f"{path}.scheme",
                                  f"{scheme!r} is not one of {list(SCHEMES)}")
        endpoints = block.get("endpoints")
        _require(
            isinstance(endpoints, list) and len(endpoints) == 2
            and all(isinstance(e, int) and not isinstance(e, bool) for e in endpoints),
            f"{path}.endpoints", "expected a pair of 1-based MG indices",
        )
        own_phys = block.get("physical", {})
        _check_keys(own_phys, _PHYS_KEYS, f"{path}.physical")
        _check_keys(block.get("gains", {}), _GAIN_KEYS, f"{path}.gains")
        phys_in = {**default_phys, **own_phys}
        if "B" not in own_phys and own_phys.keys() & {"L", "V_ac"}:
            phys_in.pop("B", None)  # the block's own L or V_ac re-derive B
        gains_in = {**default_gains, **block.get("gains", {})}
        resolved = {
            "name": _check_name(block, f"ILC{l + 1}", f"{path}.name"),
            "endpoints": list(endpoints),
            "scheme": scheme,
            "physical": {**PHYSICAL_DEFAULTS,
                         **_numbers(phys_in, dict.fromkeys(phys_in), f"{path}.physical")},
            "gains": scheme_gains(scheme, _numbers(gains_in, dict.fromkeys(gains_in),
                                                   f"{path}.gains"), f"{path}.gains"),
        }
        phys = resolved["physical"]
        try:
            if "B" not in phys:
                phys["B"] = filter_susceptance_power(phys["V_ac"], phys["L"], out["f_nominal"])
            _ilc_unit(resolved)
        except ValidationError as exc:
            raise SchemaViolation(path, str(exc)) from exc
        out_ilcs.append(resolved)
    out["ilcs"] = out_ilcs
    try:
        _network(out)
    except ValidationError as exc:
        raise SchemaViolation("scenario.ilcs", str(exc)) from exc

    sim_in = raw.get("sim", {})
    _check_keys(sim_in, _SIM, "scenario.sim")
    out["sim"] = _numbers(sim_in, {key: default for key, default in _SIM.items()
                                   if default is not None or key in sim_in}, "scenario.sim")
    _require(out["sim"]["t_end"] > 0.0, "scenario.sim.t_end", "must be strictly positive")
    if (bad := _options(out["sim"]).out_of_range()) is not None:
        raise SchemaViolation(f"scenario.sim.{bad}", f"{bad} out of range: {out['sim'][bad]!r}")

    events_in = raw.get("events", [])
    _require(isinstance(events_in, list), "scenario.events", "expected a list")
    out_events = []
    last_time = -math.inf
    for k, ev in enumerate(events_in):
        path = f"scenario.events[{k}]"
        _check_keys(ev, {"time", "mg", "delta_p_load"}, path)
        event = _numbers(ev, {"time": None, "delta_p_load": None}, path)
        _require(event["time"] >= 0.0, f"{path}.time", "must not be negative")
        _require(event["time"] >= last_time, f"{path}.time", "events must be sorted by time")
        _require(event["time"] < out["sim"]["t_end"], f"{path}.time",
                 f"must come before sim.t_end = {out['sim']['t_end']!r}")
        last_time = event["time"]
        mg = ev.get("mg")
        _require(isinstance(mg, int) and not isinstance(mg, bool)
                 and 1 <= mg <= len(out_mgs), f"{path}.mg",
                 f"expected a 1-based MG index, got {mg!r}")
        out_events.append({**event, "mg": mg})
    out["events"] = out_events
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


def _ilc_unit(block: dict) -> IlcUnit:
    """The ILC unit of one resolved ILC block, whose keys name the unit's
    fields (L and V_ac enter through B)."""
    physical = {f.name: block["physical"][f.name] for f in fields(IlcPhysical)}
    return IlcUnit(block["scheme"], IlcPhysical(**physical), Gains(**block["gains"]),
                   name=block["name"])


def _network(resolved: dict) -> ValidatedNetwork:
    """The network of a resolved scenario's MG and ILC blocks."""
    return ValidatedNetwork(len(resolved["mgs"]), tuple(tuple(e - 1 for e in block["endpoints"])
                                                         for block in resolved["ilcs"]))


def _options(sim: dict) -> IntegrateOptions:
    """The integrator settings of a resolved ``sim`` block."""
    return IntegrateOptions(**{key: value for key, value in sim.items() if key != "t_end"})


def build_system(resolved: dict) -> SystemBundle:
    """Construct the validated network, models, units, and assembled ODE."""
    models = [_mg_model(block) for block in resolved["mgs"]]
    units = [_ilc_unit(block) for block in resolved["ilcs"]]
    net = _network(resolved)
    ode = OdeSystem(net, models, units)
    events = tuple(
        LoadEvent(time=ev["time"], mg=ev["mg"] - 1, delta_p_load=ev["delta_p_load"])
        for ev in resolved["events"]
    )
    return SystemBundle(
        name=resolved["name"],
        f_nominal=resolved["f_nominal"],
        network=net,
        models=tuple(models),
        units=tuple(units),
        ode=ode,
        events=events,
        options=_options(resolved["sim"]),
        t_end=resolved["sim"]["t_end"],
        resolved=resolved,
    )


def load_resolved(source: str | Path) -> dict:
    """Resolve a scenario given as a shipped name or a file path."""
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
