"""Seeded input generation for the three benchmark workloads.

Every generated input is a raw scenario document, built from the shipped
scenario files read straight from disk; the package under test only ever
receives these documents.  Seed 0 yields the shipped scenarios unperturbed.
The same seed always yields the same documents (``random.Random`` is
stable across Python versions), and ``inputs_hash`` fingerprints them so
that runs on two commits can be shown to have used identical inputs.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from pathlib import Path

SCHEMES = (
    "dual-freq-droop-1",
    "dual-freq-droop-2",
    "dual-acdc-droop",
    "matching",
    "gfm-freq-droop",
    "gfm-dual-droop",
    "dual-droop-matching",
    "gfl-gfm-dual-droop",
)

# perturbation half-widths (relative)
TABLE_MG_SPREAD = 0.05
TABLE_C_SPREAD = 0.03  # C sets the fast DC-bus pole and so the step count
CERT_PHYS_SPREAD = 0.10

# simulate: one round is 8 three-mg trajectories (each scheme once per ILC)
# plus 2 ieee39-reduced trajectories at fixed positions, so that any prefix
# of the round has the same mix on every seed
SIM_ROUND = ("three-mg", "three-mg", "ieee39-reduced", "three-mg", "three-mg",
             "three-mg", "three-mg", "ieee39-reduced", "three-mg", "three-mg")
# certify: variants per scheme; a round visits every scheme once per variant
CERT_VARIANTS = 6
CERT_GRID_POINTS = 400


def _shipped(src: Path, name: str) -> dict:
    path = src / "multigrid_ilc" / "scenarios" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _scale(rng: random.Random, spread: float) -> float:
    return 1.0 + rng.uniform(-spread, spread)


def table_inputs(src: Path, seed: int) -> dict:
    """The two-MG scenario for the boundary table; MG parameters and the
    DC-link capacitance are perturbed for seeds other than 0."""
    doc = _shipped(src, "two-mg")
    if seed:
        rng = random.Random(f"table-{seed}")
        for mg in doc["mgs"]:
            for key in ("M", "D", "T_g", "inv_R"):
                mg[key] *= _scale(rng, TABLE_MG_SPREAD)
        doc["defaults"] = {"physical": {"C": 1e-3 * _scale(rng, TABLE_C_SPREAD)}}
    return {"scenario": doc}


# event times stay near the shipped ones (1 s and 20 s; 150 s and 200 s):
# how long a lightly damped mode rings after a step sets the step count, so
# wide time ranges would make the cost of a round depend on the seed
def _three_mg_events(rng: random.Random) -> list[dict]:
    times = sorted(round(rng.uniform(1.0, 25.0), 3) for _ in range(2))
    return [{"time": t, "mg": rng.randint(1, 3),
             "delta_p_load": round(rng.choice((-1.0, 1.0)) * rng.uniform(5e5, 1.5e6))}
            for t in times]


def _ieee39_events(rng: random.Random) -> list[dict]:
    times = sorted(round(rng.uniform(140.0, 210.0), 3) for _ in range(2))
    return [{"time": t, "mg": rng.randint(1, 3),
             "delta_p_load": round(rng.choice((-1.0, 1.0)) * rng.uniform(2.5e7, 7.5e7))}
            for t in times]


def simulate_inputs(src: Path, seed: int) -> dict:
    """One round of long-horizon trajectories (see ``SIM_ROUND``).

    three-mg item ``i`` puts scheme ``i`` on ILC1 and scheme ``perm[i]`` on
    ILC2 (catalogue gains); seed 0 keeps the shipped schemes and events.
    """
    rng = random.Random(f"simulate-{seed}")
    perm = list(range(len(SCHEMES)))
    rng.shuffle(perm)
    items = []
    k = 0
    for name in SIM_ROUND:
        doc = _shipped(src, name)
        if seed and name == "three-mg":
            doc["ilcs"][0]["scheme"] = SCHEMES[k]
            doc["ilcs"][1]["scheme"] = SCHEMES[perm[k]]
            doc["events"] = _three_mg_events(rng)
        elif seed:
            doc["events"] = _ieee39_events(rng)
        if name == "three-mg":
            k += 1
        doc["name"] = f"{name}-{len(items)}"
        items.append(doc)
    return {"scenarios": items}


def certify_inputs(src: Path, seed: int) -> dict:
    """Per-scheme certificates on the two-MG scenario, converter parameters
    perturbed per variant for seeds other than 0."""
    rng = random.Random(f"certify-{seed}")
    base = _shipped(src, "two-mg")
    items = []
    for variant in range(CERT_VARIANTS):
        for scheme in SCHEMES:
            doc = copy.deepcopy(base)
            doc["ilcs"][0]["scheme"] = scheme
            if seed:
                doc["defaults"] = {"physical": {
                    "C": 1e-3 * _scale(rng, CERT_PHYS_SPREAD),
                    "K_dc": _scale(rng, CERT_PHYS_SPREAD),
                    "tau1": 0.05 * _scale(rng, CERT_PHYS_SPREAD),
                    "tau2": 0.05 * _scale(rng, CERT_PHYS_SPREAD),
                    "L": 1e-3 * _scale(rng, CERT_PHYS_SPREAD),
                }}
            doc["name"] = f"{scheme}-v{variant}"
            items.append(doc)
    return {"scenarios": items, "grid_points": CERT_GRID_POINTS}


GENERATORS = {
    "table": table_inputs,
    "simulate": simulate_inputs,
    "certify": certify_inputs,
}


def inputs_hash(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
