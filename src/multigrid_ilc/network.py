"""Multi-grid topology: MG/ILC graph validation.

A network is a connected graph whose vertices are microgrids (MGs) and whose
edges are interlinking converters (ILCs); each ILC joins two distinct MGs,
its side 1 and side 2.

Indices are 0-based throughout this module; scenario files and error
messages use 1-based numbering.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DanglingEndpoint, DisconnectedGraph


@dataclass(frozen=True)
class MgSpec:
    """Identity of one microgrid in the topology."""

    name: str = ""


@dataclass(frozen=True)
class IlcSpec:
    """One ILC edge: endpoints are 0-based MG indices (side 1, side 2)."""

    mg_a: int
    mg_b: int
    name: str = ""


@dataclass(frozen=True)
class NetworkSpec:
    """Unvalidated multi-grid topology."""

    mgs: tuple[MgSpec, ...]
    ilcs: tuple[IlcSpec, ...]


@dataclass(frozen=True)
class ValidatedNetwork:
    """A topology that passed validation."""

    mgs: tuple[MgSpec, ...]
    ilcs: tuple[IlcSpec, ...]

    @property
    def n_mgs(self) -> int:
        return len(self.mgs)

    @property
    def n_ilcs(self) -> int:
        return len(self.ilcs)


def validate_topology(spec: NetworkSpec | ValidatedNetwork) -> ValidatedNetwork:
    """Validate a topology.

    Re-validating an already validated network is idempotent.  Raises
    :class:`DanglingEndpoint` for out-of-range endpoints (self-loops are
    rejected the same way) and :class:`DisconnectedGraph` when some MG is
    unreachable.
    """
    if isinstance(spec, ValidatedNetwork):
        return spec
    n = len(spec.mgs)
    if n == 0:
        raise DisconnectedGraph("network has no microgrids")
    for l, ilc in enumerate(spec.ilcs):
        for mg in (ilc.mg_a, ilc.mg_b):
            if not (0 <= mg < n):
                raise DanglingEndpoint(
                    f"ILC {l + 1} references MG {mg + 1}, but only "
                    f"{n} MGs are defined"
                )
        if ilc.mg_a == ilc.mg_b:
            raise DanglingEndpoint(
                f"ILC {l + 1} connects MG {ilc.mg_a + 1} to itself"
            )
    # connectivity by breadth-first search from MG 0
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for ilc in spec.ilcs:
        adjacency[ilc.mg_a].append(ilc.mg_b)
        adjacency[ilc.mg_b].append(ilc.mg_a)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in adjacency[i]:
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    if len(seen) != n:
        missing = sorted(i + 1 for i in range(n) if i not in seen)
        raise DisconnectedGraph(f"MGs {missing} are not reachable from MG 1")
    return ValidatedNetwork(mgs=tuple(spec.mgs), ilcs=tuple(spec.ilcs))
