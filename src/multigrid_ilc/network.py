"""Multi-grid topology and incidence-matrix construction.

A network is a connected graph whose vertices are microgrids (MGs) and whose
edges are interlinking converters (ILCs).  Each ILC has two connection
points; connections are enumerated pairwise in ILC order, so connection
``2*l`` and ``2*l + 1`` (0-based) belong to ILC ``l``.

Indices are 0-based throughout this module; scenario files and error
messages use 1-based numbering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DanglingEndpoint, DisconnectedGraph, ValidationError


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
class Connection:
    """One ILC connection point: ILC ``ilc``, side 0 or 1, attached to ``mg``."""

    ilc: int
    side: int
    mg: int

    def label(self) -> str:
        return f"c{2 * self.ilc + self.side + 1}@MG{self.mg + 1}"


@dataclass(frozen=True)
class ValidatedNetwork:
    """A topology that passed validation, with connection enumeration."""

    mgs: tuple[MgSpec, ...]
    ilcs: tuple[IlcSpec, ...]
    connections: tuple[Connection, ...]

    @property
    def n_mgs(self) -> int:
        return len(self.mgs)

    @property
    def n_ilcs(self) -> int:
        return len(self.ilcs)

    @property
    def n_connections(self) -> int:
        return len(self.connections)


@dataclass(frozen=True)
class IncidenceMatrix:
    """Dense incidence matrix with semantic row/column labels."""

    data: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self):
        if self.data.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValidationError("incidence matrix labels do not match shape")


def validate_topology(spec: NetworkSpec | ValidatedNetwork) -> ValidatedNetwork:
    """Validate a topology and compute its connection enumeration.

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
    connections = []
    for l, ilc in enumerate(spec.ilcs):
        connections.append(Connection(ilc=l, side=0, mg=ilc.mg_a))
        connections.append(Connection(ilc=l, side=1, mg=ilc.mg_b))
    return ValidatedNetwork(
        mgs=tuple(spec.mgs), ilcs=tuple(spec.ilcs), connections=tuple(connections)
    )


def build_ilc_incidence(net: ValidatedNetwork) -> IncidenceMatrix:
    """Connection-to-MG incidence: entry [i, rho] is 1 iff connection rho is at MG i."""
    a = np.zeros((net.n_mgs, net.n_connections), dtype=int)
    for rho, conn in enumerate(net.connections):
        a[conn.mg, rho] = 1
    return IncidenceMatrix(
        data=a,
        row_labels=tuple(f"MG{i + 1}" for i in range(net.n_mgs)),
        col_labels=tuple(c.label() for c in net.connections),
    )

