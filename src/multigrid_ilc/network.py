"""Multi-grid topology: MG/ILC graph validation.

A network is a connected graph whose vertices are microgrids (MGs) and whose
edges are interlinking converters (ILCs); each ILC joins two distinct MGs,
its side 1 and side 2.

Indices are 0-based throughout this module; scenario files and error
messages use 1-based numbering.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class ValidatedNetwork:
    """``n_mgs`` MGs joined by one ILC per ``ends`` pair (side 1, side 2).

    Construction raises :class:`ValidationError` for an out-of-range endpoint,
    a self-loop, no MG at all or an MG that is unreachable.
    """

    n_mgs: int
    ends: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.n_mgs
        if n < 1:
            raise ValidationError("network has no microgrids")
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for l, (a, b) in enumerate(self.ends):
            for mg in (a, b):
                if not (0 <= mg < n):
                    raise ValidationError(
                        f"ILC {l + 1} references MG {mg + 1}, but only "
                        f"{n} MGs are defined"
                    )
            if a == b:
                raise ValidationError(f"ILC {l + 1} connects MG {a + 1} to itself")
            adjacency[a].append(b)
            adjacency[b].append(a)
        # connectivity by depth-first search from MG 0
        seen = {0}
        frontier = [0]
        while frontier:
            for j in adjacency[frontier.pop()]:
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
        if len(seen) != n:
            missing = sorted(i + 1 for i in range(n) if i not in seen)
            raise ValidationError(f"MGs {missing} are not reachable from MG 1")

    @property
    def n_ilcs(self) -> int:
        return len(self.ends)
