"""State-space quadruples with labelled ports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularResolvent, ValidationError

_COND_FLAG_LIMIT = 1e12


@dataclass(frozen=True)
class LinearSystem:
    """A state-space quadruple (A, B, C, D) with port labels.

    Inputs and outputs carry their sign convention in the labels, e.g. an
    ILC analysed in the grid-following convention has inputs
    ``("omega1", "omega2")`` and outputs ``("-p1", "-p2")``.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    state_labels: tuple[str, ...] = ()
    input_labels: tuple[str, ...] = ()
    output_labels: tuple[str, ...] = ()

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValidationError("A must be square")
        b = np.asarray(self.b, dtype=float).reshape(n, -1)
        m = b.shape[1]
        c = np.asarray(self.c, dtype=float).reshape(-1, n)
        p = c.shape[0]
        d = np.asarray(self.d, dtype=float).reshape(p, m)
        for mat, name in ((a, "A"), (b, "B"), (c, "C"), (d, "D")):
            if not np.all(np.isfinite(mat)):
                raise ValidationError(f"{name} contains non-finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]

    @property
    def flags(self) -> tuple[str, ...]:
        """Numerical warnings; computed on read, as it costs an SVD of A."""
        if self.a.size and np.linalg.cond(self.a) > _COND_FLAG_LIMIT:
            return ("ill-conditioned-jacobian",)
        return ()


def transfer_stack(lin: LinearSystem, omegas) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate G(jw) = C (jw I - A)^-1 B + D at every frequency (rad/s).

    All resolvents go through one batched solve.  Returns the (k, p, m)
    stack and a mask of the points where jw I - A is regular and G is
    finite; a singular point's slice is left at D.
    """
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    resolvents = 1j * omegas[:, None, None] * np.eye(lin.n_states) - lin.a
    # B as a stack of matrices: a 2-D B next to a 3-D stack would be read
    # as a stack of vectors by numpy < 2
    b = np.broadcast_to(lin.b.astype(complex), (omegas.size,) + lin.b.shape)
    regular = np.ones(omegas.size, dtype=bool)
    try:
        x = np.linalg.solve(resolvents, b)
    except np.linalg.LinAlgError:
        # one point at a time, to mark the singular slices
        x = np.zeros(b.shape, dtype=complex)
        for i, resolvent in enumerate(resolvents):
            try:
                x[i] = np.linalg.solve(resolvent, b[i])
            except np.linalg.LinAlgError:
                regular[i] = False
    g = lin.c @ x + lin.d
    return g, regular & np.all(np.isfinite(g), axis=(1, 2))


def transfer_matrix(lin: LinearSystem, omega: float) -> np.ndarray:
    """Evaluate G(jw) at one frequency (rad/s)."""
    g, ok = transfer_stack(lin, [omega])
    if not ok[0]:
        if np.all(np.isfinite(g)):
            raise SingularResolvent(f"jw is an eigenvalue of A at w={omega:g}")
        raise SingularResolvent(f"resolvent overflow at w={omega:g}")
    return g[0]
