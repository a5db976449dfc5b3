"""State-space quadruples with labelled ports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

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
            raise ValidationError(f"A must be square, got shape {a.shape}")
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 2 or b.shape[0] != n:
            raise ValidationError(f"B of shape {b.shape} does not fit A of shape {a.shape}")
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 2 or c.shape[1] != n:
            raise ValidationError(f"C of shape {c.shape} does not fit A of shape {a.shape}")
        d = np.asarray(self.d, dtype=float)
        if d.shape != (c.shape[0], b.shape[1]):
            raise ValidationError(f"D of shape {d.shape} does not fit C of shape {c.shape} "
                                  f"and B of shape {b.shape}")
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

    All resolvents go through one batched solve and C X through one matrix
    product.  Returns the (k, p, m) stack and a mask of the points where
    jw I - A is regular and G is finite; a singular point's slice is left
    at D.
    """
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    k, n, m, p = omegas.size, lin.n_states, lin.n_inputs, lin.n_outputs
    resolvents = 1j * omegas[:, None, None] * np.eye(n) - lin.a
    # B as a stack of matrices: a 2-D B next to a 3-D stack would be read
    # as a stack of vectors by numpy < 2
    b = np.broadcast_to(lin.b.astype(complex), (k, n, m))
    regular = np.ones(k, dtype=bool)
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
    # every frequency's columns side by side: one (p, n) x (n, k m) product
    cx = lin.c @ x.transpose(1, 0, 2).reshape(n, k * m)
    g = cx.reshape(p, k, m).transpose(1, 0, 2) + lin.d
    return g, regular & np.all(np.isfinite(g), axis=(1, 2))


def transfer_matrix(lin: LinearSystem, omega: float) -> np.ndarray:
    """Evaluate G(jw) at one frequency (rad/s)."""
    g, ok = transfer_stack(lin, [omega])
    if not ok[0]:
        if np.all(np.isfinite(g)):
            raise NumericalError(f"jw is an eigenvalue of A at w={omega:g}")
        raise NumericalError(f"resolvent overflow at w={omega:g}")
    return g[0]
