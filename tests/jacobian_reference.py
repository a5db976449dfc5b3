"""Central-difference reference for the package's exact Jacobians."""

import numpy as np

from multigrid_ilc.engine import scales_and_atols
from multigrid_ilc.mg import mg_derivative


def finite_difference_jacobian(f, x, scales, rel_step=6e-6):
    """Central-difference Jacobian of ``f`` with per-variable scaled steps."""
    x = np.asarray(x, dtype=float)
    columns = []
    for i in range(x.size):
        h = rel_step * max(scales[i], abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        columns.append(
            (np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2.0 * h)
        )
    return np.column_stack(columns)


def system_jacobian(system):
    """jacobian(y) of a duck-typed system for ``integrate``: the central
    difference of its ``derivative`` at its own state scales."""

    def jacobian(y):
        return finite_difference_jacobian(
            lambda v: system.derivative(0.0, v.tolist()), y, system.state_scales
        )

    return jacobian


def mg_port_jacobian(model):
    """Central difference of an MG model's (rates, omega) in (state, p) at
    the zero state: the block matrix [[A, B], [C, D]] of its linearization."""
    names = model.state_names + ("p",)
    n = len(model.state_names)
    return finite_difference_jacobian(
        lambda z: (*mg_derivative(model, tuple(z[:n]), z[n], p_load=0.0), z[0]),
        np.zeros(n + 1), scales_and_atols(model, names)[0],
    )
