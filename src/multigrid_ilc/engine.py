"""Interconnected multi-grid ODE: assembly, equilibria, time integration.

The network couples MG frequency dynamics and ILC power dynamics in
negative feedback: each ILC reads the frequencies of the two MGs it
connects, and each MG receives the scheduled load deviation plus the sum of
the connection powers injected by its ILCs.  Grid-forming ILC sides couple
through their inductive filter (angle state, power B*sin(eta)); the filter
angles are part of the simulated ILC state.  The system's derivative and
its exact Jacobian are compiled from one trace of the laws, and the
Jacobian of any single law, such as one ILC unit's, from a trace of that
law (see ``_Tape`` and :func:`law_jacobian`).  The tape lends the DC-bus
and filter laws of ``ilc`` their two primitives, sin and the collapse guard.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Number
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DcVoltageCollapse, NewtonDivergence, ValidationError
from .ilc import (SCHEME, IlcUnit, _check_state, _collapse, dc_bus, filter_power,
                  injected_powers, sim_law, sim_states, unit_state_names)
from .mg import MgModel, default_rating
from .network import ValidatedNetwork

class Kind(NamedTuple):
    """What a state's kind sets (see :data:`KINDS`): its scale, 1 (rad,
    rad/s) or its owner's ``"dc"`` or ``"power"`` scale (:func:`kind_scales`);
    its absolute tolerance; and its divergence guard, a magnitude in scales
    (None: unguarded) beyond which :func:`integrate` truncates the run."""

    scale: str
    atol: float
    bound: float | None = None


# every kind declared by ilc.Scheme.states, ilc.sim_states and the MG models
KINDS = {
    "frequency": Kind("one", 1e-9, 5.0),  # of an MG: 5 rad/s
    "filter-angle": Kind("one", 1e-9, math.pi / 2),  # loss of synchronism
    "angle": Kind("one", 1e-9),
    "dc-voltage": Kind("dc", 1e-6, 20.0),  # 0.2 V_dc_ref
    "dc-integral": Kind("dc", 1e-6),
    "power": Kind("power", 1e-3),  # and power integrals
}


def kind_scales(owner: MgModel | IlcUnit, kinds: Iterable[str]) -> list[float]:
    """The scale of each state (or port variable) of one MG model or ILC unit,
    by its kind.  An ILC's DC scale is 1 % of its nominal DC voltage and its
    power scale the larger of 1e5 W and 1e-3 of its filter power constant;
    an MG's power scale is 1 % of its rating."""
    if isinstance(owner, IlcUnit):
        scale = {"one": 1.0, "dc": 0.01 * owner.physical.V_dc_ref,
                 "power": max(1e5, 1e-3 * owner.physical.B)}
    else:
        scale = {"one": 1.0, "power": 0.01 * default_rating(owner)}
    return [scale[KINDS[kind].scale] for kind in kinds]


@dataclass(frozen=True)
class EquilibriumPoint:
    """A state where the assembled derivative vanishes."""

    x: np.ndarray
    residual: float  # scaled infinity norm
    iterations: int  # Newton iterations it took


# --- the compiled derivative and Jacobian --------------------------------
# OdeSystem.derivative runs one straight-line function per system, built by
# evaluating every ILC's sim_law and every MG's law once on traced
# variables.  Each arithmetic operation on a traced variable appends one
# assignment to the tape, in evaluation order, so the function performs the
# laws' float operations in their order and raises what they raise.
# Constants are bound by name, never written into the source, so the source
# depends only on the system's structure and is compiled once per structure.
# The trace also differentiates the laws in forward mode (Griewank & Walther,
# Evaluating Derivatives, 2nd ed., ch. 3): each operation derives its
# result's partials from its operands' by the sum, product and quotient
# rules.  A partial is a plain value: a number while only constants enter
# it, folded as the trace runs, else a line that only the Jacobian runs.
# Beyond arithmetic the tape has two primitives, on which ilc.dc_bus and
# ilc.filter_power are written: sin, which brings its own partial, cos, and
# the DC bus's collapse guard, a line with no partials.  A law may apply only
# + - * / and unary minus to its variables, besides the DC-bus and filter
# laws it is given, and never branch on a variable.


def _binary(sign: str) -> tuple[Callable, Callable]:
    """An operator of traced variables and its reflection."""
    return (lambda self, other: self.tape.op(self, sign, other),
            lambda self, other: self.tape.op(other, sign, self))


class _Traced:
    """A variable of a law being traced, with its partials (see :class:`_Tape`)."""

    __slots__ = ("tape", "name", "grad")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, tape: _Tape, name: str, grad: dict):
        self.tape, self.name, self.grad = tape, name, grad

    __add__, __radd__ = _binary("+")
    __sub__, __rsub__ = _binary("-")
    __mul__, __rmul__ = _binary("*")
    __truediv__, __rtruediv__ = _binary("/")

    def __neg__(self):
        return self.tape.assign(f"-{self.name}", {k: -d for k, d in self.grad.items()})

    def _untraceable(self, *args):
        raise TypeError("a comparison, bool, abs, ** or math call on a variable "
                        "cannot be replayed")

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _untraceable
    __abs__ = __pow__ = __rpow__ = __round__ = __trunc__ = __floor__ = __ceil__ = _untraceable
    __float__ = __int__ = __index__ = __complex__ = _untraceable


def _grad(x) -> dict:
    return x.grad if isinstance(x, _Traced) else {}


def _times(a, b):
    """``a * b``, where a factor that is the number 1.0 or -1.0 records no
    product.  A factor that is not a traced variable is a number, the only
    kind ``abs`` and ``==`` may be asked of (on a variable they raise)."""
    for one, other in ((a, b), (b, a)):
        if not isinstance(one, _Traced) and abs(one) == 1.0:
            return other if one > 0 else -other
    return a * b


class _Tape:
    """The recorded lines and bound constants of one traced law, and in
    ``d`` those of its partials, a tape of its own.  A traced variable's
    partials map the Jacobian column of each variable it depends on to its
    value there: a number, or a variable of ``d``.
    """

    def __init__(self, names: str = "vc"):
        self.lines: list[str] = []
        self.consts: list = []
        self.var, self.const = names  # prefixes of line and constant names
        self.d = _Tape("dk") if names == "vc" else None

    def inputs(self, prefix: str, n: int, first: int | None = None) -> tuple[_Traced, ...]:
        """``n`` variables: given ``first``, those of the Jacobian's columns
        from ``first`` on, else inputs that its partials ignore."""
        return tuple(_Traced(self, f"{prefix}{k}", {} if first is None else {first + k: 1.0})
                     for k in range(n))

    def ref(self, x):
        """A traced variable as one of this tape with no partials."""
        return _Traced(self, x.name, {}) if isinstance(x, _Traced) else x

    def operand(self, value) -> str | None:
        """The name of a traced variable or of a newly bound constant."""
        if isinstance(value, _Traced):
            return value.name
        if isinstance(value, Number):
            self.consts.append(value)
            return f"{self.const}{len(self.consts) - 1}"
        return None

    def assign(self, expr: str, grad: dict) -> _Traced:
        name = f"{self.var}{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        return _Traced(self, name, grad)

    def op(self, left, sign: str, right):
        a, b = self.operand(left), self.operand(right)
        if a is None or b is None:
            return NotImplemented
        out = self.assign(f"{a} {sign} {b}", {})
        da, db = _grad(left), _grad(right)
        if not (da or db):
            return out
        if sign == "-":
            db = self.chain(db, "*", -1.0)
        elif sign == "*":
            da, db = self.chain(da, "*", right), self.chain(db, "*", left)
        elif sign == "/":  # d(a/b) = da/b - (a/b)/b * db
            ratio = -(self.d.ref(out) / self.d.ref(right)) if db else None
            da, db = self.chain(da, "/", right), self.chain(db, "*", ratio)
        out.grad = self.combine(da, db)
        return out

    def chain(self, grad: dict, sign: str, x) -> dict:
        """The partials ``grad`` times or over ``x``, a number or a traced
        variable: numbers fold, a product by the number 1.0 or -1.0 is the
        other factor or its negation, and anything else is recorded on ``d``."""
        x = self.d.ref(x)
        return {k: _times(d, x) if sign == "*" else d / x for k, d in grad.items()}

    @staticmethod
    def combine(da: dict, db: dict) -> dict:
        """The sum of two variables' partials."""
        return {**da, **{k: da[k] + d if k in da else d for k, d in db.items()}}

    def sin(self, x) -> _Traced:
        """sin(x), with its partial cos(x)."""
        name = self.operand(x)
        cos = self.d.assign(f"cos({name})", {})
        return self.assign(f"sin({name})", self.chain(_grad(x), "*", cos))

    def guard(self, v_total, vdc, vref) -> None:
        """The DC bus's collapse guard: raise where ``v_total <= 0``."""
        self.lines.append(f"if {self.operand(v_total)} <= 0.0: "
                          f"raise collapse({self.operand(vdc)}, {self.operand(vref)})")

    def finish(self, outputs: list) -> None:
        """Record the traced law's outputs."""
        self.returns = ", ".join(map(self.operand, outputs))
        self.rows = [_grad(v) for v in outputs]

    def derivative(self, n_y: int, n_loads: int) -> Callable:
        """derivative(y, loads) -> the outputs, running the recorded lines."""
        return self._compile("derivative", n_y, n_loads, [f"return [{self.returns}]"],
                             {"sin": math.sin, "collapse": _collapse})

    def jacobian(self, n_y: int, n_loads: int, n_cols: int) -> Callable:
        """jacobian(y, loads) -> the partials of the outputs, as a new matrix
        of ``n_cols`` columns written at its structural nonzeros only."""
        entries = [(i * n_cols + k, d) for i, row in enumerate(self.rows) for k, d in row.items()]
        values = ", ".join(self.d.operand(d) for _, d in entries)
        bound = {"sin": math.sin, "cos": math.cos, "collapse": _collapse, "zeros": np.zeros,
                 "index": np.array([i for i, _ in entries], dtype=np.intp),
                 **{f"k{k}": v for k, v in enumerate(self.d.consts)}}
        return self._compile("jacobian", n_y, n_loads, [
            *self.d.lines, f"jac = zeros(({len(self.rows)}, {n_cols}))",
            f"jac.put(index, [{values}])", "return jac"], bound)

    def _compile(self, name: str, n_y: int, n_loads: int, tail: list, bound: dict):
        bound.update((f"c{k}", v) for k, v in enumerate(self.consts))
        source = "\n".join([
            f"def make({', '.join(bound)}):",
            f"    def {name}(y, loads):",
            "        " + "".join(f"y{k}, " for k in range(n_y)) + "= y",
            "        " + "".join(f"l{k}, " for k in range(n_loads)) + "= loads",
            *("        " + line for line in [*self.lines, *tail]),
            f"    return {name}",
        ])
        return _factory(source)(*bound.values())


@lru_cache(maxsize=64)
def _factory(source: str) -> Callable:
    """The ``make`` function that ``source`` defines, compiled once per text
    (a process sees a few system structures, two texts each, and one text
    per unit Jacobian)."""
    namespace: dict = {}
    exec(compile(source, "<compiled derivative>", "exec"), namespace)
    return namespace["make"]


def _trace(owner: str, law: Callable, *args):
    """``law(*args)`` on traced variables; an operation the tape cannot
    replay raises TypeError naming ``owner``."""
    try:
        return law(*args)
    except TypeError as exc:
        raise TypeError(f"{owner}: its law cannot be compiled: {exc}") from exc


def law_jacobian(owner: str, law: Callable, n: int, n_inputs: int) -> Callable:
    """jacobian(state, inputs), compiled from ``law(tape, state, *inputs)``
    -> (rates, *outputs) traced with the ``n`` states and then the
    ``n_inputs`` inputs as the variables of its columns; its rows are the
    rates and then the outputs.  A law the tape cannot replay raises
    TypeError naming ``owner``."""
    tape = _Tape()
    rates, *outputs = _trace(owner, law, tape, tape.inputs("y", n, 0),
                             *tape.inputs("l", n_inputs, n))
    tape.finish([*rates, *outputs])
    return tape.jacobian(n, n_inputs, n + n_inputs)


@lru_cache(maxsize=64)
def _unit_law_jacobian(unit: IlcUnit) -> Callable:
    """jacobian(state, inputs) of the unit's law, by its state and both
    inputs (bounded like ``_factory``: a parameter sweep sees a new unit
    at every probe)."""
    law, phys = SCHEME[unit.scheme].law, unit.physical

    def traced(tape, y, in1, in2):
        return law(unit.gains, phys, dc_bus(phys, tape.guard), filter_power(phys.B, tape.sin),
                   y, in1, in2)

    return law_jacobian(f"scheme {unit.scheme!r}", traced, len(unit_state_names(unit)), 2)


def ilc_jacobian(unit: IlcUnit, state, inputs) -> np.ndarray:
    """Exact partials of one unit's (rates, out1, out2) by (state, in1,
    in2), derived from its law, as a new matrix.  Inputs and outputs are
    the law's own: GFL and partial units take (omega1, omega2) and put out
    the powers leaving the converter, GFM units take those powers and put
    out their frequency references (``linearize_unit`` turns them into the
    passivity port convention)."""
    _check_state(unit, state, inputs)
    return _unit_law_jacobian(unit)(list(map(float, state)), list(map(float, inputs)))


class OdeSystem:
    """The assembled interconnection, ready to evaluate and integrate."""

    def __init__(self, net: ValidatedNetwork, models, units):
        if len(models) != net.n_mgs:
            raise ValidationError(
                f"{net.n_mgs} MGs in the network but {len(models)} MG models"
            )
        if len(units) != net.n_ilcs:
            raise ValidationError(
                f"{net.n_ilcs} ILCs in the network but {len(units)} ILC units"
            )
        self.net = net
        self.models = tuple(models)
        self.units = tuple(units)
        self.base_loads = tuple(m.p_load for m in self.models)

        # the state vector: every MG's states, then every ILC's, each named
        # "<mg or ilc><1-based index>.<state>" and of its declared kind
        names, kinds, scales, spans = [], [], [], []
        for prefix, owners, states_of in (("mg", self.models, lambda m: m.states),
                                          ("ilc", self.units, sim_states)):
            for k, owner in enumerate(owners):
                states = states_of(owner)
                spans.append((len(names), len(names) + len(states)))
                names += [f"{prefix}{k + 1}.{name}" for name in states]
                kinds += states.values()
                scales += kind_scales(owner, states.values())
        for name, scale in zip(names, scales):
            if not scale > 0.0:  # a rating or DC voltage so small it underflows
                raise ValidationError(f"state {name}: scale {scale!r} is not positive")
        self.state_names = tuple(names)
        self.state_kinds = tuple(kinds)
        self.state_scales = np.array(scales)
        self.state_atols = np.array([KINDS[kind].atol for kind in kinds])
        self.dim = len(names)

        self._mg_spans = spans[: net.n_mgs]
        self._ilc_spans = spans[net.n_mgs :]

    # -- evaluation ---------------------------------------------------------

    def derivative(self, t: float, y: Sequence[float], loads: Sequence[float] | None = None):
        """Full state derivative; ``loads`` are per-MG load deviations (W)."""
        return self._rhs(y, self.base_loads if loads is None else loads)

    @cached_property
    def _tape(self) -> _Tape:
        """Every ILC's and then every MG's law traced once on the state as
        the variables of the Jacobian, each port power added into its MG's
        input in ILC order; the loads are not variables, so they drop out
        of the Jacobian.  Built on first use."""
        tape = _Tape()
        y = tape.inputs("y", self.dim, 0)
        p_in = list(tape.inputs("l", self.net.n_mgs))
        rates = [0.0] * self.dim
        for unit, (lo, hi), (a, b) in zip(self.units, self._ilc_spans, self.net.ends):
            seg_rates, pa, pb = _trace(f"scheme {unit.scheme!r}", sim_law, unit,
                                       dc_bus(unit.physical, tape.guard),
                                       filter_power(unit.physical.B, tape.sin), y[lo:hi],
                                       y[self._mg_spans[a][0]], y[self._mg_spans[b][0]])
            rates[lo:hi] = seg_rates
            p_in[a] += pa
            p_in[b] += pb
        for model, (lo, hi), p in zip(self.models, self._mg_spans, p_in):
            rates[lo:hi] = _trace(f"MG model {type(model).__name__}", model.law, y[lo:hi], p)
        tape.finish(rates)
        return tape

    @cached_property
    def _rhs(self) -> Callable:
        """rhs(y, loads) -> rates, compiled from the traced laws on first use."""
        return self._tape.derivative(self.dim, self.net.n_mgs)

    @cached_property
    def _jacobian(self) -> Callable:
        """jacobian(y, loads), compiled from the traced laws on first use."""
        return self._tape.jacobian(self.dim, self.net.n_mgs, self.dim)

    def jacobian(self, y: Sequence[float]) -> np.ndarray:
        """Exact Jacobian of :meth:`derivative` at ``y`` (the loads enter
        additively and drop out).  Raises :class:`DcVoltageCollapse` wherever
        the derivative does."""
        y = y if isinstance(y, list) else np.asarray(y, dtype=float).tolist()
        return self._jacobian(y, self.base_loads)

    def column(self, kind: str, index: int, name: str) -> int:
        """Position of state ``name`` of MG or ILC ``index`` (0-based) in
        the state vector."""
        label = f"{kind}{index + 1}.{name}"
        if label not in self.state_names:
            raise KeyError(f"no state {label}")
        return self.state_names.index(label)


# Newton: convergence tolerance on the scaled residual, and iteration cap
_NEWTON_TOL = 1e-8
_NEWTON_MAX_ITER = 50


def find_equilibrium(
    ode: OdeSystem,
    loads: Sequence[float] | None = None,
    guess: Sequence[float] | None = None,
) -> EquilibriumPoint:
    """Newton iteration with the exact Jacobian (:meth:`OdeSystem.jacobian`),
    row-scaled by the state scales like the residual.

    Converged when the scaled residual infinity norm drops below
    ``1e-8 * max(1, scaled state magnitude)``; at most 50 iterations.
    Loads that are not one finite value per MG, or a guess that is not
    ``ode.dim`` finite values, raise :class:`ValidationError`.
    """
    loads = tuple(ode.base_loads if loads is None else loads)
    if len(loads) != ode.net.n_mgs or not all(map(math.isfinite, loads)):
        raise ValidationError(f"loads must hold {ode.net.n_mgs} finite values")
    x = np.zeros(ode.dim) if guess is None else np.asarray(guess, dtype=float).copy()
    if x.shape != (ode.dim,) or not np.all(np.isfinite(x)):
        raise ValidationError(f"equilibrium guess must hold {ode.dim} finite values")
    scales = ode.state_scales

    def residual(vec):
        return np.asarray(ode.derivative(0.0, list(vec), loads)) / scales

    r = residual(x)
    for iterations in range(_NEWTON_MAX_ITER):
        norm = float(np.max(np.abs(r)))
        threshold = _NEWTON_TOL * max(1.0, float(np.max(np.abs(x / scales))))
        if norm <= threshold:
            return EquilibriumPoint(x=x, residual=norm, iterations=iterations)
        with np.errstate(over="ignore"):  # a tiny state scale overflows its row to inf
            jac = ode.jacobian(x) / scales[:, None]
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergence("singular Jacobian in Newton iteration") from exc
        # damped update: halve until the residual improves
        alpha = 1.0
        for _ in range(12):
            x_new = x + alpha * step
            try:
                r_new = residual(x_new)
            except (DcVoltageCollapse, ValueError, OverflowError):
                alpha *= 0.5
                continue
            if not np.all(np.isfinite(r_new)):
                alpha *= 0.5
                continue
            if np.max(np.abs(r_new)) < norm or alpha < 1e-3:
                break
            alpha *= 0.5
        else:
            raise NewtonDivergence("line search failed")
        x, r = x_new, r_new
    raise NewtonDivergence(
        f"no convergence after {_NEWTON_MAX_ITER} iterations (residual {np.max(np.abs(r)):.3e})"
    )


@dataclass(frozen=True)
class LoadEvent:
    """An ideal load step: at ``time``, MG ``mg`` (0-based) gains ``delta_p_load``."""

    time: float
    mg: int
    delta_p_load: float


@dataclass
class IntegrateOptions:
    """Settings of one :func:`integrate` call.

    ``rtol`` and ``atol_scale`` (a factor on the per-state absolute
    tolerances) set the error control and ``max_step`` caps the step size;
    :meth:`out_of_range` states their ranges.  ``dense`` inserts cubic
    Hermite samples inside each Rodas4 step; without it the trajectory keeps
    the step endpoints and their envelope (:attr:`Trajectory.envelope`).
    """

    rtol: float = 1e-7
    atol_scale: float = 1.0
    max_step: float = math.inf
    dense: bool = True

    def out_of_range(self) -> str | None:
        """The first setting outside its range, or None: ``rtol`` in [0, inf),
        ``max_step`` in (0, inf], and a finite ``atol_scale`` that keeps the
        least absolute tolerance of :data:`KINDS`, so every state's, above 0."""
        min_atol = min(kind.atol for kind in KINDS.values())
        for name, ok in (("rtol", 0.0 <= self.rtol < math.inf),
                         ("atol_scale", 0.0 < min_atol * self.atol_scale < math.inf),
                         ("max_step", self.max_step > 0.0)):
            if not ok:
                return name
        return None


@dataclass(frozen=True)
class IntegrationStats:
    """What one :func:`integrate` call did.

    ``accepted`` and ``rejected`` count the steps behind the returned
    samples, plus any the call took past a step whose envelope then
    truncated it; ``rhs_calls`` counts every derivative evaluation and
    ``jacobian_calls`` every exact Jacobian, rolled-back Rodas4 trials
    included.  ``stiff_from`` is the
    time from which the call ran on Rodas4, or None when it stayed on DP45;
    ``rollbacks`` counts the Rodas4 trials that were rolled back.
    """

    accepted: int
    rejected: int
    rhs_calls: int
    jacobian_calls: int
    stiff_from: float | None
    rollbacks: int


@dataclass
class Trajectory:
    """Adaptive-step solution samples plus derived per-component outputs.

    ``envelope``, set only by a call without dense output, is the pair
    (lo, hi) of arrays with one row per step, from ``t[k]`` to ``t[k + 1]``:
    on a Rodas4 step the per-component minimum and maximum of its cubic
    Hermite interpolant, on a DP45 step only those of its two endpoints.
    """

    t: np.ndarray
    y: np.ndarray
    ode: OdeSystem
    truncation_reason: str | None = None
    stats: IntegrationStats | None = None
    envelope: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def truncated(self) -> bool:
        return self.truncation_reason is not None

    @property
    def final_state(self) -> np.ndarray:
        return self.y[-1]

    def omega(self, mg_index: int) -> np.ndarray:
        return self.y[:, self.ode.column("mg", mg_index, "omega")]

    def vdc(self, ilc_index: int) -> np.ndarray:
        return self.y[:, self.ode.column("ilc", ilc_index, "vdc")]

    def to_csv(self, path, pu_base: float) -> None:
        """Write `t, mg<i>.omega, ilc<l>.p1, ilc<l>.p2, ilc<l>.vdc, ...` in SI
        units, then `mg<i>.omega_pu`, each frequency per ``pu_base`` (rad/s).
        """
        n_mgs = self.ode.net.n_mgs
        n_ilcs = self.ode.net.n_ilcs
        header = ["t"]
        cols = [self.t]
        for j in range(n_mgs):
            header.append(f"mg{j + 1}.omega")
            cols.append(self.omega(j))
        for l in range(n_ilcs):
            header += [f"ilc{l + 1}.p1", f"ilc{l + 1}.p2", f"ilc{l + 1}.vdc"]
            lo, hi = self.ode._ilc_spans[l]
            cols += [*injected_powers(self.ode.units[l], self.y[:, lo:hi]), self.vdc(l)]
        for j in range(n_mgs):
            header.append(f"mg{j + 1}.omega_pu")
            cols.append(self.omega(j) / pu_base)
        write_csv(path, header, cols)


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write ``header`` and then one row per index of the equal-length
    ``columns`` (2-D ones add their columns), each value as its ``repr``;
    ragged columns raise ValueError before the file is opened."""
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns of unequal lengths {[len(c) for c in columns]}")
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(format_blocks(",".join(["%r"] * width) + "\n", "", columns, _BLOCK))


def format_blocks(template: str, sep: str, columns, block: int):
    """Yield the rows of the equal-length ``columns`` (2-D ones add their
    columns) ``block`` rows at a time, one stacked block and one C-level %:
    each row is ``template`` formatted with its values, joined by ``sep``."""
    for start in range(0, len(columns[0]), block):
        rows = np.column_stack([c[start : start + block] for c in columns])
        yield sep.join([template] * len(rows)) % tuple(rows.ravel().tolist())


# Dormand-Prince 5(4) coefficients
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168,
    -355 / 33,
    46732 / 5247,
    49 / 176,
    -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

# Hairer's DOPRI5 stiffness test: run every _STIFF_EVERY accepted steps (and
# on every step while a streak is open); _STIFF_STREAK estimates of h*|lambda|
# above _STIFF_HLAMBDA, without 6 calm ones in between, switch the call to
# Rodas4
_STIFF_EVERY = 10
_STIFF_STREAK = 15
_STIFF_HLAMBDA = 3.25
# accepted Rodas4 steps after a switch before it is judged against DP45
# (Rodas4 first has to damp the fast mode DP45 left ringing); a failed trial
# pauses the stiffness test for _RETRY_FACTOR times its overspend, counted
# in DP45 steps
_TRIAL_STEPS = 100
_RETRY_FACTOR = 10


class _Switch(NamedTuple):
    """The DP45 state at a switch to Rodas4, kept while Rodas4 is on trial;
    the switch time and state are endpoint ``accepted`` of the step buffers."""

    k1: list
    h: float
    accepted: int
    rejected: int
    rhs_calls: int
    jacobian_calls: int
    dp45_step: float


# Rodas4 (Hairer & Wanner, Solving ODEs II, IV.7) in transformed form: stage
# 0 solves for u0 from f(t, y); each later stage i is a row (node, a_row,
# c_row) of _R_STAGES that evaluates f at t + node*h, y + a_row @ u[:i] and
# adds c_row @ u[:i] / h.  The last row's argument, the one before it plus
# u5, is the stage-6 one, from which y_new = arg + u6
_R_GAMMA = 0.25
_R_STAGES = tuple((node, np.array(a_row), np.array(c_row)) for node, a_row, c_row in (
    (0.386, (1.544,), (-5.6688,)),
    (0.21, (0.9466785280815826, 0.2557011698983284),
     (-2.430093356833875, -0.2063599157091915)),
    (0.63, (3.314825187068521, 2.896124015972201, 0.9986419139977817),
     (-0.1073529058151375, -9.594562251023355, -20.47028614809616)),
    (1.0, (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950),
     (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.70890893206160)),
    (1.0, (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950,
           1.0),
     (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
      -6.058818238834054)),
))
# upper bound on Hermite samples per Rodas4 step
_MAX_PIECES = 1000
# rows per block of the dense samples and of a CSV file: bounds the
# temporaries of their array evaluation and formatting
_BLOCK = 1024


def _initial_step(f, t0, y0, scale, max_step):
    f0 = f(t0, y0)
    d0 = max((abs(v) / s) for v, s in zip(y0, scale))
    d1 = max((abs(v) / s) for v, s in zip(f0, scale))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    try:
        y1 = [y + h0 * k for y, k in zip(y0, f0)]
        f1 = f(t0 + h0, y1)
        d2 = max(abs(a - b) / s for a, b, s in zip(f1, f0, scale)) / h0
    except (DcVoltageCollapse, ValueError, OverflowError):
        return min(1e-6, max_step), f0
    if not math.isfinite(d2):
        return min(1e-6, max_step), f0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step), f0


def _dp45_step(f, t, y, k1, h, atol, rtol):
    """One Dormand-Prince trial step: (y_new, k7, error norm, k6, y6).

    ``k1`` is f(t, y); ``k6`` and its argument ``y6`` feed the stiffness test.
    """
    n = len(y)
    rng = range(n)
    k2 = f(t + h / 5, [y[i] + h * (_A21 * k1[i]) for i in rng])
    k3 = f(t + 0.3 * h, [y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in rng])
    k4 = f(
        t + 0.8 * h,
        [y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in rng],
    )
    k5 = f(
        t + (8 / 9) * h,
        [
            y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
            for i in rng
        ],
    )
    y6 = [
        y[i]
        + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i] + _A65 * k5[i])
        for i in rng
    ]
    k6 = f(t + h, y6)
    y_new = [
        y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i] + _B6 * k6[i])
        for i in rng
    ]
    k7 = f(t + h, y_new)  # FSAL stage
    err_norm = 0.0
    for i in rng:
        err = h * (
            _E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i] + _E6 * k6[i]
            + _E7 * k7[i]
        )
        sc = atol[i] + rtol * max(abs(y[i]), abs(y_new[i]))
        err_norm += (err / sc) ** 2
    return y_new, k7, math.sqrt(err_norm / n), k6, y6


def _square_sum(values: list) -> float:
    """The sum of the squares of ``values``, inf where a square overflows
    (a float's ``** 2`` raises there)."""
    try:
        return sum([v ** 2 for v in values])
    except OverflowError:
        return math.inf


def _looks_stiff(h, k6, k7, y6, y_new, scales) -> bool:
    """Hairer's DOPRI5 test: h*|lambda|, estimated as h*|k7 - k6| / |y_new - y6|
    in the norm scaled by the state scales, lies beyond the stability
    boundary (3.25)."""
    num = _square_sum([(a - b) / w for a, b, w in zip(k7, k6, scales)])
    den = _square_sum([(a - b) / w for a, b, w in zip(y_new, y6, scales)])
    return den > 0.0 and h * h * num > _STIFF_HLAMBDA ** 2 * den


def _rodas4_step(f, t, y, f0, jac, h, atol, rtol):
    """One Rodas4 trial step in transformed form: (y_new, f(y_new), error norm).

    Each stage solves (I/(gamma*h) - J) u_i = f(y + sum a_ij u_j)
    + sum c_ij u_j / h; the solution is the stage-6 argument plus u6, and u6
    is the embedded error estimate.  f(y_new) is only evaluated when the
    step passes.
    """
    y = np.asarray(y)
    inv = np.linalg.inv(np.eye(y.size) / (_R_GAMMA * h) - jac)
    u = np.empty((6, y.size))
    with np.errstate(all="ignore"):
        u[0] = inv @ np.asarray(f0)
        for i, (node, a_row, c_row) in enumerate(_R_STAGES, 1):
            arg = y + a_row @ u[:i]
            rate = np.asarray(f(t + node * h, arg.tolist()), dtype=float)
            u[i] = inv @ (rate + (c_row @ u[:i]) / h)
        y_new = arg + u[5]
        q = u[5] / (atol + rtol * np.maximum(np.abs(y), np.abs(y_new)))
        err_norm = math.sqrt(float(np.add.reduce(q * q)) / y.size)
    if not err_norm <= 1.0:
        return None, None, err_norm
    y_new = y_new.tolist()
    return y_new, f(t + h, y_new), err_norm


def _hermite_samples(t, y, starts, steps, rates, atol, rtol):
    """The endpoints ``t``, ``y`` with interior points of each Rodas4 step's
    cubic Hermite interpolant inserted after its start, spaced so that linear
    interpolation between consecutive samples stays within the step's error
    norm.  Step ``k`` runs from endpoint ``starts[k]`` to the next, with size
    ``steps[k]`` and end rates ``rates[k]``; the samples are evaluated in
    blocks of ``_BLOCK`` and scattered to their places in the output."""
    y0, y1, f0, f1, h = y[starts], y[starts + 1], rates[:, 0], rates[:, 1], steps[:, None]
    d = y1 - y0
    # |p''| is linear in the step fraction, so its maximum sits at an end
    curv = np.maximum(np.abs(6.0 * d - h * (4.0 * f0 + 2.0 * f1)),
                      np.abs(6.0 * d - h * (2.0 * f0 + 4.0 * f1)))
    sc = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    # each row of a C-contiguous array reduces as np.mean of that row alone
    worst = np.sqrt(np.mean((curv / sc) ** 2, axis=1))
    # one piece suffices where worst <= 8; a NaN or infinite worst (a
    # non-finite end rate) has no finite interior and gets one piece too
    split = (worst > 8.0) & (worst < math.inf)
    pieces = np.ones(len(starts), dtype=np.int64)
    pieces[split] = np.minimum(np.ceil(np.sqrt(worst[split] / 8.0)), _MAX_PIECES)
    counts = pieces - 1
    n_samples = int(counts.sum())
    # endpoint j moves back by the samples of every step that starts before it
    shift = np.zeros(len(t), dtype=np.int64)
    shift[starts + 1] = counts
    at = np.arange(len(t)) + np.cumsum(shift)
    t_out = np.empty(len(t) + n_samples)
    y_out = np.empty((len(t_out), y.shape[1]))
    t_out[at], y_out[at] = t, y
    ends = np.cumsum(counts)
    for first in range(0, n_samples, _BLOCK):
        n = np.arange(first, min(first + _BLOCK, n_samples))
        k = np.searchsorted(ends, n, side="right")  # the step of each sample
        j = n - ends[k] + pieces[k]  # its index in the step, from 1
        i, hk = starts[k], steps[k][:, None]
        s = j[:, None] / pieces[k][:, None]
        t_out[at[i] + j] = t[i] + s[:, 0] * steps[k]
        y_out[at[i] + j] = ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * y[i]
                            + s * (1.0 - s) ** 2 * (hk * rates[k, 0])
                            + s * s * (3.0 - 2.0 * s) * y[i + 1]
                            + s * s * (s - 1.0) * (hk * rates[k, 1]))
    return t_out, y_out


def _all_finite(values: list[float]) -> bool:
    """Whether every value is finite: a finite sum proves it, and only a
    non-finite one (a non-finite entry, or an overflow) is scanned."""
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def _when(t: float, t_next: float | None) -> str:
    if t_next is None:
        return f"at t = {t:.4f} s"
    return f"between t = {t:.4f} and {t_next:.4f} s"


def _hermite_extrema(y0, f0, y1, f1, h):
    """Per-component minimum and maximum of the cubic Hermite interpolant of
    each step (one row per step, ``h`` a column of step sizes), in closed
    form: the extrema lie at the step's ends or at the roots in (0, 1) of
    the cubic's quadratic derivative.  Non-finite input gives NaN."""
    m0, m1, d = h * f0, h * f1, y1 - y0
    # p(s) = y0 + s*m0 + s^2*c2 + s^3*c3, so p'(s) = m0 + 2*c2*s + 3*c3*s^2
    c2 = 3.0 * d - 2.0 * m0 - m1
    c3 = m0 + m1 - 2.0 * d
    a, b = 3.0 * c3, 2.0 * c2
    lo, hi = np.minimum(y0, y1), np.maximum(y0, y1)
    with np.errstate(all="ignore"):
        # roots q/a and m0/q without cancellation; m0/q is the root of the
        # linear derivative when a vanishes.  A root that is complex or
        # outside (0, 1) becomes s = 0, where p is y0, or NaN if any
        # coefficient is not finite
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * m0), b))
        for s in (q / a, m0 / q):
            s = np.where((s > 0.0) & (s < 1.0), s, 0.0)
            p = y0 + s * (m0 + s * (c2 + s * c3))
            lo, hi = np.minimum(lo, p), np.maximum(hi, p)
    return lo, hi


def integrate(
    ode: OdeSystem,
    x0: Sequence[float],
    events: Sequence[LoadEvent] = (),
    t_span: tuple[float, float] = (0.0, 60.0),
    opts: IntegrateOptions | None = None,
) -> Trajectory:
    """Adaptive integration through load steps: Dormand-Prince 5(4), with an
    automatic switch to Rodas4 once the problem shows stiffness.

    The integration restarts exactly at each event time.  Every segment
    starts on DP45 until Hairer's stiffness test (:func:`_looks_stiff` on
    15 tests without 6 calm ones in between) fires; then the linearly
    implicit Rodas4 step takes over, with a fresh exact Jacobian
    (``ode.jacobian(y)``, which every system passed in must provide) per
    accepted step.  After 100 accepted Rodas4 steps, or at the segment's
    end if that comes first, the switch is judged: if Rodas4 spent more RHS
    calls than DP45 at its stability limit would have, each Jacobian
    charged a fixed price of 2*dim calls (pinned by
    ``test_exact_jacobians_keep_the_trial_price``; re-pricing it is ROADMAP
    item 2), the call rolls back to the switch point, resumes DP45 exactly
    where it left off and pauses the stiffness test for ten times the
    overspend, counted in DP45 steps; otherwise it stays on Rodas4 for the
    rest of the call.
    A run ends early only by truncation, with the reason in
    :attr:`Trajectory.truncation_reason`: a state beyond its kind's bound
    (an MG frequency, an ILC DC voltage, or a filter angle past pi/2, the
    loss of synchronism), a non-finite state, or a step size below
    1e-14 * max(1, |t|).  The start state is screened like every step
    endpoint, all a DP45 step is screened on; after the loop, each Rodas4
    step is screened on the closed-form extrema of its cubic Hermite
    interpolant, and the first step that fails ends the trajectory.  Then
    ``opts.dense`` (the default) inserts samples of that cubic inside each
    kept Rodas4 step, dense enough that linear interpolation between them
    stays within the step's tolerance; without it,
    :attr:`Trajectory.envelope` holds the extrema.
    Raises only :class:`ValidationError`, for bad input.
    """
    opts = opts or IntegrateOptions()
    t0, t_end = map(float, t_span)
    if not -math.inf < t0 < t_end < math.inf:
        raise ValidationError("t_span must be finite and increasing")
    y = list(map(float, x0))
    if len(y) != ode.dim or not all(map(math.isfinite, y)):
        raise ValidationError(f"x0 must hold {ode.dim} finite values")
    # the per-step loops run on Python floats, the Rodas4 step on arrays
    atol_vec = ode.state_atols * opts.atol_scale
    atol = atol_vec.tolist()
    scales = ode.state_scales.tolist()
    if (bad := opts.out_of_range()) is not None:
        raise ValidationError(f"{bad} out of range: {getattr(opts, bad)!r}")
    events = tuple(events)
    for earlier, later in zip(events, events[1:]):
        if later.time < earlier.time:
            raise ValidationError("events must be sorted by time")
    for ev in events:
        if not (math.isfinite(ev.time) and math.isfinite(ev.delta_p_load)):
            raise ValidationError(f"event time and load step must be finite: {ev}")
        if not (0 <= ev.mg < ode.net.n_mgs):
            raise ValidationError(f"event references MG {ev.mg + 1}")

    rtol = opts.rtol
    # from the models, not ode.base_loads: duck-typed systems carry only models
    loads = [m.p_load for m in ode.models]

    # the divergence guards of the states' kinds, each (index, limit, label)
    bound_checks = []
    for idx, (kind, scale) in enumerate(zip(ode.state_kinds, scales)):
        guard = KINDS[kind]
        if guard.bound is not None:
            bound_checks.append((idx, float(guard.bound * scale), ode.state_names[idx]))

    # the step endpoints, appended to flat buffers of floats, and of each
    # Rodas4 step its size and its end rates
    dim = ode.dim
    ts = array("d", [t0])
    ys = array("d", y)
    stiff_h = array("d")
    stiff_rates = array("d")

    def violation(y, t, t_next=None) -> str | None:
        """Why ``y`` ends the trajectory, or None: ``y`` is the state at ``t``
        or, given ``t_next``, the largest magnitude of each state over the
        step from ``t`` to ``t_next``."""
        for idx, limit, label in bound_checks:
            if abs(y[idx]) > limit:
                return f"{label} exceeded {limit:g} {_when(t, t_next)}"
        if not _all_finite(y):
            return f"non-finite state {_when(t, t_next)}"
        return None

    rhs_calls = 0

    def f(tt, yy):
        nonlocal rhs_calls
        rhs_calls += 1
        return ode.derivative(tt, yy, current_loads)

    accepted = rejected = jacobian_calls = rollbacks = 0
    stiff_from: float | None = None
    streak = calm = 0  # stiffness tests above / below the bound
    quiet_until = 0  # back-off after a failed Rodas4 trial
    switch: _Switch | None = None  # set while Rodas4 is on trial
    t = t0
    applied = 0  # events[:applied] have stepped the loads
    reason = violation(y, t)
    while reason is None and t < t_end:
        # a segment applies the events due by its start and runs at constant
        # loads to the next event time below t_end, or to t_end
        while applied < len(events) and events[applied].time <= t:
            ev = events[applied]
            loads[ev.mg] += ev.delta_p_load
            applied += 1
        boundary = min(events[applied].time, t_end) if applied < len(events) else t_end
        current_loads = tuple(loads)
        if switch is not None:
            # the switch fired on the last step of the previous segment
            stiff_from = switch = None
            streak = calm = 0

        # an in-bounds state cannot collapse its DC bus: the bound is
        # 0.2 V_dc_ref, a collapse -V_dc_ref
        h, k1 = _initial_step(f, t, y, scales, opts.max_step)
        jac = None
        while t < boundary:
            h = min(h, boundary - t, opts.max_step)
            if h < 1e-14 * max(1.0, abs(t)):
                reason = f"step size {h:g} at t = {t:g} s"
                break
            stiff = stiff_from is not None
            try:
                if not stiff:
                    y_new, k7, err_norm, k6, y6 = _dp45_step(f, t, y, k1, h, atol, rtol)
                else:
                    if jac is None:
                        jac = ode.jacobian(y)
                        jacobian_calls += 1
                    y_new, k7, err_norm = _rodas4_step(f, t, y, k1, jac, h, atol_vec, rtol)
            except (DcVoltageCollapse, ValueError, OverflowError, np.linalg.LinAlgError):
                # a trial stage overshot (bus collapse, float overflow or a
                # singular stage matrix)
                err_norm = math.inf
            # step-size exponent 1/(embedded order + 1) and growth cap per method
            exponent, growth = (0.25, 6.0) if stiff else (0.2, 5.0)
            # the one rejection rule: only an error norm <= 1 passes, and a NaN
            # or infinite one (inf: the step raised) shrinks h by 0.2
            if not err_norm <= 1.0:
                rejected += 1
                h *= (max(0.2, min(1.0, 0.9 * err_norm ** -exponent))
                      if math.isfinite(err_norm) else 0.2)
                continue
            accepted += 1
            if stiff:
                jac = None
                stiff_h.append(h)
                stiff_rates.extend(k1)
                stiff_rates.extend(k7)
            elif accepted >= quiet_until and (streak or accepted % _STIFF_EVERY == 0):
                if _looks_stiff(h, k6, k7, y6, y_new, scales):
                    streak += 1
                    calm = 0
                    if streak == _STIFF_STREAK:
                        stiff_from = float(t + h)
                else:
                    calm += 1
                    if calm == 6:
                        streak = 0
            # the buffers hold accepted + 1 endpoints
            t += h
            y = y_new
            k1 = k7
            ts.append(t)
            ys.extend(y)
            reason = violation(y, t)
            if reason is not None:
                break
            h_done = h
            factor = growth if err_norm == 0.0 else min(growth, 0.9 * err_norm ** -exponent)
            h *= max(0.2, factor)
            if switch is None:
                if stiff_from is not None and not stiff:  # the test just fired
                    switch = _Switch(k1, h, accepted, rejected, rhs_calls, jacobian_calls,
                                     h_done)
                continue
            if accepted - switch.accepted < _TRIAL_STEPS and t < boundary:
                continue
            # DP45 pinned at its stability limit takes 6 RHS calls per step;
            # a Jacobian is charged a fixed price of 2*dim calls, pinned by
            # test_exact_jacobians_keep_the_trial_price (ROADMAP item 2)
            spent = (rhs_calls - switch.rhs_calls
                     + 2 * dim * (jacobian_calls - switch.jacobian_calls))
            overspend = spent - 6 * (t - ts[switch.accepted]) / switch.dp45_step
            if overspend > 0:
                # Rodas4 cost more than DP45 would have: resume DP45 at the
                # switch
                k1, h = switch.k1, switch.h
                accepted, rejected = switch.accepted, switch.rejected
                del ts[accepted + 1:], ys[(accepted + 1) * dim:], stiff_h[:], stiff_rates[:]
                t, y = ts[-1], ys[-dim:].tolist()
                stiff_from = None
                streak = calm = 0
                rollbacks += 1
                quiet_until = accepted + _RETRY_FACTOR * overspend / 6
            switch = None

    t_out = np.frombuffer(ts)
    y_out = np.frombuffer(ys).reshape(-1, dim)
    steps = np.frombuffer(stiff_h)
    # the Rodas4 steps are the last len(steps) steps: a trial rolled back
    # leaves none, and one that passes stays on Rodas4 to the end of the call
    starts = np.arange(len(t_out) - 1 - len(steps), len(t_out) - 1)
    rates = np.frombuffer(stiff_rates).reshape(-1, 2, dim)
    lo, hi = _hermite_extrema(y_out[starts], rates[:, 0], y_out[starts + 1], rates[:, 1],
                              steps[:, None])
    # violation() screens each Rodas4 step, in order, on the larger magnitude
    # of its extrema; the first step that fails ends the trajectory
    peaks = np.maximum(np.abs(lo), np.abs(hi)).tolist()
    for k, i in enumerate(starts.tolist()):
        if (why := violation(peaks[k], t_out[i], t_out[i + 1])) is not None:
            reason = why
            t_out, y_out = t_out[: i + 2], y_out[: i + 2]
            starts, steps, rates, lo, hi = (v[: k + 1] for v in (starts, steps, rates, lo, hi))
            break
    envelope = None
    if opts.dense:
        t_out, y_out = _hermite_samples(t_out, y_out, starts, steps, rates, atol_vec, rtol)
    else:
        envelope = (np.minimum(y_out[:-1], y_out[1:]), np.maximum(y_out[:-1], y_out[1:]))
        envelope[0][starts], envelope[1][starts] = lo, hi

    return Trajectory(
        t=t_out,
        y=y_out,
        ode=ode,
        truncation_reason=reason,
        stats=IntegrationStats(accepted, rejected, rhs_calls, jacobian_calls, stiff_from,
                               rollbacks),
        envelope=envelope,
    )
