"""Scalar functions of time on uniform grids, with optional analytic descriptors.

Every time axis is a ``Grid``: n equal intervals on [start, stop], with
one step, one node lookup and one equality.  A node array from outside
becomes one through ``Grid.of``, the one place its uniformity is checked.

A TimeTrace always carries sampled values.  A sympy expression, when it has
one, is authoritative (resampling and differentiation are exact).  A
``chebyshev.Table`` of its span, from ``chebyshev.converge`` or
``volterra.solve_chebyshev``, gives any time of the span, values and
derivatives alike.  A purely sampled trace is read off its grid, values and
derivatives alike, by the one window rule of ``TimeTrace.derivative_at``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import sympy

from . import chebyshev, expressions
from .expressions import T, t_derivative

__all__ = ["Grid", "TimeTrace", "derivatives_at", "uniform_grid",
           "fd_weights", "stencil_gain"]

FD_ACCURACY = 4     # order of accuracy of every finite-difference stencil


@dataclass(frozen=True)
class Grid:
    """The uniform grid of n intervals on [start, stop]: its nodes are
    ``np.linspace(start, stop, n + 1)``, its step h = (stop - start) / n.
    Grids compare and hash by value."""

    start: float
    stop: float
    n: int

    def __post_init__(self):
        if not (self.n >= 1 and math.isfinite(self.start)
                and math.isfinite(self.stop) and self.start < self.stop):
            raise ValueError("a grid needs finite ends, start < stop, and "
                             "at least one interval")

    @classmethod
    def of(cls, grid):
        """A Grid as it is; a node array as the Grid of its ends and node
        count, ValueError unless it is 1-D, has two nodes or more, and
        increases uniformly (steps equal to 1e-12 relative)."""
        if isinstance(grid, Grid):
            return grid
        x = np.asarray(grid, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("grid must be 1-D with at least two nodes")
        steps = np.diff(x)
        h = steps[0]
        if not h > 0 or not np.allclose(steps, h, rtol=1e-12, atol=1e-14):
            raise ValueError("grid must be uniform and increasing")
        return cls(float(x[0]), float(x[-1]), x.size - 1)

    @cached_property
    def nodes(self):
        """The n + 1 node times, a read-only array."""
        x = np.linspace(self.start, self.stop, self.n + 1)
        x.flags.writeable = False
        return x

    @property
    def h(self):
        return (self.stop - self.start) / self.n

    def index(self, t):
        """The k with nodes[k] = t to 1e-13 * max(1, |stop|); ValueError
        for a time off the nodes."""
        k = np.rint((t - self.start) / self.h)
        if not (0 <= k <= self.n and abs(self.nodes[int(k)] - t)
                <= 1e-13 * max(1.0, abs(self.stop))):
            raise ValueError(f"t={t!r} is not a node of the grid of step "
                             f"{self.h:.6g} from {self.start:g}")
        return int(k)

    def every(self, stride):
        """The grid of every stride-th node from start, the times of
        ``nodes[::stride]``; a stride over n // 2 is taken as n // 2, so
        that at least two intervals are left (one when n is 1).  A stride
        that divides n keeps stop."""
        stride = max(1, min(int(stride), self.n // 2))
        m = self.n // stride
        return Grid(self.start, float(self.nodes[m * stride]), m)


def uniform_grid(t_end, n_intervals):
    """Uniform grid on [0, t_end] with an even interval count (rounded up if
    needed)."""
    n = max(2, int(n_intervals))
    return Grid(0.0, float(t_end), n + n % 2)


def fd_weights(offsets, order):
    """Finite-difference weights for the ``order``-th derivative at offset 0.

    ``offsets`` are node positions in units of the step; the returned weights
    must be divided by h**order.  A 2-D ``offsets`` holds one stencil per row
    and gets one row of weights each.  For order 0 a stencil with a node at
    offset 0 gets the unit row exactly, not the solve's rounding of it.
    """
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.shape[-1]
    if order >= n:
        raise ValueError("stencil too short for requested derivative")
    # A[..., k, j] = offsets[..., j] ** k, by pow (slow) only from k = 2
    A = np.ones(offsets.shape[:-1] + (n, n))
    A[..., 1:, :] = offsets[..., None, :]
    A[..., 2:, :] **= np.arange(2, n)[:, None]
    b = np.zeros(A.shape[:-1] + (1,))
    b[..., order, 0] = float(math.factorial(order))
    w = np.linalg.solve(A, b)[..., 0]
    if order == 0:
        on = offsets == 0
        w = np.where(on.any(axis=-1, keepdims=True), on.astype(float), w)
    return w


def stencil_gain(order):
    """||w||_1 for the weights w of the widest stencil ``derivative_at``
    takes for the order-th derivative (one-sided, order + FD_ACCURACY
    nodes): a derivative read by that stencil is at most this times
    max |values| / h**order."""
    w = fd_weights(np.arange(order + FD_ACCURACY), order)
    return float(np.abs(w).sum())


class _Product:
    """op(a, b) of two expressions, either of them a _Product, formed on
    the first ``form`` and kept: the expression of a trace product, which
    most products never need."""

    __slots__ = ("parts", "value")

    def __init__(self, op, a, b):
        self.parts, self.value = (op, a, b), None

    def form(self):
        # the operands first, by an explicit stack: a long chain of
        # products would pass the recursion limit
        stack = [self]
        while stack:
            node = stack[-1]
            if node.parts is None:
                stack.pop()
                continue
            op, a, b = node.parts
            todo = [e for e in (a, b)
                    if isinstance(e, _Product) and e.parts is not None]
            if todo:
                stack.extend(todo)
                continue
            node.value = op(*(e.value if isinstance(e, _Product) else e
                              for e in (a, b)))
            node.parts = None
            stack.pop()
        return self.value


class TimeTrace:
    """Sampled scalar function of t on a uniform grid, the ``Grid`` axis;
    ``grid`` is its node array.  ``expr``, when given, is its sympy
    expression, and ``table`` a ``chebyshev.Table`` of its 1-D values on
    its span."""

    def __init__(self, axis, values, expr=None, table=None):
        self.axis = Grid.of(axis)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (self.axis.n + 1,):
            raise ValueError("values and grid shapes differ")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite trace values")
        self._expr = expr           # a sympy expression, None or a _Product
        self.table = table

    @property
    def expr(self):
        """The sympy expression, or None.  The expression of a product of
        traces is formed on its first read."""
        if isinstance(self._expr, _Product):
            self._expr = self._expr.form()
        return self._expr

    # -- construction -------------------------------------------------

    @classmethod
    def from_expr(cls, expr, grid):
        expr = expressions.parse(expr, allowed=(T,))
        grid = Grid.of(grid)
        return cls(grid, expressions.evaluate(expr, t=grid.nodes), expr=expr)

    @classmethod
    def constant(cls, value, grid):
        grid = Grid.of(grid)
        return cls(grid, np.full(grid.n + 1, float(value)),
                   expr=sympy.Float(value) if value else sympy.Integer(0))

    # -- basic queries ------------------------------------------------

    @property
    def grid(self):
        return self.axis.nodes

    @property
    def h(self):
        return self.axis.h

    @property
    def t_end(self):
        return self.axis.stop

    @property
    def max_abs(self):
        return float(np.max(np.abs(self.values)))

    @property
    def exact_off_grid(self):
        """True when an expression or a Chebyshev table gives any time."""
        return self._expr is not None or self.table is not None

    def _check_span(self, t):
        """ValueError unless every time of t is on the grid's span, to a pad
        of 1e-12 * max(1, |t_end|)."""
        lo, hi = self.axis.start, self.axis.stop
        pad = 1e-12 * max(1.0, abs(hi))
        if t.size and (t.min() < lo - pad or t.max() > hi + pad):
            raise ValueError("reading outside the trace support")

    def __call__(self, tq):
        out = self.sample(tq)
        return out if np.ndim(tq) else float(out)

    def sample(self, grid2):
        """Values at the times grid2, an array or a ``Grid``: the stored
        values on the trace's own grid, else ``derivative_at`` of order 0
        (the expression, the table or the stencils); without an
        expression, ValueError off the span.
        """
        if isinstance(grid2, Grid):
            if grid2 == self.axis:
                return self.values.copy()
            grid2 = grid2.nodes
        grid2 = np.asarray(grid2, dtype=float)
        return self.derivative_at(grid2.ravel(), 0).reshape(grid2.shape)

    def resample(self, grid2):
        grid2 = Grid.of(grid2)
        return TimeTrace(grid2, self.sample(grid2), expr=self._expr,
                         table=self.table)

    # -- calculus -----------------------------------------------------

    def derivative(self, order=1):
        """The order-th derivative on the grid, by ``derivative_at``."""
        if order == 0:
            return self
        expr = table = None
        if self.expr is not None:
            expr = t_derivative(self.expr, order)
        elif self.table is not None:
            table = self.table.derivative(order)
        return TimeTrace(self.axis, self.derivative_at(self.grid, order),
                         expr=expr, table=table)

    def derivative_at(self, t, order):
        """d^order/dt^order at the times t of the span, as an array.

        Exact when expression-backed, at any time.  Otherwise a time off
        the span raises ValueError, as in ``sample``.  A table-backed trace
        reads the derivative of its table.  A purely sampled one reads each
        time by the stencil on the order + FD_ACCURACY grid nodes nearest it
        (of two equally near windows, the right one), one-sided at the ends.
        A time equal to a grid node is read at integer offsets, so order 0
        there is the node's value.  The rules live in ``derivatives_at``.
        """
        return derivatives_at([self], t, order)[0]

    def _stencil_at(self, t, order):
        """derivative_at of a purely sampled trace, at times of its span."""
        n, npe = self.axis.n + 1, order + FD_ACCURACY
        if n < npe:
            raise ValueError(f"need at least {npe} samples")
        x = (t - self.axis.start) / self.h
        k = np.rint(x).clip(0, n - 1).astype(int)
        x = np.where(self.grid[k] == t, k, x)
        start = (np.floor(x + npe % 2 / 2).astype(int)
                 - (npe - 1) // 2).clip(0, n - npe)
        nodes = start[:, None] + np.arange(npe)
        w = fd_weights(nodes - x[:, None], order)
        return np.einsum("ij,ij->i", w, self.values[nodes]) / self.h ** order

    def derivative_noise(self, order):
        """Bound on the error of derivative_at at any time: 0 when an
        expression or a table gives the derivative.  Otherwise, for the
        widest stencil (the one-sided one at the ends, weights w at offsets
        o = 0 .. p - 1, p = order + FD_ACCURACY), rounding in the values,
        eps * stencil_gain(order) * max |values|, plus the truncation
        |sum w o^p| / p! * h^p * max |f^(p)|, with h^p f^(p) read off the
        p-th differences of the values; all over h**order."""
        if self.exact_off_grid:
            return 0.0
        npe = order + FD_ACCURACY
        offsets = np.arange(npe)
        w = fd_weights(offsets, order)
        rounding = np.finfo(float).eps * stencil_gain(order) * self.max_abs
        truncation = abs(w @ offsets ** npe) / math.factorial(npe) \
            * np.max(np.abs(np.diff(self.values, npe)), initial=0.0)
        return float((rounding + truncation) / self.h ** order)

    def value_at_start(self, order=0):
        """d^order/dt^order at the left endpoint, finite or ExpressionError."""
        if self.expr is not None:
            return expressions.t_derivative_at(self.expr, order,
                                               self.axis.start)
        return float(self.derivative_at(self.grid[:1], order)[0])

    # -- arithmetic (grids match; expressions combine, on the first read of
    # the product's expr, and tables take scalars) --

    def _coerce(self, other):
        if isinstance(other, TimeTrace):
            if other.axis != self.axis:
                raise ValueError("trace grids differ")
            return other.values, other._expr
        if np.ndim(other) == 0:
            val = float(other)
            return val, sympy.Float(val)
        return NotImplemented, None

    def _binop(self, other, np_op, sym_op):
        vals, oexpr = self._coerce(other)
        if vals is NotImplemented:
            return NotImplemented
        expr = table = None
        if self._expr is not None and oexpr is not None:
            expr = _Product(sym_op, self._expr, oexpr)
        if self.table is not None and not isinstance(other, TimeTrace):
            table = chebyshev.Table(self.table.a, self.table.b,
                                    np_op(self.table.values, vals))
        return TimeTrace(self.axis, np_op(self.values, vals), expr=expr,
                         table=table)

    def __add__(self, other):
        return self._binop(other, np.add, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, np.subtract, lambda a, b: a - b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        return self._binop(other, np.multiply, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, np.divide, lambda a, b: a / b)

    def __neg__(self):
        return self._binop(-1.0, np.multiply, lambda a, b: -a)


def derivatives_at(traces, t, order=0):
    """``TimeTrace.derivative_at`` of each trace at the times t, a list in
    trace order.  An expression is exact at any time; any other trace
    checks the span first, then reads its table, else its stencils.  The
    derivative tables that share a point set are read as the columns of
    one (n, K) ``chebyshev.Table``: one 1/(t - x_j) block serves them all,
    and each column reads as its own table would."""
    t = np.asarray(t, dtype=float)
    out = [None] * len(traces)
    shared = {}
    for j, tr in enumerate(traces):
        if tr.expr is not None:
            out[j] = expressions.evaluate(t_derivative(tr.expr, order), t=t)
            continue
        tr._check_span(t)
        if tr.table is not None:
            tab = tr.table.derivative(order)
            shared.setdefault((tab.a, tab.b, tab.n), []).append((j, tab))
        else:
            out[j] = tr._stencil_at(t, order)
    for (a, b, _), group in shared.items():
        read = chebyshev.Table(a, b, np.stack(
            [tab.values for _, tab in group], axis=-1))(t)
        for i, (j, _) in enumerate(group):
            out[j] = read[..., i]
    return out
