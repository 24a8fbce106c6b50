"""Scalar functions of time on uniform grids, with optional analytic descriptors.

A TimeTrace always carries sampled values; when it also carries a sympy
expression the expression is authoritative (resampling and differentiation are
exact).  Purely sampled traces fall back to cubic splines and fourth-order
finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import sympy

from . import expressions
from .expressions import T

__all__ = ["TimeTrace", "uniform_grid", "same_grid", "fd_weights",
           "fd_derivative"]

FD_ACCURACY = 4     # order of accuracy of every finite-difference stencil


def uniform_grid(t_end, n_intervals):
    """Uniform grid on [0, t_end] with an even interval count (rounded up if
    needed)."""
    n = int(n_intervals)
    if n < 2:
        n = 2
    if n % 2:
        n += 1
    return np.linspace(0.0, float(t_end), n + 1)


def same_grid(a, b):
    """True when grid b has a's shape and matches it node by node to
    1e-13 * max(1, |a[-1]|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.allclose(
        b, a, rtol=0, atol=1e-13 * max(1.0, abs(float(a[-1]))))


def fd_weights(offsets, order):
    """Finite-difference weights for the ``order``-th derivative at offset 0.

    ``offsets`` are node positions in units of the step; the returned weights
    must be divided by h**order.
    """
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.size
    if order >= n:
        raise ValueError("stencil too short for requested derivative")
    A = np.vander(offsets, n, increasing=True).T
    b = np.zeros(n)
    b[order] = float(math.factorial(order))
    return np.linalg.solve(A, b)


def fd_derivative(values, h, order=1):
    """Differentiate uniformly sampled values with one-sided edge closures."""
    values = np.asarray(values, dtype=float)
    n = values.size
    npc = order + FD_ACCURACY - 1
    if npc % 2 == 0:
        npc += 1
    npe = order + FD_ACCURACY
    if n < max(npc, npe):
        raise ValueError(f"need at least {max(npc, npe)} samples")
    half = npc // 2
    scale = h ** order

    wc = fd_weights(np.arange(-half, half + 1), order) / scale
    out = np.empty_like(values)
    windows = np.lib.stride_tricks.sliding_window_view(values, npc)
    out[half:n - half] = windows @ wc
    for i in range(half):
        we = fd_weights(np.arange(npe) - i, order) / scale
        out[i] = values[:npe] @ we
        we = fd_weights(np.arange(-(npe - 1), 1) + i, order) / scale
        out[n - 1 - i] = values[n - npe:] @ we
    return out


@dataclass(eq=False)
class TimeTrace:
    """Sampled scalar function of t on a uniform grid."""

    grid: np.ndarray
    values: np.ndarray
    expr: sympy.Expr | None = None
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise ValueError("grid must be 1-D with at least two nodes")
        if self.values.shape != self.grid.shape:
            raise ValueError("values and grid shapes differ")
        steps = np.diff(self.grid)
        h = steps[0]
        if h <= 0 or not np.allclose(steps, h, rtol=1e-12, atol=1e-14):
            raise ValueError("grid must be uniform and increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite trace values")

    # -- construction -------------------------------------------------

    @classmethod
    def from_expr(cls, expr, grid):
        expr = expressions.parse(expr, allowed=(T,))
        grid = np.asarray(grid, dtype=float)
        return cls(grid, expressions.evaluate(expr, t=grid), expr=expr)

    @classmethod
    def constant(cls, value, grid):
        grid = np.asarray(grid, dtype=float)
        return cls(grid, np.full_like(grid, float(value)),
                   expr=sympy.Float(value) if value else sympy.Integer(0))

    # -- basic queries ------------------------------------------------

    @property
    def h(self):
        return float(self.grid[1] - self.grid[0])

    @property
    def t_end(self):
        return float(self.grid[-1])

    @property
    def max_abs(self):
        return float(np.max(np.abs(self.values)))

    def _spline_eval(self, tq):
        if self._spline is None:
            from scipy.interpolate import CubicSpline
            self._spline = CubicSpline(self.grid, self.values)
        return self._spline(tq)

    def __call__(self, tq):
        out = self.sample(tq)
        return out if np.ndim(tq) else float(out)

    def sample(self, grid2):
        """Values at the times grid2 (exact when expression-backed).

        A purely sampled trace raises ValueError outside its grid.
        """
        grid2 = np.asarray(grid2, dtype=float)
        if same_grid(self.grid, grid2):
            return self.values.copy()
        if self.expr is not None:
            return expressions.evaluate(self.expr, t=grid2)
        lo, hi = self.grid[0], self.grid[-1]
        pad = 1e-12 * max(1.0, abs(hi))
        if grid2.min() < lo - pad or grid2.max() > hi + pad:
            raise ValueError("resampling outside the trace support")
        return np.asarray(self._spline_eval(grid2), dtype=float)

    def resample(self, grid2):
        vals = self.sample(grid2)
        return TimeTrace(grid2, vals, expr=self.expr)

    # -- calculus -----------------------------------------------------

    def derivative(self, order=1):
        if order == 0:
            return self
        if self.expr is not None:
            dexpr = sympy.diff(self.expr, T, order)
            return TimeTrace.from_expr(dexpr, self.grid)
        return TimeTrace(self.grid, fd_derivative(self.values, self.h, order))

    def value_at_start(self, order=0):
        """d^order/dt^order at the left endpoint."""
        if self.expr is not None:
            d = sympy.diff(self.expr, T, order)
            return float(d.subs(T, self.grid[0]))
        if order == 0:
            return float(self.values[0])
        npe = order + FD_ACCURACY
        w = fd_weights(np.arange(npe), order) / self.h ** order
        return float(self.values[:npe] @ w)

    # -- arithmetic (grids must match; descriptors combine when both exist) --

    def _coerce(self, other):
        if isinstance(other, TimeTrace):
            if not same_grid(self.grid, other.grid):
                raise ValueError("trace grids differ")
            return other.values, other.expr
        if np.ndim(other) == 0:
            val = float(other)
            return val, sympy.Float(val)
        return NotImplemented, None

    def _binop(self, other, np_op, sym_op):
        vals, oexpr = self._coerce(other)
        if vals is NotImplemented:
            return NotImplemented
        expr = None
        if self.expr is not None and oexpr is not None:
            expr = sym_op(self.expr, oexpr)
        return TimeTrace(self.grid, np_op(self.values, vals), expr=expr)

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
        return TimeTrace(self.grid, -self.values,
                         expr=None if self.expr is None else -self.expr)
