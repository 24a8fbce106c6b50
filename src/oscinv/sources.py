"""Rapidly oscillating drives r(t, tau) split into slow mean and fast remainder.

The fast remainder is a zero-mean trigonometric polynomial in the phase tau
with time-dependent coefficients.  That structure is closed under every
operation the solvers need: phase derivatives, slow-time derivatives,
zero-mean antiderivatives in tau, and division by a time trace.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import sympy
from sympy.simplify.fu import TR8

from . import chebyshev, expressions
from .expressions import T, TAU
from .traces import Grid, TimeTrace, derivatives_at

__all__ = ["FastProfile", "OscillatorySource", "split_source", "rho0"]

_TWO_PI = 2.0 * np.pi
N_TAU = 256     # phase samples per period when a callable drive is resolved
_K_MAX = math.sqrt(sys.float_info.max)   # largest harmonic with a finite k**2


@dataclass(eq=False)
class FastProfile:
    """Zero-tau-mean trig polynomial sum_k a_k(t) cos(k tau) +
    b_k(t) sin(k tau) on the ``Grid`` axis; ``grid`` is its node array."""

    terms: list            # of (k: int, kind: "cos"|"sin", coeff: TimeTrace)
    axis: Grid

    def __post_init__(self):
        self.axis = Grid.of(self.axis)
        norm = {}
        order = []
        for k, kind, coeff in self.terms:
            k = int(k)
            if k < 1:
                raise ValueError("harmonic indices start at 1")
            if k > _K_MAX:
                raise ValueError("harmonic index too large: its square "
                                 "overflows")
            if kind not in ("cos", "sin"):
                raise ValueError(f"unknown term kind {kind!r}")
            key = (k, kind)
            if key in norm:
                norm[key] = norm[key] + coeff
            else:
                norm[key] = coeff
                order.append(key)
        order.sort()
        self.terms = [(k, kind, norm[(k, kind)]) for k, kind in order]

    @classmethod
    def from_specs(cls, specs, grid):
        """Build from (harmonic, kind, coefficient expression/number) triples."""
        grid = Grid.of(grid)
        terms = []
        for k, kind, coeff in specs:
            if isinstance(coeff, (int, float)):
                tr = TimeTrace.constant(float(coeff), grid)
            else:
                tr = TimeTrace.from_expr(coeff, grid)
            terms.append((int(k), kind, tr))
        return cls(terms, grid)

    @property
    def grid(self):
        return self.axis.nodes

    # -- evaluation -----------------------------------------------------

    def evaluate(self, t, tau):
        """Pointwise values; t and tau broadcast together.  The
        coefficients are read together (``derivatives_at``), so those on
        tables of one point set take one table read."""
        t = np.asarray(t, dtype=float)
        tau = np.asarray(tau, dtype=float)
        out = np.zeros(np.broadcast_shapes(t.shape, tau.shape))
        coeffs = derivatives_at([c for _, _, c in self.terms], t.ravel())
        for (k, kind, _), vals in zip(self.terms, coeffs):
            osc = np.cos(k * tau) if kind == "cos" else np.sin(k * tau)
            out = out + vals.reshape(t.shape) * osc
        return float(out) if out.ndim == 0 else out

    def coefficient(self, k, kind):
        for kk, kd, c in self.terms:
            if kk == k and kd == kind:
                return c
        return TimeTrace.constant(0.0, self.axis)

    # -- calculus in the fast phase --------------------------------------

    def _phase_map(self, order, factor):
        """order steps of cos(k tau) -> -factor(k) sin(k tau) and
        sin(k tau) -> factor(k) cos(k tau); the factor k differentiates,
        -1/k integrates with zero mean.  The steps' factors are multiplied
        into one number per term, so each coefficient is scaled once; for
        harmonics 1 and 2 the factors are powers of two, and the result is
        bitwise that of scaling step by step."""
        terms = []
        for k, kind, c in self.terms:
            scale = 1.0
            for _ in range(order):
                scale *= factor(k) if kind == "sin" else -factor(k)
                kind = "cos" if kind == "sin" else "sin"
            terms.append((k, kind, c * scale if order else c))
        return FastProfile(terms, self.axis)

    def tau_derivative(self, order=1):
        return self._phase_map(order, float)

    def tau_antiderivative_zero_mean(self, order=1):
        """Antiderivative in tau with the constant fixed by zero tau-mean."""
        return self._phase_map(order, lambda k: -1.0 / k)

    def corner(self, t_order=0):
        """d^t_order/dt^t_order of the profile at (t=start, tau=0)."""
        return sum((c.value_at_start(t_order) for k, kind, c in self.terms
                    if kind == "cos"), 0.0)

    # -- algebra ----------------------------------------------------------

    def scaled(self, factor):
        """Multiply every coefficient by a scalar or a TimeTrace."""
        return FastProfile([(k, kind, c * factor) for k, kind, c in self.terms],
                           self.axis)

    def divided_by(self, trace):
        return FastProfile([(k, kind, c / trace) for k, kind, c in self.terms],
                           self.axis)

    def resample(self, grid2):
        grid2 = Grid.of(grid2)
        return FastProfile([(k, kind, c.resample(grid2))
                            for k, kind, c in self.terms], grid2)


@dataclass(eq=False)
class OscillatorySource:
    """Drive r(t, tau) = r0(t) + r1(t, tau) with r1 of zero tau-mean."""

    r0: TimeTrace
    r1: FastProfile

    def evaluate(self, t, tau):
        return self.r0(t) + self.r1.evaluate(t, tau)

    def resample(self, grid2):
        return OscillatorySource(self.r0.resample(grid2), self.r1.resample(grid2))


def _harmonic(arg):
    """k when the phase argument is k*tau for an integer k, else None."""
    ratio = arg / TAU
    return int(ratio) if ratio.is_Integer else None


def _angle_sum(fn):
    """cos/sin(k*tau + s) with s free of tau, rewritten in cos/sin(k*tau)."""
    rest, fast = fn.args[0].as_independent(TAU, as_Add=True)
    if rest == 0 or _harmonic(fast) is None:
        return fn
    c, s = sympy.cos(fast), sympy.sin(fast)
    if isinstance(fn, sympy.cos):
        return c * sympy.cos(rest) - s * sympy.sin(rest)
    return s * sympy.cos(rest) + c * sympy.sin(rest)


def _harmonic_table(expr):
    """Tau mean and harmonics of an expression drive, read off its expansion.

    Returns (mean_expr, {(k, kind): envelope_expr}) with every envelope free
    of tau and nonzero, in a new dict on every call; the expansion is
    memoised (``expressions.memo``).  Angle sums are expanded only in phase
    atoms, and product-to-sum (TR8) runs only on the tau factor of each
    term, so t-dependent factors such as cos(t) stay out of the phase
    algebra.  Raises ValueError unless the drive is a trigonometric
    polynomial in tau.
    """
    e = expressions.parse(expr, allowed=(T, TAU))
    mean, table = expressions.memo(("harmonic", e), lambda: _harmonics(e))
    return mean, dict(table)


def _harmonics(e):
    """_harmonic_table's split of a parsed drive, as (mean, items)."""
    e = sympy.expand(e.xreplace({fn: _angle_sum(fn) for fn in
                                 e.atoms(sympy.cos, sympy.sin)
                                 if TAU in fn.free_symbols}))
    by_factor = {}
    for term in sympy.Add.make_args(e):
        env, fast = term.as_independent(TAU, as_Add=False)
        by_factor[fast] = by_factor.get(fast, 0) + env
    mean = by_factor.pop(sympy.Integer(1), sympy.Integer(0))
    table = {}
    for fast, env in by_factor.items():
        for part in sympy.Add.make_args(sympy.expand(TR8(fast))):
            c, trig = part.as_independent(TAU, as_Add=False)
            if TAU not in trig.free_symbols:      # 1, or 0 for a zero drive
                mean += env * c
                continue
            k = _harmonic(trig.args[0]) if isinstance(
                trig, (sympy.cos, sympy.sin)) else None
            if k is None:
                raise ValueError(f"{trig} is not cos(k*tau) or sin(k*tau) "
                                 "with integer k; an expression drive must be "
                                 "a trigonometric polynomial in tau")
            key = (k, "cos" if isinstance(trig, sympy.cos) else "sin")
            table[key] = table.get(key, 0) + env * c
    return mean, tuple((key, env) for key, env in table.items()
                       if env != 0)


def _phases(n_tau):
    """n_tau equispaced phases on [0, 2*pi) and the closing phase 2*pi."""
    return np.append(_TWO_PI * np.arange(n_tau) / n_tau, _TWO_PI)


def _sample(r, t, taus):
    """r(t, tau) at every pair, shape (len(t), len(taus))."""
    # scalar drives run about twice as fast on Python floats as on numpy
    # scalars, with the same IEEE arithmetic
    ts = np.asarray(t, dtype=float).tolist()
    out = np.empty((len(ts), len(taus)))
    for j, p in enumerate(taus.tolist()):
        out[:, j] = [r(tv, p) for tv in ts]
    return out


def _periodic(table):
    """The n_tau phase columns of a table with a closing tau = 2*pi column,
    and max(1, max |r|); ValueError unless the closing column repeats the
    first."""
    samples, closing = table[:, :-1], table[:, -1]
    scale = max(1.0, float(np.max(np.abs(samples))))
    if np.max(np.abs(closing - samples[:, 0])) > 1e-9 * scale:
        raise ValueError("drive is not 2*pi-periodic in its fast argument")
    return samples, scale


def _converged(r, a, b, taus, n_max):
    """The callable drive r sampled at the phases taus on a converged
    Chebyshev table of [a, b] (``chebyshev.converge``), or None; memoised
    (``expressions.memo``) on (r, a, b, n_tau, n_max) with read-only
    values, so a drive is sampled once per span.  An unhashable r is
    sampled on every call."""
    def make():
        found = chebyshev.converge(lambda t: _sample(r, t, taus), a, b, n_max)
        if found is not None:
            found.values.setflags(write=False)
        return (found,)         # a tuple, so that None is kept too

    key = ("split", r, a, b, len(taus) - 1, n_max)
    try:
        hash(key)
    except TypeError:
        return make()[0]
    return expressions.memo(key, make)[0]


def split_source(r, grid, n_tau=N_TAU):
    """Split a drive r(t, tau) into slow mean r0(t) and fast remainder r1.

    Accepts an OscillatorySource (returned as is on the same grid, else
    resampled onto it), an expression in t and tau, or a callable r(t, tau);
    callables are resolved with an n_tau-point discrete Fourier transform
    along the phase and must be 2*pi-periodic.
    A callable is transformed on a converged Chebyshev table in slow time
    (``chebyshev.converge``), sampled once per (callable, span, n_tau), so
    it must be a pure function; the kept columns are read onto each grid
    through one table, and each stays its trace's table.  A table needing
    more than chebyshev.N_MAX points or as many as the grid has nodes
    gives way to samples at every grid node.  The grid is a ``Grid`` or its
    nodes.
    """
    grid = Grid.of(grid)
    if isinstance(r, OscillatorySource):
        return r if r.r0.axis == grid else r.resample(grid)
    if isinstance(r, (str, sympy.Expr)):
        mean, table = _harmonic_table(r)
        terms = [(k, kind, TimeTrace.from_expr(env, grid))
                 for (k, kind), env in table.items()]
        return OscillatorySource(TimeTrace.from_expr(mean, grid),
                                 FastProfile(terms, grid))

    if not callable(r):
        raise TypeError("drive must be a source, an expression, or a callable")
    taus = _phases(n_tau)
    found = _converged(r, grid.start, grid.stop, taus,
                       min(chebyshev.N_MAX, grid.n))
    samples, scale = _periodic(_sample(r, grid.nodes, taus) if found is None
                               else found.values)
    F = np.fft.rfft(samples, axis=1)
    # harmonics 1 .. n_tau/2 - 1 as columns cos 1, sin 1, cos 2, ...; each
    # kept when its largest value is above 1e-12 * scale
    fast = F[:, 1:n_tau // 2]
    trig = np.stack([2.0 * fast.real / n_tau, -2.0 * fast.imag / n_tau],
                    axis=2).reshape(len(F), -1)
    kept = np.flatnonzero(np.abs(trig).max(axis=0) > 1e-12 * scale)
    keys = [(0, "mean")] + [(int(j) // 2 + 1, ("cos", "sin")[j % 2])
                            for j in kept]
    nyq = F[:, n_tau // 2].real / n_tau
    if np.max(np.abs(nyq)) > 1e-9 * scale:
        raise ValueError("fast harmonics at or beyond the sampling limit; "
                         "raise n_tau")
    # take, not trig[:, kept]: the columns stay in C order, which the
    # table read's matrix product rounds by
    cols = np.column_stack([F[:, 0].real / n_tau, trig.take(kept, axis=1)])
    if found is None:
        r0, *env = [TimeTrace(grid, v) for v in cols.T]
    else:
        a, b = found.a, found.b
        on_grid = chebyshev.Table(a, b, cols)(grid.nodes)
        r0, *env = [TimeTrace(grid, v, table=chebyshev.Table(a, b, c))
                    for v, c in zip(on_grid.T, cols.T)]
    return OscillatorySource(r0, FastProfile(
        [key + (tr,) for key, tr in zip(keys[1:], env)], grid))


def rho0(r1):
    """Zero-mean second antiderivative of the fast part in the phase variable."""
    return r1.tau_antiderivative_zero_mean(order=2)
