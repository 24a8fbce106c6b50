"""Rapidly oscillating drives r(t, tau) split into slow mean and fast remainder.

The fast remainder is a zero-mean trigonometric polynomial in the phase tau
with time-dependent coefficients.  That structure is closed under every
operation the solvers need: phase derivatives, slow-time derivatives,
zero-mean antiderivatives in tau, and division by a time trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy
from sympy.simplify.fu import TR8

from . import expressions
from .expressions import T, TAU
from .traces import TimeTrace

__all__ = [
    "FastProfile", "OscillatorySource",
    "tau_mean", "split_source", "rho0", "rho1",
    "corner_values",
]

_TWO_PI = 2.0 * np.pi
N_TAU = 256     # phase samples per period when a callable drive is resolved
N_CHEB_START = 17   # first Chebyshev set of the slow-time sampler
N_CHEB_MAX = 257    # largest Chebyshev set before the nodal fallback


@dataclass(eq=False)
class FastProfile:
    """Zero-tau-mean trig polynomial sum_k a_k(t) cos(k tau) + b_k(t) sin(k tau)."""

    terms: list            # of (k: int, kind: "cos"|"sin", coeff: TimeTrace)
    grid: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        norm = {}
        order = []
        for k, kind, coeff in self.terms:
            k = int(k)
            if k < 1:
                raise ValueError("harmonic indices start at 1")
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
        terms = []
        for k, kind, coeff in specs:
            if isinstance(coeff, TimeTrace):
                tr = coeff
            elif isinstance(coeff, (int, float)):
                tr = TimeTrace.constant(float(coeff), grid)
            else:
                tr = TimeTrace.from_expr(coeff, grid)
            terms.append((int(k), kind, tr))
        return cls(terms, grid)

    @property
    def max_abs(self):
        return max((c.max_abs for _, _, c in self.terms), default=0.0)

    # -- evaluation -----------------------------------------------------

    def evaluate(self, t, tau):
        """Pointwise values; t and tau broadcast together."""
        t = np.asarray(t, dtype=float)
        tau = np.asarray(tau, dtype=float)
        out = np.zeros(np.broadcast_shapes(t.shape, tau.shape))
        for k, kind, coeff in self.terms:
            osc = np.cos(k * tau) if kind == "cos" else np.sin(k * tau)
            out = out + coeff(t) * osc
        return float(out) if out.ndim == 0 else out

    def coefficient(self, k, kind):
        for kk, kd, c in self.terms:
            if kk == k and kd == kind:
                return c
        return TimeTrace.constant(0.0, self.grid)

    # -- calculus in the fast phase --------------------------------------

    def _phase_map(self, order, factor):
        """order steps of cos(k tau) -> -factor(k) sin(k tau) and
        sin(k tau) -> factor(k) cos(k tau); the factor k differentiates,
        -1/k integrates with zero mean."""
        terms = self.terms
        for _ in range(order):
            terms = [(k, "sin", c * -factor(k)) if kind == "cos"
                     else (k, "cos", c * factor(k)) for k, kind, c in terms]
        return FastProfile(terms, self.grid)

    def tau_derivative(self, order=1):
        return self._phase_map(order, float)

    def tau_antiderivative_zero_mean(self, order=1):
        """Antiderivative in tau with the constant fixed by zero tau-mean."""
        return self._phase_map(order, lambda k: -1.0 / k)

    def corner(self, t_order=0):
        """d^t_order/dt^t_order of the profile at (t=grid[0], tau=0)."""
        return sum((c.value_at_start(t_order) for k, kind, c in self.terms
                    if kind == "cos"), 0.0)

    # -- algebra ----------------------------------------------------------

    def scaled(self, factor):
        """Multiply every coefficient by a scalar or a TimeTrace."""
        return FastProfile([(k, kind, c * factor) for k, kind, c in self.terms],
                           self.grid)

    def divided_by(self, trace):
        return FastProfile([(k, kind, c / trace) for k, kind, c in self.terms],
                           self.grid)

    def __add__(self, other):
        if not isinstance(other, FastProfile):
            return NotImplemented
        return FastProfile(self.terms + other.terms, self.grid)

    def __neg__(self):
        return self.scaled(-1.0)

    def __sub__(self, other):
        if not isinstance(other, FastProfile):
            return NotImplemented
        return self + (-other)

    def resample(self, grid2):
        return FastProfile([(k, kind, c.resample(grid2))
                            for k, kind, c in self.terms], np.asarray(grid2, float))


@dataclass(eq=False)
class OscillatorySource:
    """Drive r(t, tau) = r0(t) + r1(t, tau) with r1 of zero tau-mean."""

    r0: TimeTrace
    r1: FastProfile

    def evaluate(self, t, tau):
        return self.r0(t) + self.r1.evaluate(t, tau)

    @property
    def grid(self):
        return self.r0.grid

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
    of tau and nonzero.  Angle sums are expanded only in phase atoms, and
    product-to-sum (TR8) runs only on the tau factor of each term, so
    t-dependent factors such as cos(t) stay out of the phase algebra.
    Raises ValueError unless the drive is a trigonometric polynomial in tau.
    """
    e = expressions.parse(expr, allowed=(T, TAU))
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
    return mean, {key: env for key, env in table.items() if env != 0}


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


def _phase_samples(r, t, n_tau):
    """r(t, tau) on n_tau equispaced phases, shape (len(t), n_tau), and
    max(1, max |r|); one extra tau = 2*pi column checks the periodicity."""
    return _periodic(_sample(r, t, _phases(n_tau)))


def _chebyshev_points(a, b, n):
    """n Chebyshev-Lobatto points on [a, b], increasing, endpoints exact.

    The sine form is exactly antisymmetric, and the points of n are every
    other point of 2n - 1.
    """
    x = np.sin(0.5 * np.pi * np.arange(1 - n, n, 2) / (n - 1))
    pts = 0.5 * (a + b) + 0.5 * (b - a) * x
    pts[0], pts[-1] = a, b
    return pts


def _barycentric(nodes, y):
    """(len(y), len(nodes)) matrix taking values at Chebyshev-Lobatto nodes
    to their interpolant at y (second barycentric form); a y that is a node
    gets an exact unit row."""
    w = (-1.0) ** np.arange(nodes.size)
    w[[0, -1]] *= 0.5
    mat = y[:, None] - nodes[None, :]
    exact = mat == 0.0
    mat[exact] = 1.0
    np.divide(w, mat, out=mat)
    mat /= mat.sum(axis=1, keepdims=True)
    hit = exact.any(axis=1)
    mat[hit] = exact[hit]
    return mat


def _slow_table(r, grid, taus):
    """r(t, tau) on the grid through Chebyshev interpolation in slow time.

    Samples r at 17, 33, 65, ... nested Chebyshev points in t, doubling until
    the interpolant on the coarser points predicts the fresh samples to
    1e-14 * max(1, max |r|); then interpolates every phase column onto the
    grid.  Returns None, with nothing interpolated, when that needs more than
    N_CHEB_MAX points, when the grid has no more nodes than the next
    Chebyshev set, or when the grid is not increasing.
    """
    n = N_CHEB_START
    if grid.size <= 2 * n - 1 or not np.all(np.diff(grid) > 0):
        return None
    a, b = grid[0], grid[-1]
    nodes = _chebyshev_points(a, b, n)
    table = _sample(r, nodes, taus)
    while True:
        n = 2 * n - 1
        if n > N_CHEB_MAX or grid.size <= n:
            return None
        fine = _chebyshev_points(a, b, n)
        fresh = _sample(r, fine[1::2], taus)
        miss = np.max(np.abs(_barycentric(nodes, fine[1::2]) @ table - fresh))
        merged = np.empty((n, taus.size))
        merged[0::2], merged[1::2] = table, fresh
        nodes, table = fine, merged
        # a finite miss means every sample so far is finite
        if np.isfinite(miss) and \
                miss <= 1e-14 * max(1.0, float(np.max(np.abs(table)))):
            break
    out = np.empty((grid.size, taus.size))
    # row blocks keep each interpolation matrix no larger than out
    step = max(1, out.size // n)
    for lo in range(0, grid.size, step):
        np.matmul(_barycentric(nodes, grid[lo:lo + step]), table,
                  out=out[lo:lo + step])
    return out


def tau_mean(obj, t=0.0):
    """Average over one fast period at fixed slow time.

    FastProfile means vanish structurally; expressions give their exact tau
    mean; callables are sampled on N_TAU equispaced phases (exact for trig
    polynomials below the aliasing limit).
    """
    if isinstance(obj, FastProfile):
        return 0.0
    if isinstance(obj, OscillatorySource):
        return float(obj.r0(t))
    if isinstance(obj, (str, sympy.Expr)):
        return float(_harmonic_table(obj)[0].subs(T, t))
    return float(_phase_samples(obj, [t], N_TAU)[0].mean())


def split_source(r, grid, n_tau=N_TAU):
    """Split a drive r(t, tau) into slow mean r0(t) and fast remainder r1.

    Accepts an OscillatorySource (returned as is on the same grid, else
    resampled onto it), an expression in t and tau, or a callable r(t, tau);
    callables are resolved with an n_tau-point discrete Fourier transform
    along the phase and must be 2*pi-periodic.
    A callable is sampled on a Chebyshev grid in slow time and interpolated
    onto the grid (``_slow_table``), or at every grid node when that
    interpolant does not converge.
    """
    grid = np.asarray(grid, dtype=float)
    if isinstance(r, OscillatorySource):
        if r.grid.size == grid.size and np.allclose(r.grid, grid,
                                                    rtol=0, atol=1e-13):
            return r
        return r.resample(grid)
    if isinstance(r, (str, sympy.Expr)):
        mean, table = _harmonic_table(r)
        terms = [(k, kind, TimeTrace.from_expr(env, grid))
                 for (k, kind), env in table.items()]
        return OscillatorySource(TimeTrace.from_expr(mean, grid),
                                 FastProfile(terms, grid))

    if not callable(r):
        raise TypeError("drive must be a source, an expression, or a callable")
    taus = _phases(n_tau)
    table = _slow_table(r, grid, taus)
    if table is None:
        table = _sample(r, grid, taus)
    samples, scale = _periodic(table)
    F = np.fft.rfft(samples, axis=1)
    r0 = TimeTrace(grid, F[:, 0].real / n_tau)
    terms = []
    for k in range(1, n_tau // 2):
        a = 2.0 * F[:, k].real / n_tau
        b = -2.0 * F[:, k].imag / n_tau
        if np.max(np.abs(a)) > 1e-12 * scale:
            terms.append((k, "cos", TimeTrace(grid, a)))
        if np.max(np.abs(b)) > 1e-12 * scale:
            terms.append((k, "sin", TimeTrace(grid, b)))
    nyq = F[:, n_tau // 2].real / n_tau
    if np.max(np.abs(nyq)) > 1e-9 * scale:
        raise ValueError("fast harmonics at or beyond the sampling limit; "
                         "raise n_tau")
    return OscillatorySource(r0, FastProfile(terms, grid))


def rho0(r1):
    """Zero-mean second antiderivative of the fast part in the phase variable."""
    if isinstance(r1, OscillatorySource):
        r1 = r1.r1
    return r1.tau_antiderivative_zero_mean(order=2)


def rho1(rho0_profile):
    """Zero-mean profile with d(rho1)/dtau = -rho0."""
    return (-rho0_profile).tau_antiderivative_zero_mean(order=1)


def corner_values(r1):
    """Corner data of rho0 and rho1 at (t, tau) = (0, 0).

    Returns a dict with rho0, rho0_tau, rho0_t, rho1, rho1_t; these five
    numbers determine the first- and second-order expansion coefficients.
    """
    p0 = rho0(r1)
    p1 = rho1(p0)
    return {
        "rho0": p0.corner(),
        "rho0_tau": p0.tau_derivative().corner(),
        "rho0_t": p0.corner(1),
        "rho1": p1.corner(),
        "rho1_t": p1.corner(1),
    }
