"""Slow functions of time, and Sturm-Liouville modes, on nested
Chebyshev-Lobatto points.

A slow function (a drive envelope, a slow mode response, a set of modes)
is one ``Table``: its values at the n Chebyshev-Lobatto points of an
interval.  A table is read at any times by its interpolant (the barycentric
formula), differentiated by the Chebyshev differentiation matrix, and
chopped to the fewest nested points whose dropped Chebyshev coefficients
have a negligible l1 tail (after Aurentz & Trefethen, "Chopping a
Chebyshev series", ACM TOMS 43, 2017).  ``converge`` samples on 17, 33,
65, ... nested points, doubling until the coarser table predicts the fresh
samples; ``cumulative_matrix`` integrates node values cumulatively by the
Clenshaw-Curtis rule.  The Sturm-Liouville basis collocates its operator
with ``differentiation_matrix`` and integrates mode products with the
Clenshaw-Curtis weights (``clenshaw_curtis``).  See L. N. Trefethen,
Approximation Theory and Approximation Practice (SIAM 2013) and Spectral
Methods in MATLAB (SIAM 2000).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["N_MAX", "points", "Table", "converge", "coefficient_matrix",
           "cumulative_matrix", "clenshaw_curtis", "differentiation_matrix"]

N_START = 17    # first point set of the doubling
N_MAX = 257     # largest point set before a caller falls back
STOP_TOL = 1e-14   # largest miss allowed per unit max(1, max |values|)


def points(a, b, n):
    """n Chebyshev-Lobatto points on [a, b], increasing, endpoints exact.

    The sine form is exactly antisymmetric, and the points of n are every
    other point of 2n - 1.
    """
    x = np.sin(0.5 * np.pi * np.arange(1 - n, n, 2) / (n - 1))
    pts = 0.5 * (a + b) + 0.5 * (b - a) * x
    pts[0], pts[-1] = a, b
    return pts


@dataclass(eq=False)
class Table:
    """A slow function on [a, b]: its values at the n points of
    ``points(a, b, n)``, (n,) or (n, K) for K functions.  A read, a chop
    and a derivative all take the interpolant of those values."""

    a: float
    b: float
    values: np.ndarray

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def nodes(self):
        return points(self.a, self.b, self.n)

    def __call__(self, t):
        """The interpolant at the times t of [a, b] (1-D), shape
        (len(t),) + values.shape[1:], by the second barycentric formula
        (Berrut & Trefethen, SIAM Rev. 46, 2004); a time that is a point
        of the table reads its value exactly, and so does one so near a
        point (within about 1e-308) that 1/(t - x_j) overflows.

        A row block of times forms R = 1/(t - x_j) once, and one matrix
        product of R with the columns [w_j v_j | w_j] (w the barycentric
        weights) sums every numerator and the denominator together; each
        result is then divided once.  That is the arrangement Higham (IMA
        J. Numer. Anal. 24, 2004) proves forward stable on Chebyshev
        points: unlike a sum of coefficients, whose rounding is eps times
        their l1 norm everywhere, it stays accurate relative to the values
        near the read, as near a response's start from rest.  Each block
        of R holds at most 2**16 entries.
        """
        t = np.asarray(t, dtype=float)
        nodes = self.nodes
        values = self.values.reshape(self.n, -1)
        w = _barycentric_weights(self.n)[:, None]
        stacked = np.concatenate([w * values, w], axis=1)
        out = np.empty((t.size, values.shape[1]), dtype=stacked.dtype)
        step = max(1, min(t.size, (1 << 16) // self.n))
        # t - x_j as the rank-2 product [t 1] @ [1; -x]: t 1 and 1 (-x_j)
        # are exact, so each entry is the one rounding of the subtraction,
        # as one matrix product, not a broadcast of short rows
        times = np.stack([t, np.ones_like(t)], axis=1)
        minus = np.stack([np.ones(self.n), -nodes])
        # one R and one sums buffer serve every block of the call: a new
        # pair per block made glibc trim and re-fault the heap on every
        # call of a fresh process
        recip = np.empty((step, self.n))
        sums = np.empty((step, stacked.shape[1]), dtype=stacked.dtype)
        # a time that is a point divides by zero, and one within about
        # 1e-308 of a point overflows 1/(t - x_j); either row sums to
        # inf / inf, and is replaced by the point's value
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for lo in range(0, t.size, step):
                m = min(step, t.size - lo)
                R, S = recip[:m], sums[:m]
                np.matmul(times[lo:lo + m], minus, out=R)
                np.reciprocal(R, out=R)
                np.matmul(R, stacked, out=S)
                np.divide(S[:, :-1], S[:, -1:], out=out[lo:lo + m])
            rows = np.flatnonzero(~np.isfinite(out[:, :1]).all(axis=1))
            at = np.searchsorted(nodes, t[rows]).clip(1, self.n - 1)
            for near in (at - 1, at):
                hit = np.isinf(1.0 / (t[rows] - nodes[near]))
                out[rows[hit]] = values[near[hit]]
        return out.reshape(t.shape + self.values.shape[1:])

    def chop(self):
        """The table on the fewest of its nested point sets (17, 33, ...)
        whose dropped Chebyshev coefficients have an l1 tail of at most
        STOP_TOL * max(1, max |values|) in every column.  Since |T_k| <= 1,
        no read moves by more than twice that tail: the dropped terms, and
        their aliases on the smaller set.  The kept values are the table's
        own samples, so reads near small values stay accurate."""
        tol = STOP_TOL * max(1.0, float(np.max(np.abs(self.values))))
        mag = np.abs(coefficient_matrix(self.n) @ self.values) \
            .reshape(self.n, -1)
        tails = np.cumsum(mag[::-1], axis=0)[::-1].max(axis=1)
        m = N_START
        while m < self.n:
            if (self.n - 1) % (m - 1) == 0 and tails[m] <= tol:
                return Table(self.a, self.b,
                             self.values[::(self.n - 1) // (m - 1)])
            m = 2 * m - 1
        return self

    def derivative(self, order=1):
        """The order-th derivative of the interpolant as a Table on the
        same points, by ``differentiation_matrix``."""
        if order == 0:
            return self
        D = (2.0 / (self.b - self.a)) * differentiation_matrix(self.n)
        values = self.values
        for _ in range(order):
            values = D @ values
        return Table(self.a, self.b, values)


def converge(sample, a, b, n_max=N_MAX):
    """Table of a slow function on nested Chebyshev points of [a, b].

    sample(t) returns the values at the times t as a (len(t), K) array.
    Samples on 17, 33, 65, ... nested points, doubling until the table on
    the coarser points predicts the fresh samples to
    STOP_TOL * max(1, max |values|); every sample is taken once.  Returns
    None, with nothing sampled when even 33 points exceed n_max, when that
    needs more than n_max points.
    """
    n = N_START
    if 2 * n - 1 > n_max:
        return None
    table = Table(a, b, sample(points(a, b, n)))
    while True:
        n = 2 * n - 1
        if n > n_max:
            return None
        fresh_t = points(a, b, n)[1::2]
        fresh = sample(fresh_t)
        miss = np.max(np.abs(table(fresh_t) - fresh))
        merged = np.empty((n,) + fresh.shape[1:], dtype=fresh.dtype)
        merged[0::2], merged[1::2] = table.values, fresh
        table = Table(a, b, merged)
        # a finite miss means every sample so far is finite
        if np.isfinite(miss) and \
                miss <= STOP_TOL * max(1.0, float(np.max(np.abs(merged)))):
            return table


@lru_cache(maxsize=None)
def _barycentric_weights(n):
    """Barycentric weights of the n points of ``points(a, b, n)``: (-1)^j,
    halved at both ends (their common factor cancels in every use).
    Read-only, one per n."""
    w = (-1.0) ** np.arange(n)
    w[[0, -1]] *= 0.5
    w.setflags(write=False)
    return w


def _cos_pi(m, N):
    """cos(pi m / N) for integer m, reduced mod 2N so that no large argument
    loses digits."""
    return np.cos(np.pi * (m % (2 * N)) / N)


@lru_cache(maxsize=None)
def coefficient_matrix(n):
    """(n, n) matrix taking values at the n points of ``points(-1, 1, n)``
    to the Chebyshev coefficients c_0 .. c_{n-1} of their interpolant, by
    the discrete cosine transform.  Read-only, one per n."""
    N = n - 1
    j = np.arange(n)
    ends = np.ones(n)
    ends[[0, -1]] = 0.5
    # c_k = (2/N) sum_i'' v(cos(pi i/N)) T_k(cos(pi i/N)), with c_0 and c_N
    # halved; point j of points(-1, 1, n) is cos(pi (N - j)/N)
    mat = (2.0 / N) * (ends[:, None] * ends[None, :]) \
        * _cos_pi(np.outer(j, N - j), N)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def cumulative_matrix(n):
    """(n, n) Clenshaw-Curtis matrix taking values at the n points of
    ``points(-1, 1, n)`` to the integrals from -1 to each point of their
    interpolant; scale by (b - a)/2 for [a, b].  Read-only, one per n.

    The values go to Chebyshev coefficients c_k (``coefficient_matrix``),
    the coefficients to those of the antiderivative by
    int T_k = T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)), and those to values at
    the points less the value at -1.
    """
    N = n - 1
    j = np.arange(n)
    # antiderivative coefficients b_1 .. b_{N+1}
    c_pad = np.zeros((n + 2, n))
    c_pad[:n] = coefficient_matrix(n)
    kk = np.arange(1, n + 1)
    anti = (c_pad[kk - 1] - c_pad[kk + 1]) / (2.0 * kk[:, None])
    anti[0] = c_pad[0] - 0.5 * c_pad[2]
    # T_k at the points, less T_k(-1) = (-1)^k
    at_pts = _cos_pi(np.outer(N - j, kk), N) - (-1.0) ** kk
    mat = at_pts @ anti
    mat.setflags(write=False)
    return mat


def clenshaw_curtis(n):
    """Clenshaw-Curtis weights of the n points of ``points(-1, 1, n)``: the
    integrals over [-1, 1] of their Lagrange polynomials, exact for degree
    n - 1; scale by (b - a)/2 for [a, b].

    The weights are those of ``coefficient_matrix`` contracted with the
    moments int T_k = 2/(1 - k^2) of the even k.
    """
    N = n - 1
    k = np.arange(0, n, 2)
    moments = 2.0 / (1.0 - k * k)
    moments[0] *= 0.5
    if N % 2 == 0:
        moments[-1] *= 0.5
    w = (2.0 / N) * (moments @ _cos_pi(np.outer(k, N - np.arange(n)), N))
    w[[0, -1]] *= 0.5
    return w


def differentiation_matrix(n):
    """(n, n) matrix taking values at the n points of ``points(-1, 1, n)``
    to the derivative of their interpolant there; scale by 2/(b - a) for
    [a, b].

    Off the diagonal D_ij = (w_j/w_i)/(x_i - x_j) with the barycentric
    weights w_j = (-1)^j, halved at both ends, the point differences taken
    from the sine form, 2 cos(pi (i + j - N)/2N) sin(pi (i - j)/2N), so none
    loses digits; each diagonal entry is minus its row's sum, so constants
    differentiate to 0 exactly.
    """
    N = n - 1
    i = np.arange(n)
    diff = 2.0 * np.cos(0.5 * np.pi * (i[:, None] + i[None, :] - N) / N) \
        * np.sin(0.5 * np.pi * (i[:, None] - i[None, :]) / N)
    np.fill_diagonal(diff, 1.0)
    w = _barycentric_weights(n)
    mat = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, -mat.sum(axis=1))
    return mat
