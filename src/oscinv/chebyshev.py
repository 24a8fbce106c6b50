"""Slow functions of time, and Sturm-Liouville modes, on nested
Chebyshev-Lobatto points.

A slow function (a drive envelope, a slow mode response) is sampled on 17,
33, 65, ... nested Chebyshev-Lobatto points of an interval, doubling until
the barycentric interpolant on the coarser points predicts the fresh
samples (``converge``).  The converged table is interpolated onto any
times (``interpolate``) or integrated cumulatively by the Clenshaw-Curtis
rule (``cumulative_matrix``).  The Sturm-Liouville basis collocates its
operator with ``differentiation_matrix`` and integrates mode products with
the Clenshaw-Curtis weights (``clenshaw_curtis``).  See L. N. Trefethen,
Approximation Theory and Approximation Practice (SIAM 2013) and Spectral
Methods in MATLAB (SIAM 2000), and Berrut & Trefethen, SIAM Rev. 46 (2004),
for the barycentric form.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["N_MAX", "points", "barycentric", "interpolate", "converge",
           "coarsest", "coefficient_matrix", "cumulative_matrix",
           "clenshaw_curtis", "differentiation_matrix"]

N_START = 17    # first point set of the doubling
N_MAX = 257     # largest point set before a caller falls back
STOP_TOL = 1e-14   # largest miss allowed per unit max(1, max |table|)


def points(a, b, n):
    """n Chebyshev-Lobatto points on [a, b], increasing, endpoints exact.

    The sine form is exactly antisymmetric, and the points of n are every
    other point of 2n - 1.
    """
    x = np.sin(0.5 * np.pi * np.arange(1 - n, n, 2) / (n - 1))
    pts = 0.5 * (a + b) + 0.5 * (b - a) * x
    pts[0], pts[-1] = a, b
    return pts


def barycentric(nodes, y):
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


def interpolate(nodes, table, y):
    """The columns of a (len(nodes), K) table interpolated at the times y,
    shape (len(y), K); row blocks keep each interpolation matrix no larger
    than the result or 2**16 entries, so a short read is one product."""
    out = np.empty((y.size, table.shape[1]), dtype=table.dtype)
    step = max(1, max(out.size, 1 << 16) // nodes.size)
    for lo in range(0, y.size, step):
        np.matmul(barycentric(nodes, y[lo:lo + step]), table,
                  out=out[lo:lo + step])
    return out


def converge(sample, a, b, n_max=N_MAX):
    """(nodes, table) of a slow function on nested Chebyshev points of [a, b].

    sample(t) returns the values at the times t as a (len(t), K) array.
    Samples on 17, 33, 65, ... nested points, doubling until the
    interpolant on the coarser points predicts the fresh samples to
    STOP_TOL * max(1, max |table|); every sample is taken once.  Returns
    None, with nothing sampled when even 33 points exceed n_max, when that
    needs more than n_max points.
    """
    n = N_START
    if 2 * n - 1 > n_max:
        return None
    nodes = points(a, b, n)
    table = sample(nodes)
    while True:
        n = 2 * n - 1
        if n > n_max:
            return None
        fine = points(a, b, n)
        fresh = sample(fine[1::2])
        miss = np.max(np.abs(barycentric(nodes, fine[1::2]) @ table - fresh))
        merged = np.empty((n,) + table.shape[1:], dtype=table.dtype)
        merged[0::2], merged[1::2] = table, fresh
        nodes, table = fine, merged
        # a finite miss means every sample so far is finite
        if np.isfinite(miss) and \
                miss <= STOP_TOL * max(1.0, float(np.max(np.abs(table)))):
            return nodes, table


def coarsest(nodes, table):
    """The fewest of the nested point sets (17, 33, ... of ``nodes``) whose
    interpolant reproduces the table at every node to
    STOP_TOL * max(1, max |table|), as (nodes, table) of that set; a table
    that contracts many columns of a converged one often needs fewer
    points."""
    tol = STOP_TOL * max(1.0, float(np.max(np.abs(table))))
    n = N_START
    while n < nodes.size:
        stride = (nodes.size - 1) // (n - 1)
        sub, vals = nodes[::stride], table[::stride]
        if np.max(np.abs(barycentric(sub, nodes) @ vals - table)) <= tol:
            return sub, vals
        n = 2 * n - 1
    return nodes, table


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
    weights w of ``barycentric``, the point differences taken from the sine
    form, 2 cos(pi (i + j - N)/2N) sin(pi (i - j)/2N), so none loses
    digits; each diagonal entry is minus its row's sum, so constants
    differentiate to 0 exactly.
    """
    N = n - 1
    i = np.arange(n)
    diff = 2.0 * np.cos(0.5 * np.pi * (i[:, None] + i[None, :] - N) / N) \
        * np.sin(0.5 * np.pi * (i[:, None] - i[None, :]) / N)
    np.fill_diagonal(diff, 1.0)
    w = (-1.0) ** i
    w[[0, -1]] *= 0.5
    mat = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, -mat.sum(axis=1))
    return mat
