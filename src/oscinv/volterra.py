"""Second-kind Volterra equations a(t) u(t) + int_0^t K(t,s) u(s) ds = g(t).

The marching scheme is the trapezoidal product rule: at node t_i the integral
uses trapezoid weights on the known values u_0..u_{i-1} and the diagonal
contribution (h/2) K(t_i,t_i) u_i moves into the multiplier, keeping the
update explicit.  Global accuracy is O(h^2) for smooth kernels.

The spectral trace kernel K(t,s) = -sum_m sqrt(lam_m) f_m(s) y_m(x0)
sin(sqrt(lam_m)(t-s)) vanishes on the diagonal and separates by the angle
addition formula into K(t_i, s_j) = -(A_i . P_j - B_i . Q_j), with row
factors A, B (sqrt(lam) y(x0) times sin, cos at t_i) and integrand factors
P, Q (f times cos, sin at s_j).  The same rule is then marched block by block
(Linz, Analytical and Numerical Methods for Volterra Equations, SIAM 1985):
2M running sums carry the history, and each block of nodes costs a few
matrix products and one lower-triangular solve, O(N*M) in all instead of the
generic O(N^2).

A separable kernel with a smooth solution is also solved with no grid at all
(``solve_chebyshev``): a Nystrom method on nested Chebyshev-Lobatto nodes
with the Clenshaw-Curtis cumulative matrix, one dense solve of at most
chebyshev.N_MAX unknowns (Brunner, Collocation Methods for Volterra Integral
and Related Functional Equations, CUP 2004; Tang, Xu & Cheng, J. Comput.
Math. 26 (2008)).  Drive recovery uses it, with the march as its fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chebyshev
from .basis import SeparableAmplitude, separable_sum
from .traces import TimeTrace

__all__ = ["VolterraKernel", "build_kernel", "solve_second_kind",
           "solve_chebyshev", "volterra_residual"]

BLOCK = 64      # nodes per block of the separable march
NOISE_FACTOR = 10.0     # solve_chebyshev's stop: misses allowed per unit of
                        # its data's error bound; a resolved solution misses
                        # by up to 1 + the Lebesgue constant of its nodes,
                        # under 6 for n <= 257


@dataclass(eq=False)
class VolterraKernel:
    """Separable trace kernel with its spectral data."""

    lams: np.ndarray            # (M,)
    mode_weights: np.ndarray    # (M,) eigenfunctions at the observation point
    coeffs: np.ndarray          # (n_terms, M) projections of the space factors
    amplitude: SeparableAmplitude   # supplies the time factors g_i

    def mode_amplitudes(self, s):
        """f_m(s) = sum_i c_im g_i(s) on a 1-D array s, shape (M, s.size)."""
        return separable_sum(self.coeffs, self.amplitude.time_factors(s))

    def evaluate(self, t, s):
        """K(t, s) for scalar t and a 1-D array s."""
        s = np.asarray(s, dtype=float)
        roots = np.sqrt(self.lams)
        return -(roots * self.mode_weights) @ (
            self.mode_amplitudes(s) * np.sin(np.outer(roots, float(t) - s)))


def build_kernel(basis, f, x0):
    """Trace kernel of the slow-part equation at observation point x0.

    ``f`` is a SeparableAmplitude.
    """
    wts = basis.point_weights(x0)
    return VolterraKernel(basis.eigenvalues.copy(), wts,
                          f.term_coefficients(basis), f)


def solve_second_kind(a, K, g):
    """March the product-trapezoid scheme on g's grid; returns the solution
    trace.

    a and g are TimeTraces on one grid; K is a ``VolterraKernel`` (the
    blocked march) or a callable K(t, s) (the generic per-row march).  The
    multiplier must be uniformly nonzero: min |a| >= 1e-8 * max |a| is
    enforced, since the equation degenerates to first kind where a vanishes.
    """
    grid = g.axis
    if a.axis != grid:
        raise ValueError("the multiplier and the data need one grid")
    av, gv = a.values, g.values
    amax = float(np.max(np.abs(av)))
    if amax == 0.0 or float(np.min(np.abs(av))) < 1e-8 * amax:
        raise ValueError("multiplier a(t) vanishes (or nearly) on the grid; "
                         "the second-kind formulation degenerates")
    h, t = grid.h, grid.nodes
    n = t.size
    u = np.empty(n)
    u[0] = gv[0] / av[0]

    if isinstance(K, VolterraKernel):
        _march_separable(av, K, gv, grid, u)
        return TimeTrace(grid, u)

    if not callable(K):
        raise TypeError("kernel must be a VolterraKernel or a callable K(t, s)")
    for i in range(1, n):
        row = np.asarray(K(t[i], t[: i + 1]), dtype=float)
        acc = h * (0.5 * row[0] * u[0] + row[1:i] @ u[1:i])
        u[i] = (gv[i] - acc) / (av[i] + 0.5 * h * row[i])
    return TimeTrace(grid, u)


def _march_separable(av, K, gv, grid, u):
    """Fill u[1:] by the trapezoid march for a separable kernel, in blocks.

    Within a block [i, j) the unknowns couple through the in-block kernel
    only, so each block is one lower-triangular solve; its diagonal is
    a(t) alone because K(t, t) = 0.  Tables are built per block, so no
    (M, N) array is held.
    """
    h, t = grid.h, grid.nodes
    roots = np.sqrt(K.lams)
    wf = (roots * K.mode_weights)[:, None]
    # f_m as in mode_amplitudes, but the (n_terms, N) time factors are
    # sampled once and each block projects only its own slice
    tf = K.amplitude.time_factors(t)
    # running trapezoid sums of f_m(s) cos/sin(sqrt(lam_m) s) u(s); the
    # first node has the half weight
    f0 = separable_sum(K.coeffs, tf[:, 0])
    Sc = 0.5 * f0 * np.cos(roots * t[0]) * u[0]
    Ss = 0.5 * f0 * np.sin(roots * t[0]) * u[0]
    # -h on the strictly lower triangle of a block, 0 on and above it
    lower = np.tril(np.full((BLOCK, BLOCK), -h), -1)
    for i in range(1, t.size, BLOCK):
        j = min(i + BLOCK, t.size)
        phase = np.outer(roots, t[i:j])
        c, s = np.cos(phase), np.sin(phase)
        f = separable_sum(K.coeffs, tf[:, i:j])
        P, Q = f * c, f * s
        A, Bm = (wf * s).T, (wf * c).T
        rhs = gv[i:j] + h * (A @ Sc - Bm @ Ss)
        L = A @ P - Bm @ Q
        L *= lower[:j - i, :j - i]
        np.fill_diagonal(L, av[i:j])
        ub = np.linalg.solve(L, rhs)
        u[i:j] = ub
        Sc += P @ ub
        Ss += Q @ ub


def solve_chebyshev(a, K, g, t_a, t_b, noise=0.0):
    """Nystrom solution on nested Chebyshev-Lobatto nodes of [t_a, t_b] for
    a separable kernel, as a ``chebyshev.Table``, or None.

    a(t) and g(t) give the multiplier and the data at the times of a 1-D
    array; noise bounds the error the data carries at any time.  On n
    points the integral is the Clenshaw-Curtis cumulative matrix C of
    ``chebyshev.cumulative_matrix`` scaled by the half-span, so the system
    (diag(a) + C o K) u = g holds the equation at the nodes, with
    K(t_i, t_j) = -(A_i . P_j - B_i . Q_j) from the factors the march uses.
    Its two end rows, where sampled data come from one-sided stencils with
    about ten times the noise of the others, give way to the conditions
    that the two top Chebyshev coefficients of u vanish (a tau method), and
    one dense solve gives u at the nodes.

    n doubles from 17.  The solution on n points is returned once its
    table, read at the 2n - 1 points, satisfies the full system there to
    within NOISE_FACTOR * (noise + n * eps * max |g|): noisy data stop at
    their plateau, exact data near rounding level.  None when no solution on up
    to chebyshev.N_MAX points gets there.
    """
    roots = np.sqrt(K.lams)
    wf = (roots * K.mode_weights)[:, None]
    half = 0.5 * (t_b - t_a)
    eps = np.finfo(float).eps
    n, prev = chebyshev.N_START, None
    while True:
        nodes = chebyshev.points(t_a, t_b, n)
        phase = np.outer(roots, nodes)
        c, s = np.cos(phase), np.sin(phase)
        f = K.mode_amplitudes(nodes)
        L = (half * chebyshev.cumulative_matrix(n)) \
            * ((wf * c).T @ (f * s) - (wf * s).T @ (f * c))
        L[np.diag_indices(n)] += a(nodes)
        gv = np.array(g(nodes), dtype=float)
        if prev is not None:
            miss = np.max(np.abs(L @ prev(nodes) - gv))
            if miss <= NOISE_FACTOR * (noise + n * eps * np.max(np.abs(gv))):
                return prev
        if 2 * n - 1 > chebyshev.N_MAX:
            return None
        L[[0, -1]] = chebyshev.coefficient_matrix(n)[[-1, -2]]
        gv[[0, -1]] = 0.0
        prev = chebyshev.Table(t_a, t_b, np.linalg.solve(L, gv))
        n = 2 * n - 1


def _simpson(y, h):
    """Composite Simpson integral of at least three samples y of step h.
    An even count closes with the last-interval rule of
    ``scipy.integrate.simpson`` (scipy >= 1.11): weights 5h/12, 2h/3 and
    -h/12 on the last three samples."""
    n = y.size
    odd = n - 1 + n % 2
    out = np.sum(y[0:odd - 2:2] + 4.0 * y[1:odd - 1:2] + y[2:odd:2]) \
        * (h / 3.0)
    if n % 2 == 0:
        out += h * (5.0 / 12.0 * y[-1] + 2.0 / 3.0 * y[-2] - y[-3] / 12.0)
    return out


def volterra_residual(a, K, g, u):
    """Sup-norm residual of a candidate solution u, with independent
    quadrature; a and g are TimeTraces on u's grid, K a callable K(t, s).

    The running integral is re-evaluated rowwise with Simpson weights, so the
    result measures the solution, not the marching rule.
    """
    grid = u.axis
    if a.axis != grid or g.axis != grid:
        raise ValueError("the multiplier, the data and the solution need "
                         "one grid")
    av, gv = a.values, g.values
    h, t = grid.h, grid.nodes
    uv = u.values
    res = np.empty(t.size)
    res[0] = av[0] * uv[0] - gv[0]
    for i in range(1, t.size):
        row = np.asarray(K(t[i], t[: i + 1]), dtype=float)
        prod = row * uv[: i + 1]
        if i == 1:
            integ = 0.5 * h * (prod[0] + prod[1])
        else:
            integ = _simpson(prod, h)
        res[i] = av[i] * uv[i] + integ - gv[i]
    return float(np.max(np.abs(res)))
