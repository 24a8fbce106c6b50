"""Quadrature kernels: cumulative product integration against e^{i*theta*s}.

The running integrals Q_i = int_{t0}^{t0+i*h} g(s) e^{i*theta*s} ds are
computed by interpolating the envelope g with piecewise quadratics over node
pairs and integrating the oscillatory weight exactly (a Filon-type product
rule).  At theta = 0 the weights reduce identically to composite Simpson, so
the same routine serves slow integrands.  Envelope smoothness gives an O(h^4)
error bound with a constant independent of theta, which is what lets coarse
grids (a few dozen points per fast period) resolve Duhamel integrals of
rapidly oscillating drives.

The rule is linear in the envelope and only its moments depend on theta, so
``duhamel_batch`` integrates every mode against every drive component in one
vectorised pass: the moments and weights come from one (modes, components)
table of phase rates, the phase e^{i(nu - root) s} factorises into one table
per component and one per mode, and the components are merged before a
single cumsum per mode.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "oscillatory_moments",
    "cumulative_oscillatory",
    "cumulative_simpson",
    "duhamel_batch",
    "gauss_panel_rule",
]

_SERIES_SWITCH = 0.5    # |theta * length| below this takes the power series
_SERIES_TERMS = 20      # |z| < 0.5: term 20 is below 1e-24 of the sum
_BLOCK_NODES = 1 << 17  # modes x nodes per pass: 2 MB per complex temporary


def oscillatory_moments(theta, length, count=3):
    """Moments m_p = int_0^length sigma^p e^{i*theta*sigma} d*sigma, p < count.

    theta may be an array of phase rates; the result has shape
    theta.shape + (count,).  Closed forms by parts where |theta*length| >= 0.5;
    a quickly convergent power series below that, where the closed forms lose
    digits to cancellation.
    """
    X = float(length)
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape + (count,), dtype=complex)
    small = np.abs(theta * X) < _SERIES_SWITCH
    p = np.arange(count)

    z = 1j * theta[small] * X
    term = np.ones_like(z)
    acc = np.zeros(z.shape + (count,), dtype=complex)
    for n in range(_SERIES_TERMS):
        acc += term[:, None] / (n + p + 1)
        term = term * z / (n + 1)
    out[small] = acc * X ** (p + 1)

    i_t = 1j * theta[~small]
    e = np.exp(i_t * X)
    big = np.empty(i_t.shape + (count,), dtype=complex)
    big[:, 0] = (e - 1.0) / i_t
    for q in range(1, count):
        big[:, q] = (X ** q * e - q * big[:, q - 1]) / i_t
    out[~small] = big
    return out


def _pair_weights(moments, h):
    """Weights for the quadratic through nodes (0, h, 2h) against the moments.

    The node index is the leading axis of the result.
    """
    m0, m1, m2 = moments[..., 0], moments[..., 1], moments[..., 2]
    w0 = (m2 - 3.0 * h * m1 + 2.0 * h * h * m0) / (2.0 * h * h)
    w1 = (2.0 * h * m1 - m2) / (h * h)
    w2 = (m2 - h * m1) / (2.0 * h * h)
    return np.stack([w0, w1, w2])


def _rule_weights(theta, h, n):
    """Product-rule weights for phase rates theta on n uniform intervals.

    Returns (pair, tail, start): pair holds the full-pair and first-half
    weights of each node, shape (3, 2) + theta.shape.  An odd n leaves one
    interval past the last pair, integrated from node ``start`` with the
    ``tail`` weights: the quadratic through the last three nodes over its
    second half, or the linear interpolant when n = 1.
    """
    pair = np.stack([
        _pair_weights(oscillatory_moments(theta, 2.0 * h), h),
        _pair_weights(oscillatory_moments(theta, h), h)], axis=1)
    if n == 1:
        m0, m1 = np.moveaxis(oscillatory_moments(theta, h, count=2), -1, 0)
        return pair, np.stack([m0 - m1 / h, m1 / h]), 0
    if n % 2:
        return pair, pair[:, 0] - pair[:, 1], n - 2
    return pair, None, None


def _cis(x):
    """e^{ix} for real x, from one cos and one sin pass."""
    out = np.empty(np.shape(x), dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _drive_table(drive, grid, shared=None):
    """(rates, weighted envelopes, e^{i rate s}) of the drive components.

    A shared envelope multiplies every component, so per-row envelopes are
    then not needed.
    """
    rates = np.array([float(nu) for nu, _, _ in drive])
    env = np.array([a * np.broadcast_to(g, grid.shape) for _, a, g in drive],
                   dtype=complex)
    if shared is not None:
        env *= shared
    return rates, env, _cis(rates[:, None] * grid)


def _weighted_sums(weights, table, rows, first, stop):
    """sum_k weights[k] @ (e^{i rate s_j} env(s_{j+k})), times rows(s_{j+k}),
    for the pair starts j = first, first + 2, ... below stop."""
    _, env, phase = table
    acc = 0.0
    for k, w in enumerate(weights):
        at = slice(first + k, stop + k, 2)
        part = w @ (phase[:, first:stop:2] * env[:, at])
        if rows is not None:
            part *= rows[:, at]
        acc += part
    return acc


def _rotated_integrals(rows, roots, table, grid, h):
    """S_b(t) = e^{i root_b t} Q_b(t) on the grid, shape (B, N), where Q_b
    runs over sum_c rows_b env_c e^{i(rate_c - root_b) s}.

    rows is a (B, N) array of per-row envelopes or None (all ones).  The
    phase is factorised as e^{i rate_c s} e^{-i root_b s}: the components
    (one exponential table each, in ``table``) are merged pair by pair
    before one cumsum per row, and each row needs one table of e^{i root_b s}
    at the pair starts.
    """
    n = grid.size - 1
    ne = n - n % 2
    pair, tail, start = _rule_weights(table[0][None, :] - roots[:, None], h, n)
    step = _cis(roots * h)
    S = np.zeros((roots.size, n + 1), dtype=complex)
    if ne:
        acc = _weighted_sums(pair, table, rows, 0, ne - 1)
        rot = _cis(roots[:, None] * grid[0:ne + 1:2])
        S[:, 2:ne + 1:2] = rot[:, 1:] * np.cumsum(acc[0] * rot[:, :-1].conj(),
                                                  axis=1)
        # a half pair ends one step past its start, where Q has gained
        # e^{-i root s_start} times the half-pair sum
        S[:, 1:ne:2] = step[:, None] * (S[:, 0:ne - 1:2] + acc[1])
    if tail is not None:
        seg = _weighted_sums(tail, table, rows, start, start + 1)[:, 0]
        S[:, n] = step * S[:, n - 1] + _cis(roots * (n - start) * h) * seg
    return S


def cumulative_oscillatory(values, h, theta, t0=0.0):
    """Running integrals of values * e^{i*theta*s} from t0 over a uniform grid.

    Parameters
    ----------
    values : (N+1,) array of envelope samples at t0 + i*h.
    h : positive step.
    theta : real phase rate (0 is allowed and exact for quadratics).
    t0 : grid origin; the phase factor e^{i*theta*s} uses absolute s.

    Returns
    -------
    (N+1,) complex array Q with Q[0] = 0.
    """
    g = np.asarray(values, dtype=complex)
    if g.size < 2:
        raise ValueError("need at least two samples")
    if h <= 0:
        raise ValueError("step must be positive")
    grid = t0 + h * np.arange(g.size)
    table = _drive_table([(theta, 1.0, g)], grid)
    return _rotated_integrals(None, np.zeros(1), table, grid, h)[0]


def duhamel_batch(fm, lams, grid, drive=((0.0, 1.0, 1.0),)):
    """Zero-data responses of a_m'' + lam_m a_m = F_m on a uniform grid.

    The forcing is F_m(s) = f_m(s) sum_c a_c g_c(s) e^{i nu_c s}, given by
    envelopes ``fm`` ((M, N), or one (N,) array shared by every mode) and
    ``drive``, a short list of components (rate nu_c, complex weight a_c,
    envelope g_c as an (N,) array or a scalar); F_m should be real.  Returns
    the (M, N) array

        a_m(t) = Im(e^{i r_m t} int_{t_0}^t F_m(s) e^{-i r_m s} ds) / r_m,

    r_m = sqrt(lam_m), each component integrated with the product rule at
    phase rate nu_c - r_m.  One call computes M + C exponential tables and
    M cumsums, working through the modes in row blocks of a fixed node count.
    """
    grid = np.asarray(grid, dtype=float)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if grid.size < 2:
        raise ValueError("need at least two samples")
    if not np.all(lams > 0):
        raise ValueError("mode eigenvalues must be positive")
    fm = np.asarray(fm, dtype=float)
    if fm.ndim == 1:
        rows, table = None, _drive_table(drive, grid, shared=fm)
    elif fm.shape == (lams.size, grid.size):
        rows, table = fm, _drive_table(drive, grid)
    else:
        raise ValueError("envelopes must be (N,) or (M, N)")
    h = grid[1] - grid[0]
    roots = np.sqrt(lams)
    out = np.empty((roots.size, grid.size))
    block = max(1, _BLOCK_NODES // grid.size)
    for lo in range(0, roots.size, block):
        blk = slice(lo, lo + block)
        S = _rotated_integrals(None if rows is None else rows[blk],
                               roots[blk], table, grid, h)
        out[blk] = S.imag / roots[blk, None]
    return out


def cumulative_simpson(values, h):
    """Running integrals of a slow envelope (theta = 0 product rule)."""
    return cumulative_oscillatory(values, h, 0.0).real


def gauss_panel_rule(a, b, n_panels, q=16):
    """Composite Gauss-Legendre rule: q nodes on each of n_panels panels."""
    xg, wg = np.polynomial.legendre.leggauss(q)
    edges = np.linspace(float(a), float(b), n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights
