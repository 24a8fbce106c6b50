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
pass.  The mode amplitudes come factored, f_m(s) = sum_i C[m, i] g_i(s), so
a pair of intervals contributes to mode m a contraction of one table Z of
node products e^{i nu_c s} a_c g_c(s) g_i(s), shared by every mode, with a
small weight matrix (the rule weights at rate nu_c - r_m times C[m, i]):
one matrix product per tile of modes gives all its full-pair sums acc_j
and half-pair sums.  The rotated running sums S_j = e^{i r_m s_j} Q_m(s_j)
obey S_{j+1} = lam_m (S_j + acc_j), lam_m = e^{2 i r_m h}, solved in blocks
of pairs by cumsums against two small tables of powers of lam_m, so no
phase table spans the grid.  The drive phases e^{i nu_c s} in Z are the
outer product of a coarse and a fine table of exact products, about
2 sqrt(N/2) cos and sin evaluations per distinct nonzero rate in place of
N/2.  A real drive comes as conjugate sidebands (nu, a, g), (-nu, conj(a),
g): the second's rows of Z are the conjugates of the first's, and a
rate-0 component's rows take no phase.

``slow_responses`` tabulates the zero-data responses to a slow forcing
f_m(t) r0(t) (the expansion's u0, the inverse problems' Lambda_m) on nested
Chebyshev-Lobatto nodes instead, by Clenshaw-Curtis.  It falls back to
``duhamel_batch`` on the uniform grid it is read on when r0 has neither an
expression nor a table, or the nodes do not converge (sqrt(lam_M) T > ~165).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# loaded with the package, so the first basis build does not pay for it
from numpy.polynomial.legendre import leggauss

from . import chebyshev
from .traces import Grid

__all__ = [
    "oscillatory_moments",
    "duhamel_batch",
    "mode_oscillations",
    "SlowResponses",
    "slow_responses",
    "gauss_panel_rule",
]

_SERIES_SWITCH = 0.5    # |theta * length| below this takes the power series
_SERIES_TERMS = 20      # |z| < 0.5: term 20 is below 1e-24 of the sum
_BLOCK_NODES = 1 << 17  # complex values per tile: a chunk of the node products
                        # and _BLOCK_ROWS modes over it, 2 MB
_BLOCK_ROWS = 16        # modes per tile
_SCAN_PAIRS = 64        # pairs per block of the Duhamel scan
_WAVE_NODES = 1024      # nodes per block of mode_oscillations
PANEL_NODES = 16        # Gauss-Legendre nodes per panel of gauss_panel_rule


def oscillatory_moments(theta, length, count=3):
    """Moments m_p = int_0^length sigma^p e^{i*theta*sigma} d*sigma, p < count.

    theta may be an array of phase rates and length one length or a 1-D
    array of them; the result has shape length.shape + theta.shape +
    (count,), and each length's moments are bitwise those it gets alone.
    Closed forms by parts where |theta*length| >= 0.5; a quickly convergent
    power series below that, where the closed forms lose digits to
    cancellation.
    """
    theta = np.asarray(theta, dtype=float)
    lengths = np.asarray(length, dtype=float)
    # the index of each entry's length, and the length itself
    which = np.broadcast_to(
        np.arange(lengths.size).reshape(lengths.shape + (1,) * theta.ndim),
        lengths.shape + theta.shape)
    X = lengths.ravel()[which]
    theta = np.broadcast_to(theta, which.shape)
    # each length's powers from its numpy scalar, so that a moment that
    # overflows is inf, not OverflowError: x ** (p + 1) for the series,
    # x ** q one at a time for the closed forms (pow rounds them apart)
    p = np.arange(count)
    scalars = [np.float64(x) for x in lengths.ravel()]
    series_powers = np.array([x ** (p + 1) for x in scalars])
    powers = np.array([[x ** q for q in range(1, count)] for x in scalars])
    out = np.empty(which.shape + (count,), dtype=complex)
    small = np.abs(theta * X) < _SERIES_SWITCH

    z = 1j * theta[small] * X[small]
    term = np.ones_like(z)
    acc = np.zeros(z.shape + (count,), dtype=complex)
    part = np.empty_like(acc)
    den = np.arange(1, _SERIES_TERMS + 1)[:, None] + p     # n + p + 1
    for n in range(_SERIES_TERMS):
        acc += np.divide(term[:, None], den[n], out=part)
        term *= z
        term /= n + 1
    out[small] = acc * series_powers[which[small]]

    big = ~small
    i_t = 1j * theta[big]
    e = np.exp(i_t * X[big])
    mom = np.empty(i_t.shape + (count,), dtype=complex)
    mom[:, 0] = (e - 1.0) / i_t
    for q in range(1, count):
        mom[:, q] = (powers[which[big], q - 1] * e - q * mom[:, q - 1]) / i_t
    out[big] = mom
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
    weights of each node, shape (3, 2) + theta.shape, from the moments at
    both lengths 2h and h in one pass.  An odd n leaves one interval past
    the last pair, integrated from node ``start`` with the ``tail``
    weights: the quadratic through the last three nodes over its second
    half, or the linear interpolant when n = 1.
    """
    moments = oscillatory_moments(theta, [2.0 * h, h])
    pair = _pair_weights(moments, h)
    if n == 1:
        m0, m1 = moments[1, ..., 0], moments[1, ..., 1]
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


def _split(a):
    """Veltkamp split of a into hi + lo, each with at most 26 bits."""
    c = 134217729.0 * a        # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _cis_product(r, t):
    """e^{i r t} for arrays r and t that broadcast together, with the
    rounding error of the product r t restored (Dekker's exact product).

    A rounded product is off by up to half an ulp of r t, a phase error of
    1e-14 at r t = 100; with the error restored the values are accurate to
    a few ulps whatever the phase.
    """
    r, t = np.broadcast_arrays(np.asarray(r, dtype=float),
                               np.asarray(t, dtype=float))
    p = r * t
    rh, rl = _split(r)
    th, tl = _split(t)
    err = ((rh * th - p) + rh * tl + rl * th) + rl * tl
    return _cis(p) * (1.0 + 1j * err)


def _two_diff(a, b):
    """a - b as an unevaluated sum d + e of doubles (Knuth's TwoSum)."""
    d = a - b
    bv = d - a
    return d, (a - (d - bv)) - (b + bv)


def _cis_table(rates, times):
    """e^{i rate t} for every rate at each of the P uniformly spaced times,
    shape (R, P), as an outer product of two small tables.

    With F about sqrt(P) and j = q F + f, t_j is split into a coarse time
    c_q = t_{qF}, a fine offset d_f = t_f - t_0 and a residual
    rho_j = t_j - c_q - d_f of the order of one ulp of t_j, so that

        e^{i rate t_j} = e^{i rate c_q} e^{i rate d_f} (1 + i rate rho_j):

    (P/F + F) cos and sin evaluations per rate in place of P.  Both small
    tables come from exact products (``_cis_product``) and rho_j is formed
    without rounding, so the values match ``_cis_product(rates, times)`` to
    a few ulps whatever the phase.
    """
    rates = np.asarray(rates, dtype=float)
    count = times.size
    fine = max(1, int(np.sqrt(count)))
    coarse = times[::fine]
    offsets = times[:fine] - times[0]
    padded = np.full(coarse.size * fine, times[-1])
    padded[:count] = times
    d, e = _two_diff(padded.reshape(-1, fine), coarse[:, None])
    rho = (d - offsets) + e
    small = _cis_product(rates[:, None], np.concatenate([coarse, offsets]))
    out = small[:, :coarse.size, None] * small[:, None, coarse.size:]
    # (1 + i eps) (a + i b) = (a - eps b) + i (b + eps a)
    turn = out * (rates[:, None, None] * rho)
    out.real -= turn.imag
    out.imag += turn.real
    return out.reshape(out.shape[0], -1)[:, :count]


def _drive_rows(drive, t):
    """The drive's distinct nonzero rates, its envelopes a_c g_c on the
    nodes t as (E, N) complex rows, and each component's row plan
    (partner, envelope row, rate row).

    A component (-nu, conj(a), g) whose envelope is the same object as an
    earlier component's (nu, a, g) is that one's mirror: its node products
    are the conjugates of its partner's, bit for bit (a negated rate
    negates r t and its rounding error exactly, cos is even and sin odd),
    so neither its envelope nor its phases are formed.  A rate-0
    component's phase is 1 and is not formed either.
    """
    rates, env, plan, seen = {}, [], [], {}
    for nu, a, g in drive:
        nu = float(nu)
        partner = seen.get((-nu, complex(a).conjugate(), id(g)))
        if partner is not None:
            plan.append((partner, None, None))
            continue
        seen.setdefault((nu, complex(a), id(g)), len(plan))
        rate = None if nu == 0 else rates.setdefault(nu, len(rates))
        plan.append((None, len(env), rate))
        env.append(a * np.broadcast_to(g, t.shape))
    return np.array(list(rates)), np.array(env, dtype=complex), plan


def _node_products(env, plan, factors, phase, first, stop, nk, width=None,
                   out=None):
    """Z[(k, i, c), j] = phase[c, j] env[c, s_j + k] factors[i, s_j + k] for
    the starts s_j = first, first + 2, ... below stop and k < nk, by the
    row plan of ``_drive_rows`` (phase holds one row per distinct nonzero
    rate); columns past the last start, up to ``width``, are zero.  Z is
    written into ``out`` when given, a buffer of its size."""
    count = len(range(first, stop, 2))
    shape = (nk, factors.shape[0], len(plan), width or count)
    if out is None:
        Z = np.zeros(shape, dtype=complex)
    else:
        Z = out.reshape(shape)
        Z[..., count:] = 0.0
    # phase * env goes into factor 0's row, and each factor's row is that
    # times the factor, factor 0's last and in place: no temporary
    for k in range(nk):
        at = slice(first + k, stop + k, 2)
        Zk = Z[k, :, :, :count]
        for c, (partner, e, r) in enumerate(plan):
            if partner is not None:
                continue
            row = Zk[0, c]
            if r is None:
                row[...] = env[e, at]
            else:
                np.multiply(phase[r], env[e, at], out=row)
            for i in range(factors.shape[0] - 1, -1, -1):
                np.multiply(row, factors[i, at], out=Zk[i, c])
        for c, (partner, _, _) in enumerate(plan):
            if partner is not None:
                np.conjugate(Zk[:, partner], out=Zk[:, c])
    return Z.reshape(-1, Z.shape[-1])


def _term_weights(weights, coeffs):
    """W[m, h, (k, i, c)] = weights[k, h, m, c] coeffs[m, i], from rule
    weights of shape (nk, H, M, C): the (M, H, nk n C) matrix that contracts
    the node products of ``_node_products``."""
    W = (np.moveaxis(weights, 2, 0).swapaxes(1, 2)[:, :, :, None, :]
         * coeffs[:, None, None, :, None])
    # the last size spelled out: -1 cannot be inferred when there are no modes
    return W.reshape(W.shape[:2] + (int(np.prod(W.shape[2:])),))


def _rotated_tiles(factors, coeffs, roots, drive, grid):
    """Yield (rows, nodes, S) tiles of S_m(t) = e^{i r_m t} Q_m(t) on the
    ``Grid``, where Q_m(t) = int_{t_0}^t f_m(s) sum_c a_c g_c(s)
    e^{i(nu_c - r_m) s} ds by the product rule, f_m = coeffs[m] @ factors
    and Q_m(t_0) = 0.  Node 0 is in no tile.

    A pair of intervals from node s contributes sum_{k,i,c}
    W[m, (k, i, c)] e^{i nu_c s} a_c g_c(s + kh) h_i(s + kh), with W the rule
    weights at rate nu_c - r_m times coeffs[m, i], so one table Z of the
    products at the pair starts gives the full-pair sums acc_j and half-pair
    sums of a block of modes in one matrix product.  At the pair starts S
    obeys S_{j+1} = lam_m (S_j + acc_j), lam_m = e^{2 i r_m h}, solved in
    blocks of _SCAN_PAIRS pairs: inside a block, one cumsum of acc_j
    lam_m^{-i} and a rotation by lam_m^i (i the place in the block); across
    blocks, the same at the block ends with lam_m^{L b}, L = _SCAN_PAIRS.
    Both tables of powers are small and come from exact products, so no
    phase is larger than a chunk's span.  Z is formed by the row plan of
    ``_drive_rows``: one phase table per distinct nonzero rate, a mirror's
    rows conjugated from its partner's.  The pairs are taken in chunks, S
    carried from one to the next, so that a chunk of Z and a tile of
    _BLOCK_ROWS modes stay within _BLOCK_NODES complex values.
    """
    n, h, t = grid.n, grid.h, grid.nodes
    n_pairs = n // 2
    nus = np.array([float(nu) for nu, _, _ in drive])
    rates, env, plan = _drive_rows(drive, t)
    pair, tail, start = _rule_weights(nus[None, :] - roots[:, None], h, n)
    W = _term_weights(pair, coeffs)
    rows = max(1, min(roots.size, _BLOCK_ROWS))
    size = max(1, _BLOCK_NODES // (W.shape[2] + 2 * rows))    # pairs
    L = _SCAN_PAIRS
    blocks = -(-min(size, n_pairs) // L)
    # e^{i r_m t} from one exact product: t = h (the step), 2hi for i <= L
    # (lam^i) and 2hLb for b < blocks (lam^{L b})
    phases = _cis_product(roots[:, None], np.concatenate([
        [h], (2.0 * h) * np.arange(L + 1), (2.0 * h * L) * np.arange(blocks)]))
    step, power, jump = phases[:, 0], phases[:, 1:L + 2], phases[:, L + 2:]
    inverse = power[:, :L].conj()
    if tail is not None:
        Zt = _node_products(env, plan, factors,
                            _cis_product(rates[:, None], t[start]),
                            start, start + 1, tail.shape[0])[:, 0]
        seg = (_term_weights(tail[:, None], coeffs)[:, 0] @ Zt) \
            * _cis_product(roots, (n - start) * h)
        if not n_pairs:
            yield slice(None), slice(1, 2), seg[:, None]
    S0 = np.zeros(roots.size, dtype=complex)        # S at a chunk's start
    # one workspace per call holds a chunk's Z, a tile's pair sums and the
    # tile's S.  One block, not one per chunk and per tile: the first such
    # block, freed, lifts glibc's heap trim threshold above a call's
    # temporaries, so later calls reuse their pages; as separate smaller
    # blocks they were trimmed off and faulted in again by every call.
    # Every tile's S is overwritten by the next tile: its half-pair and
    # full-pair nodes alternate, two per pair.
    nz, na = W.shape[2] * blocks * L, 2 * rows * blocks * L
    work = np.empty(nz + na + rows * (2 * blocks * L + 1), dtype=complex)
    tile = work[nz + na:].reshape(rows, -1)
    for p0 in range(0, n_pairs, size):
        a, b = 2 * p0, 2 * min(n_pairs, p0 + size)
        pairs = (b - a) // 2
        nb = -(-pairs // L)
        phase = _cis_table(rates, t[a:b:2]) if rates.size else None
        Z = _node_products(env, plan, factors, phase, a, b - 1, 3, nb * L,
                           out=work[:W.shape[2] * nb * L])
        last = tail is not None and b == 2 * n_pairs
        for lo in range(0, roots.size, rows):
            blk = slice(lo, lo + rows)
            Wb = W[blk].reshape(-1, Z.shape[0])
            acc = work[nz:nz + Wb.shape[0] * nb * L].reshape(Wb.shape[0], -1)
            np.matmul(Wb, Z, out=acc)
            acc = acc.reshape(-1, 2, nb, L)
            r = acc.shape[0]
            # S at the half-pair and full-pair ends of each pair
            odd, even = tile[:r, 0:2 * nb * L:2], tile[:r, 1:2 * nb * L:2]
            full = acc[:, 0]
            full *= inverse[blk, None]
            np.cumsum(full, axis=2, out=full)
            # S at the block starts: lam^{L b} (S0 + sum_{b' < b}
            # lam^{-L b'} full[b', L - 1])
            base = np.empty((r, nb), dtype=complex)
            base[:, 0] = S0[blk]
            np.multiply(full[:, :-1, -1], jump[blk, :nb - 1].conj(),
                        out=base[:, 1:])
            np.cumsum(base, axis=1, out=base)
            base *= jump[blk, :nb]
            full += base[:, :, None]
            # S at the end of pair i of a block: lam^{i+1} full[i]
            np.multiply(full, power[blk, None, 1:],
                        out=even.reshape(r, nb, L))
            # a half pair ends one step past its start s, where S has gained
            # the half-pair sum: e^{i r h} (S(s) + half)
            half = acc[:, 1].reshape(r, -1)
            half[:, 0] += S0[blk]
            half[:, 1:] += even[:, :-1]
            np.multiply(half, step[blk, None], out=odd)
            S0[blk] = even[:, pairs - 1]
            S = tile[:r, :b - a + last]
            if last:
                S[:, -1] = step[blk] * S[:, -2] + seg[blk]
            yield blk, slice(a + 1, b + 1 + last), S


def duhamel_batch(factors, lams, grid, drive=((0.0, 1.0, 1.0),), coeffs=None):
    """Zero-data responses of a_m'' + lam_m a_m = F_m on a uniform grid, a
    ``Grid`` or its nodes.

    The forcing is F_m(s) = f_m(s) sum_c a_c g_c(s) e^{i nu_c s}.  The mode
    amplitudes come factored, f_m(s) = sum_i coeffs[m, i] h_i(s): ``factors``
    holds the n time factors h_i on the grid ((n, N), or one (N,) envelope)
    and ``coeffs`` their (M, n) coefficients, by default one column of ones
    (one envelope shared by every mode).  ``drive`` is a short list of
    components (rate nu_c, complex weight a_c, envelope g_c as an (N,) array
    or a scalar); F_m should be real.  Returns the (M, N) array

        a_m(t) = Im(e^{i r_m t} int_{t_0}^t F_m(s) e^{-i r_m s} ds) / r_m,

    r_m = sqrt(lam_m), each component integrated with the product rule at
    phase rate nu_c - r_m.  One table of the 3 n C node products serves every
    mode; each tile of modes costs one matrix product and one cumsum per
    mode.
    """
    grid = Grid.of(grid)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not np.all(lams > 0):
        raise ValueError("mode eigenvalues must be positive")
    factors = np.asarray(factors, dtype=float)
    if factors.ndim == 1:
        factors = factors[None, :]
    if coeffs is None:
        if factors.shape[0] != 1:
            raise ValueError("several time factors need their (M, n) "
                             "coefficients")
        coeffs = np.ones((lams.size, 1))
    coeffs = np.asarray(coeffs, dtype=float)
    if factors.shape[1:] != (grid.n + 1,) or \
            coeffs.shape != (lams.size, factors.shape[0]):
        raise ValueError("factors must be (n, N) and coeffs (M, n)")
    roots = np.sqrt(lams)
    out = np.empty((roots.size, grid.n + 1))
    out[:, 0] = 0.0
    # f_m / r_m as the amplitude, so that S_m is already divided by r_m
    for rows, nodes, S in _rotated_tiles(factors, coeffs / roots[:, None],
                                         roots, drive, grid):
        out[rows, nodes] = S.imag
    return out


def mode_oscillations(roots, cos_w, sin_w, grid, out=None):
    """sum_m cos_w[m] cos(r_m t) + sin_w[m] sin(r_m t) at the nodes of a
    uniform grid (a ``Grid`` or its nodes), for rates r_m = roots[m] and
    (M, K) weights: an (N, K) array, or added into ``out`` when given.

    The grid is walked in blocks of _WAVE_NODES nodes.  A block's phases
    e^{i r_m t} come from ``_cis_table`` (exact products, about
    2 sqrt(_WAVE_NODES) cos and sin evaluations per rate), laid out
    (nodes, M), and their (nodes, 2M) real view of interleaved cos and sin
    meets the interleaved (2M, K) weights in one matrix product.  Memory
    is O(N K + M _WAVE_NODES): no (M, N) table is formed.
    """
    grid = Grid.of(grid)
    roots = np.atleast_1d(np.asarray(roots, dtype=float))
    W = np.stack([cos_w, sin_w], axis=1)      # (M, 2, K)
    if W.ndim != 3 or W.shape[0] != roots.size:
        raise ValueError("weights must be (M, K) for M rates")
    W = W.reshape(2 * roots.size, -1)
    t = grid.nodes
    if out is None:
        out = np.zeros((t.size, W.shape[1]))
    elif out.shape != (t.size, W.shape[1]):
        raise ValueError("out must be (N, K) for (M, K) weights")
    size = min(_WAVE_NODES, t.size)
    # every block reuses one workspace for its phases and its product
    phases = np.empty((size, roots.size), dtype=complex)
    prod = np.empty((size, W.shape[1]))
    for a in range(0, t.size, size):
        b = min(a + size, t.size)
        ph = phases[:b - a]
        ph[...] = _cis_table(roots, t[a:b]).T
        out[a:b] += np.matmul(ph.view(float), W, out=prod[:b - a])
    return out


@dataclass(eq=False)
class SlowResponses:
    """Zero-data mode responses over a span: a Chebyshev ``table`` of the
    (n, M) responses at its nodes, or, on the Filon fallback, the (M, N)
    responses ``values`` on the uniform grid ``axis``."""

    table: chebyshev.Table | None = None
    axis: Grid | None = None
    values: np.ndarray | None = None

    def at(self, t):
        """(M,) responses at the time t, which must be a node of the
        grid on the fallback (``Grid.index``, ValueError otherwise)."""
        if self.table is not None:
            return self.table(np.array([float(t)]))[0]
        return self.values[:, self.axis.index(t)].copy()

    def row(self, weights, t):
        """sum_m weights[m] a_m at the times t, for (M,) weights (shape
        (N,)) or (M, K) weights (shape (N, K)): the table contracted at its
        nodes, chopped and read.  Weights wider than the M responses
        (K > M) read the responses on the points the chopped contraction
        keeps and contract after, so the read is M columns wide, not K.
        On the fallback t are the nodes of the table's own grid."""
        weights = np.asarray(weights, dtype=float)
        if self.table is None:
            return (weights.T @ self.values).T
        tab = self.table
        t = np.asarray(t, dtype=float)
        chopped = chebyshev.Table(tab.a, tab.b, tab.values @ weights).chop()
        if weights.ndim == 1 or weights.shape[1] <= weights.shape[0]:
            return chopped(t)
        stride = (tab.n - 1) // (chopped.n - 1)
        return chebyshev.Table(tab.a, tab.b, tab.values[::stride])(t) \
            @ weights


def slow_responses(factors, r0, lams, grid, coeffs=None):
    """Zero-data responses of a_m'' + lam_m a_m = f_m(t) r0(t) over the
    span [t_0, t_end] of a uniform grid (a ``Grid`` or its nodes), as a
    SlowResponses table.

    The mode amplitudes come factored as in ``duhamel_batch``,
    f_m(t) = sum_i coeffs[m, i] h_i(t): factors(t) gives the n time factors
    at the times t, shape (n, len(t)), and coeffs is (M, n); factors is
    None for f_m = 1 (the responses Lambda_m to r0 alone).  r0 is a
    TimeTrace.  When r0 is ``exact_off_grid`` the integrands
    f_m(s) r0(s) e^{-i r_m s} are sampled on nested Chebyshev-Lobatto nodes
    of [t_0, t_end] with the stop rule of ``chebyshev.converge``,
    integrated by one Clenshaw-Curtis cumulative matrix and rotated back,

        a_m(t_j) = Im(e^{i r_m t_j} int_{t_0}^{t_j} F_m e^{-i r_m s} ds) / r_m

    with F_m = f_m r0 and r_m = sqrt(lam_m).  Any other r0, or
    integrands that need more than chebyshev.N_MAX nodes (r_M (t_end - t_0)
    past about 165), take ``duhamel_batch`` on the uniform grid instead.
    """
    grid = Grid.of(grid)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if r0.exact_off_grid:
        roots = np.sqrt(lams)[:, None]

        def integrands(t):
            # real parts, then imaginary parts: (len(t), 2M), all real
            env = r0.sample(t)
            if factors is not None:
                env = (coeffs @ factors(t)) * env
            z = env * _cis_product(-roots, t)
            return np.concatenate([z.real, z.imag]).T

        a, b = grid.start, grid.stop
        found = chebyshev.converge(integrands, a, b)
        if found is not None:
            nodes = found.nodes
            q = chebyshev.cumulative_matrix(found.n) @ found.values
            q = (0.5 * (b - a)) * (q[:, :lams.size] + 1j * q[:, lams.size:]).T
            return SlowResponses(chebyshev.Table(
                a, b, ((_cis_product(roots, nodes) * q).imag / roots).T))
    r0v = r0.sample(grid)
    if factors is None:
        return SlowResponses(axis=grid,
                             values=duhamel_batch(r0v, lams, grid))
    return SlowResponses(axis=grid, values=duhamel_batch(
        factors(grid.nodes), lams, grid, [(0.0, 1.0, r0v)], coeffs))


def gauss_panel_rule(a, b, n_panels):
    """Composite Gauss-Legendre rule: PANEL_NODES nodes on each of n_panels
    panels."""
    xg, wg = leggauss(PANEL_NODES)
    edges = np.linspace(float(a), float(b), n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights
