import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oscinv.basis import (SeparableAmplitude, build_dirichlet_interval_basis,
                          separable_sum)
from oscinv import chebyshev, quadrature
from oscinv.forward import make_time_grid, solve_direct
from oscinv.quadrature import (duhamel_batch, gauss_panel_rule,
                               mode_oscillations, oscillatory_moments,
                               slow_responses)
from oscinv.sources import split_source
from oscinv.traces import TimeTrace, uniform_grid


def _moment_by_quad(theta, length, p):
    re = quad(lambda s: s ** p * np.cos(theta * s), 0, length, limit=400)[0]
    im = quad(lambda s: s ** p * np.sin(theta * s), 0, length, limit=400)[0]
    return re + 1j * im


@pytest.mark.parametrize("theta", [0.0, 1e-5, 0.3, 7.0, -150.0])
def test_moments_match_adaptive_quadrature(theta):
    X = 0.37
    m = oscillatory_moments(theta, X)
    for p in range(3):
        ref = _moment_by_quad(theta, X, p)
        assert abs(m[p] - ref) < 1e-12 * max(1.0, abs(ref))


def test_moments_series_and_closed_form_agree_at_crossover():
    # |theta*X| near 0.5 is where the two evaluation branches meet
    X = 1.0
    for theta in (0.499, 0.501):
        m = oscillatory_moments(theta, X)
        for p in range(3):
            assert abs(m[p] - _moment_by_quad(theta, X, p)) < 1e-13


def test_moments_at_several_lengths_are_each_lengths_own():
    # rates on both sides of the series switch |theta * length| = 0.5 at
    # both lengths 2h and h, in one pass and one at a time
    h = 0.01
    theta = np.outer([1.0, -1.0], np.geomspace(1e-3, 1e4, 40)).reshape(8, 10)
    both = oscillatory_moments(theta, [2.0 * h, h])
    assert both.shape == (2, 8, 10, 3)
    small = np.abs(theta * h) < 0.5
    assert small.any() and not small.all()
    for j, length in enumerate([2.0 * h, h]):
        assert np.array_equal(both[j], oscillatory_moments(theta, length))
    assert np.array_equal(oscillatory_moments(theta, h, count=2),
                          both[1, ..., :2])


@pytest.mark.parametrize("n", [1, 2, 7])
def test_rule_weights_from_one_moment_pass_are_the_per_length_weights(n):
    h = 0.01
    theta = np.outer([1.0, -1.0], np.geomspace(1e-3, 1e4, 40)).reshape(8, 10)
    pair, tail, start = quadrature._rule_weights(theta, h, n)
    full = quadrature._pair_weights(oscillatory_moments(theta, 2.0 * h), h)
    half = quadrature._pair_weights(oscillatory_moments(theta, h), h)
    assert np.array_equal(pair, np.stack([full, half], axis=1))
    if n == 1:
        m0, m1 = np.moveaxis(oscillatory_moments(theta, h, count=2), -1, 0)
        assert start == 0
        assert np.array_equal(tail, np.stack([m0 - m1 / h, m1 / h]))
    elif n % 2:
        assert start == n - 2 and np.array_equal(tail, full - half)
    else:
        assert tail is None and start is None


def _running_integral(values, grid, theta):
    """Q_i = int_{t_0}^{t_i} g(s) e^{i theta s} ds by duhamel_batch's rule:
    a mode of rate 1 driven at rate theta + 1 with weights 1 and -1j
    responds by Im(e^{i t} Q) and -Re(e^{i t} Q)."""
    grid = np.asarray(grid, dtype=float)
    rate = theta + 1.0
    im = duhamel_batch(values, [1.0], grid, [(rate, 1.0, 1.0)])[0]
    re = -duhamel_batch(values, [1.0], grid, [(rate, -1j, 1.0)])[0]
    return np.exp(-1j * grid) * (re + 1j * im)


def test_cumulative_constant_envelope_closed_form():
    grid = uniform_grid(3.0, 240).nodes
    theta = 41.0
    Q = _running_integral(np.ones_like(grid), grid, theta)
    exact = (np.exp(1j * theta * grid) - 1.0) / (1j * theta)
    assert np.max(np.abs(Q - exact)) < 1e-13


def test_cumulative_quadratic_envelope_is_exact():
    # the rule integrates its own interpolant, so quadratics cost nothing
    grid = uniform_grid(2.0, 100).nodes
    g = 3.0 - 2.0 * grid + 0.5 * grid ** 2
    theta = 333.0
    Q = _running_integral(g, grid, theta)
    i0, i1, i2 = oscillatory_moments(theta, 2.0)
    exact_end = 3.0 * i0 - 2.0 * i1 + 0.5 * i2
    assert abs(Q[-1] - exact_end) < 1e-13


def test_cumulative_reduces_to_simpson_at_zero_phase():
    grid = uniform_grid(1.0, 64).nodes
    g = np.exp(grid)
    h = grid[1] - grid[0]
    Q = _running_integral(g, grid, 0.0)
    # composite Simpson, h/3 (g_2j + 4 g_2j+1 + g_2j+2) per pair, summed
    pairs = h / 3.0 * (g[0:-1:2] + 4.0 * g[1::2] + g[2::2])
    S = np.concatenate(([0.0], np.cumsum(pairs)))
    np.testing.assert_allclose(Q.real[::2], S, rtol=0, atol=1e-14)
    np.testing.assert_allclose(Q.imag, 0.0, atol=1e-15)


def test_cumulative_smooth_envelope_fourth_order():
    theta = 25.0
    errs = []
    for n in (100, 200):
        grid = uniform_grid(1.0, n).nodes
        g = np.exp(-grid) * np.sin(2 * grid)
        Q = _running_integral(g, grid, theta)
        ref = quad(lambda s: np.exp(-s) * np.sin(2 * s) * np.cos(theta * s),
                   0, 1, limit=800)[0] \
            + 1j * quad(lambda s: np.exp(-s) * np.sin(2 * s) * np.sin(theta * s),
                        0, 1, limit=800)[0]
        errs.append(abs(Q[-1] - ref))
    assert np.log2(errs[0] / errs[1]) > 3.5


def test_cumulative_odd_point_tail():
    # even node counts leave a half pair; the tail must stay consistent
    grid = np.linspace(0.0, 1.0, 8)
    theta = 9.0
    Q = _running_integral(np.cos(grid), grid, theta)
    ref = quad(lambda s: np.cos(s) * np.cos(theta * s), 0, 1)[0] \
        + 1j * quad(lambda s: np.cos(s) * np.sin(theta * s), 0, 1)[0]
    assert abs(Q[-1] - ref) < 1e-4
    assert Q[0] == 0.0


def test_cumulative_two_point_grid():
    Q = _running_integral(np.ones(2), np.array([0.0, 0.5]), 3.0)
    exact = (np.exp(1j * 3.0 * 0.5) - 1.0) / (3.0j)
    assert abs(Q[-1] - exact) < 5e-3


@pytest.mark.parametrize("n", [2, 3, 5, 21])
@pytest.mark.parametrize("theta", [0.0, 0.8, -30.0, 400.0])
def test_quadratic_envelopes_exact_at_every_node(n, theta):
    # odd n ends in a half pair; the rule must stay exact there too
    grid = np.linspace(0.0, 1.0, n + 1)
    g = 0.5 - 1.5 * grid + 2.0 * grid ** 2
    Q = _running_integral(g, grid, theta)
    m = np.array([oscillatory_moments(theta, t) for t in grid[1:]])
    exact = m @ np.array([0.5, -1.5, 2.0])
    np.testing.assert_allclose(Q[1:], exact, rtol=0, atol=1e-13)


@pytest.mark.parametrize("theta", [0.0, 0.8, -30.0])
def test_linear_envelope_exact_on_one_interval(theta):
    Q = _running_integral(np.array([2.0, -1.0]), np.array([0.2, 0.2 + 0.7]),
                          theta)
    m0, m1 = oscillatory_moments(theta, 0.7, count=2)
    exact = np.exp(1j * theta * 0.2) * (2.0 * m0 - 3.0 / 0.7 * m1)
    assert abs(Q[1] - exact) < 1e-14


def test_gauss_panels_integrate_mode_products_exactly():
    M = 6
    nodes, weights = gauss_panel_rule(0.0, np.pi, max(4, 2 * M))
    for m in range(1, M + 1):
        for n in range(1, M + 1):
            val = weights @ (np.sin(m * nodes) * np.sin(n * nodes))
            expect = np.pi / 2 if m == n else 0.0
            assert abs(val - expect) < 1e-12


def test_gauss_panels_weight_sum():
    nodes, weights = gauss_panel_rule(0.0, 2.0, 4)
    assert weights.sum() == pytest.approx(2.0, abs=1e-14)
    assert nodes.min() > 0.0 and nodes.max() < 2.0


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(-500.0, 500.0),
       a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(-2, 2))
def test_quadratic_envelopes_exact_for_any_phase(theta, a, b, c):
    grid = uniform_grid(1.0, 20).nodes
    g = a + b * grid + c * grid ** 2
    Q = _running_integral(g, grid, theta)
    i0, i1, i2 = oscillatory_moments(theta, 1.0)
    exact = a * i0 + b * i1 + c * i2
    scale = 1.0 + abs(a) + abs(b) + abs(c)
    assert abs(Q[-1] - exact) < 5e-13 * scale


@pytest.mark.parametrize("count", [1, 2, 7, 100, 7641])
@pytest.mark.parametrize("t0", [0.0, 0.3])
def test_cis_table_matches_exact_products(count, t0):
    # phases up to 64 * 3.3, about 200; 7 and 7641 nodes are not multiples
    # of the fine table's length (2 and 87)
    times = np.linspace(t0, t0 + 3.0, count)
    rates = np.array([0.5, 7.3, 33.0, 64.0, -41.7])
    want = quadrature._cis_product(rates[:, None], times)
    got = quadrature._cis_table(rates, times)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps


# -- mode_oscillations against the closed forms, summed from long double --


def _oscillation_sums(roots, cos_w, sin_w, t):
    """sum_m cos_w[m] cos(r_m t) + sin_w[m] sin(r_m t), shape (N, K), from
    cos and sin of the products r_m t formed and evaluated in long double
    and rounded once."""
    ph = np.asarray(t, dtype=np.longdouble)[:, None] * roots
    return np.cos(ph).astype(float) @ cos_w + np.sin(ph).astype(float) @ sin_w


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("K", [1, 64])
def test_mode_oscillations_match_closed_forms(K):
    # M = 64 rates up to 64.3 on the forward grid at omega = 1000 (15,281
    # nodes, 15 blocks, the last one short): the order-1 form
    # b1 sin(r t) / r and the order-2 form d cos(r t) + b2 sin(r t) / r,
    # each contracted with K columns of weights
    grid = make_time_grid(3.0, omega=1000.0)
    roots = np.sqrt(1.0 + 1.01 * np.arange(64) ** 2)
    rng = np.random.default_rng(5)
    b1, d, b2 = rng.standard_normal((3, roots.size, 1))
    w = rng.standard_normal((roots.size, K))
    zero = np.zeros_like(w)
    for cos_w, sin_w in ((zero, b1 / roots[:, None] * w),
                         (d * w, b2 / roots[:, None] * w)):
        got = mode_oscillations(roots, cos_w, sin_w, grid)
        want = _oscillation_sums(roots, cos_w, sin_w, grid.nodes)
        assert got.shape == (grid.n + 1, K)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_mode_oscillations_add_into_out():
    grid = uniform_grid(2.0, 2500)  # 2,501 nodes: 2 blocks and a short one
    roots = np.array([0.7, 3.0, 11.5])
    cos_w = np.array([[1.0, 0.0], [0.5, -2.0], [0.0, 1.0]])
    sin_w = cos_w[::-1].copy()
    fresh = mode_oscillations(roots, cos_w, sin_w, grid)
    out = np.full((grid.n + 1, 2), 3.0)
    assert mode_oscillations(roots, cos_w, sin_w, grid, out=out) is out
    np.testing.assert_allclose(out - 3.0, fresh, rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        fresh, _oscillation_sums(roots, cos_w, sin_w, grid.nodes),
        rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="out must be"):
        mode_oscillations(roots, cos_w, sin_w, grid, out=out[1:])


# -- duhamel_batch against one single-row call per mode and component --


def _duhamel_loop(fm, lams, grid, drive):
    """Reference: every mode and drive component integrated on its own, by
    one duhamel_batch call of one row and one component each."""
    fm = np.broadcast_to(fm, (len(lams), grid.size))
    out = np.zeros((len(lams), grid.size))
    for m, lam in enumerate(lams):
        for component in drive:
            out[m] += duhamel_batch(fm[m], [lam], grid, [component])[0]
    return out


def _assert_close_to_loop(factors, coeffs, lams, grid, drive, rel=1e-13,
                          ref=None):
    # relative to the a-priori size of a response, |a_m| <= int |F_m| / r_m:
    # a strongly oscillating forcing can cancel to a response far below
    # that, and both sides then keep only their absolute rounding
    got = duhamel_batch(factors, lams, grid, drive, coeffs=coeffs)
    fm = factors if coeffs is None else coeffs @ factors
    if ref is None:
        ref = _duhamel_loop(fm, lams, grid, drive)
    assert got.shape == ref.shape
    h = grid[1] - grid[0]
    drive_abs = sum(abs(a) * np.abs(np.broadcast_to(g, grid.shape))
                    for _, a, g in drive)
    size = np.abs(fm) * drive_abs * h
    scale = np.max(np.sum(np.broadcast_to(size, ref.shape), axis=1)
                   / np.sqrt(lams))
    assert np.max(np.abs(got - ref)) <= rel * scale


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 4, 7, 10, 25, 40]),
       T=st.floats(0.05, 2.0),
       base=st.floats(0.5, 3.5),
       shifts=st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=5),
       offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
       n_terms=st.integers(1, 3),
       shared=st.booleans(), t0=st.sampled_from([0.0, 0.3]),
       seed=st.integers(0, 2 ** 32 - 1))
# the cumulative rule's nodes t_0 + i (grid[1] - grid[0]) once drifted
# 1e-15 from this grid's, a phase error of 8e-13 at rate 800
@example(n=40, T=0.05, base=2.0, shifts=[0.0], offsets=[1.0], n_terms=1,
         shared=False, t0=0.3, seed=2)
def test_duhamel_batch_matches_per_row_loop(n, T, base, shifts, offsets,
                                            n_terms, shared, t0, seed):
    # in units of 1/h, roots sit near `base` and component rates near it too,
    # so |theta * 2h| = 2|offset - shift| falls on both sides of the 0.5
    # switch between series and closed-form moments; a shared envelope is
    # one time factor with the default coefficients
    rng = np.random.default_rng(seed)
    grid = np.linspace(t0, t0 + T, n + 1)
    h = grid[1] - grid[0]
    roots = (base + np.array(shifts)) / h
    drive = [((base + u) / h, complex(*rng.normal(size=2)),
              rng.normal(size=grid.size)) for u in offsets]
    if shared:
        factors, coeffs = rng.normal(size=grid.size), None
    else:
        factors = rng.normal(size=(n_terms, grid.size))
        coeffs = rng.normal(size=(roots.size, n_terms))
    _assert_close_to_loop(factors, coeffs, roots ** 2, grid, drive)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 11, 12, 25])
@pytest.mark.parametrize("shared", [True, False])
def test_duhamel_batch_node_counts(n, shared, monkeypatch):
    grid = np.linspace(0.0, 1.5, n + 1)
    drive = [(0.0, 1.0, 1.0 + grid), (40.0, 0.5, np.cos(grid)),
             (-40.0, 0.5, np.cos(grid)), (80.0, -0.5j, 0.4),
             (-80.0, 0.5j, 0.4)]
    lams = np.arange(1.0, 21.0) ** 2
    rng = np.random.default_rng(n)
    if shared:
        factors, coeffs = rng.normal(size=grid.size), None
    else:
        factors = rng.normal(size=(3, grid.size))
        coeffs = rng.normal(size=(lams.size, 3))
    # tiles of 3 modes (six full blocks and a partial one for 20 modes) by
    # chunks of 1, 2 or 5 pairs (3 n_terms C node products and 2 x 3 tile
    # nodes per pair), scanned in blocks of 2 or 3 pairs or of the whole
    # chunk: one-pair chunks, partial blocks, carries from block to block
    # and from chunk to chunk, and the odd-n tail; the reference is read
    # at the default sizes
    fm = factors if coeffs is None else coeffs @ factors
    ref = _duhamel_loop(fm, lams, grid, drive)
    monkeypatch.setattr(quadrature, "_BLOCK_ROWS", 3)
    per_pair = 15 * np.atleast_2d(factors).shape[0] + 6
    for pairs, scan in [(2, 64), (1, 2), (2, 3), (5, 2), (5, 3)]:
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", pairs * per_pair)
        monkeypatch.setattr(quadrature, "_SCAN_PAIRS", scan)
        _assert_close_to_loop(factors, coeffs, lams, grid, drive, ref=ref)


def test_duhamel_batch_default_drive_is_unit_envelope():
    grid = uniform_grid(3.0, 3000).nodes
    a = duhamel_batch(np.ones_like(grid), [1.0, 4.0], grid)
    np.testing.assert_allclose(a[0], 1.0 - np.cos(grid), atol=1e-10)
    np.testing.assert_allclose(a[1], (1.0 - np.cos(2 * grid)) / 4.0,
                               atol=1e-10)


def test_duhamel_batch_without_modes():
    grid = uniform_grid(1.0, 11).nodes
    assert duhamel_batch(np.ones_like(grid), [], grid).shape == (0, grid.size)


def test_duhamel_batch_rejects_bad_input():
    grid = uniform_grid(1.0, 10).nodes
    with pytest.raises(ValueError):
        duhamel_batch(np.ones_like(grid), [1.0, 0.0], grid)
    with pytest.raises(ValueError):
        duhamel_batch(np.ones((3, grid.size)), [1.0, 4.0], grid)
    with pytest.raises(ValueError):
        duhamel_batch(np.ones(1), [1.0], grid[:1])
    with pytest.raises(ValueError):
        duhamel_batch(np.ones(3), [1.0], np.arange(4.0))


def test_solve_direct_matches_per_mode_sideband_loop():
    # the pre-batching solver: one pass per mode, slow part and sideband
    basis = build_dirichlet_interval_basis(np.pi, 16)
    omega = 200.0
    amp = SeparableAmplitude.from_expr("exp(-t)*(sin(x) + 0.3*sin(3*x))")
    r = "1 + t + (1 + t/2)*cos(tau) + 0.4*sin(2*tau)"
    u = solve_direct(basis, amp, r, omega, T=1.0)
    grid = u.grid
    src = split_source(r, grid)
    fm = separable_sum(amp.term_coefficients(basis), amp.time_factors(grid))
    ref = np.zeros_like(u.coeffs)
    ref += _duhamel_loop(fm, basis.eigenvalues, grid,
                         [(0.0, 1.0, src.r0.values)])
    for k, kind, c in src.r1.terms:
        for sign in (1.0, -1.0):
            a = 0.5 if kind == "cos" else sign / 2j
            ref += _duhamel_loop(fm, basis.eigenvalues, grid,
                                 [(sign * k * omega, a, c.values)])
    assert np.max(np.abs(u.coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))


# -- slow Duhamel table on Chebyshev nodes ------------------------------------


@pytest.mark.parametrize("n", [17, 33, 65, 129, 257])
def test_cumulative_matrix_integrates_its_interpolants(n):
    # T_{n-1} is its own interpolant on n points, and
    # int T_k = T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1))
    x = chebyshev.points(-1.0, 1.0, n)
    k = n - 1

    def cheb(j, v):
        return np.cos(j * np.arccos(np.clip(v, -1.0, 1.0)))

    def anti(v):
        return cheb(k + 1, v) / (2 * (k + 1)) - cheb(k - 1, v) / (2 * (k - 1))

    mat = chebyshev.cumulative_matrix(n)
    np.testing.assert_allclose(mat @ cheb(k, x), anti(x) - anti(-1.0),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(mat @ np.ones(n), x + 1.0, rtol=0, atol=1e-14)
    assert chebyshev.cumulative_matrix(n) is mat
    assert not mat.flags.writeable


@pytest.fixture(scope="module")
def basis32():
    return build_dirichlet_interval_basis(np.pi, 32)


@pytest.mark.parametrize("expr, exact", [
    ("1", lambda r, t: (1.0 - np.cos(r * t)) / r ** 2),
    ("t", lambda r, t: (t - np.sin(r * t) / r) / r ** 2),
], ids=["r0=1", "r0=t"])
def test_slow_responses_match_closed_forms(basis32, expr, exact):
    # Lambda_m(t) for r0 = 1 and r0 = t; top mode r*T = 96
    grid = uniform_grid(3.0, 3000).nodes
    r = np.sqrt(basis32.eigenvalues)
    tab = slow_responses(None, TimeTrace.from_expr(expr, grid),
                         basis32.eigenvalues, grid)
    assert tab.table is not None and tab.table.n <= chebyshev.N_MAX
    for t in (3.0, grid[1234]):
        want = exact(r, t)
        assert np.max(np.abs(tab.at(t) - want)) <= \
            1e-13 * np.max(np.abs(want))
    w = basis32.point_weights(1.2)
    want = exact(r[:, None], grid[None, :]).T @ w
    assert np.max(np.abs(tab.row(w, grid) - want)) <= \
        1e-13 * np.max(np.abs(want))


def test_slow_responses_match_the_filon_rule_for_a_time_varying_amplitude(
        basis32):
    amp = SeparableAmplitude.from_expr("exp(-t/2)*(sin(x) + 0.3*sin(3*x))")
    grid = uniform_grid(3.0, 6000).nodes
    r0 = TimeTrace.from_expr("1 + t", grid)
    lams = basis32.eigenvalues
    coeffs = amp.term_coefficients(basis32).T
    tab = slow_responses(amp.time_factors, r0, lams, grid, coeffs)
    ref = duhamel_batch(amp.time_factors(grid), lams, grid,
                        [(0.0, 1.0, r0.values)], coeffs=coeffs)
    assert tab.table is not None
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(tab.at(grid[4000]) - ref[:, 4000])) <= 1e-13 * scale
    w = basis32.point_weights(1.2)
    assert np.max(np.abs(tab.row(w, grid) - ref.T @ w)) <= 1e-13 * scale


def test_slow_response_rows_read_a_chopped_contraction(basis32):
    # the table resolves mode 32 (r T = 96); a sum of modes 1 and 3 is slow,
    # so its read keeps fewer points, within the tolerance of the full one
    grid = uniform_grid(3.0, 3000).nodes
    tab = slow_responses(None, TimeTrace.from_expr("1 + t", grid),
                         basis32.eigenvalues, grid)
    w = np.zeros(32)
    w[[0, 2]] = 1.0, 0.3
    full = chebyshev.Table(tab.table.a, tab.table.b, tab.table.values @ w)
    assert full.chop().n < full.n
    tol = chebyshev.STOP_TOL * max(1.0, np.max(np.abs(full.values)))
    assert np.max(np.abs(tab.row(w, grid) - full(grid))) <= tol


def test_wide_rows_read_the_responses_on_the_chopped_point_count(
        monkeypatch):
    # (M, K) = (8, 64) weights, as residual_norm's sample points: the rows
    # read the 8 responses on the points the chopped contraction keeps
    basis = build_dirichlet_interval_basis(np.pi, 8)
    grid = uniform_grid(3.0, 1500).nodes
    tab = slow_responses(None, TimeTrace.from_expr("1 + t", grid),
                         basis.eigenvalues, grid)
    weights = basis.eval_modes(basis.interior_sample_points(64))
    contracted = chebyshev.Table(tab.table.a, tab.table.b,
                                 tab.table.values @ weights).chop()
    assert contracted.n < tab.table.n
    want = contracted(grid)
    reads = []
    call = chebyshev.Table.__call__

    def spy(self, t):
        reads.append(self.values.shape)
        return call(self, t)

    monkeypatch.setattr(chebyshev.Table, "__call__", spy)
    got = tab.row(weights, grid)
    assert reads == [(contracted.n, 8)]
    assert got.shape == want.shape == (grid.size, 64)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("M, backed", [(8, "samples"), (64, "expression")])
def test_slow_responses_fall_back_to_the_filon_rule_bitwise(M, backed):
    # a sample-backed r0, or r_M * T = 192, past what 257 nodes resolve
    basis = build_dirichlet_interval_basis(np.pi, M)
    grid = uniform_grid(3.0, 4096).nodes
    r0 = TimeTrace(grid, 1.0 + grid) if backed == "samples" else \
        TimeTrace.from_expr("1 + t", grid)
    tab = slow_responses(None, r0, basis.eigenvalues, grid)
    assert tab.table is None
    want = duhamel_batch(r0.values, basis.eigenvalues, grid)
    assert np.array_equal(tab.at(3.0), want[:, -1])
    w = basis.point_weights(1.2)
    assert np.array_equal(tab.row(w, grid), w @ want)


def test_fallback_responses_read_only_their_own_nodes():
    # the Filon fallback tabulates the grid alone: a time between nodes is
    # an error, not the nearest node's responses
    basis = build_dirichlet_interval_basis(np.pi, 4)
    grid = uniform_grid(3.0, 600).nodes
    tab = slow_responses(None, TimeTrace(grid, 1.0 + grid),
                         basis.eigenvalues, grid)
    assert tab.table is None
    assert np.array_equal(tab.at(grid[10]), tab.values[:, 10])
    h = grid[1] - grid[0]
    for bad in (grid[10] + 0.3 * h, grid[-1] + h, grid[0] - 0.6 * h):
        with pytest.raises(ValueError, match="not a node"):
            tab.at(bad)


@pytest.mark.parametrize("n", [1, 2, 7, 600, 20001])
def test_mirrored_sidebands_are_bitwise_the_unmirrored_call(n):
    # (-nu, conj(a), g) after (nu, a, g) with the same envelope object is a
    # mirror: its rows are the conjugates of its partner's.  With a copy of
    # g it is formed like any other component, with its own phases
    rng = np.random.default_rng(n)
    grid = uniform_grid(3.0, n)
    factors = rng.standard_normal((2, grid.n + 1))
    coeffs = rng.standard_normal((5, 2))
    lams = rng.uniform(0.5, 60.0, 5)
    g1, g2 = rng.standard_normal((2, grid.n + 1))
    mirrored = [(0.0, 1.0, rng.standard_normal(grid.n + 1)),
                (1000.0, 0.5, g1), (-1000.0, 0.5, g1),
                (2000.0, -0.5j, g2), (-2000.0, 0.5j, g2)]
    copied = [(nu, a, g if c % 2 else g.copy())
              for c, (nu, a, g) in enumerate(mirrored)]
    partners = [p for p, _, _ in quadrature._drive_rows(mirrored,
                                                        grid.nodes)[2]]
    assert partners == [None, None, 1, None, 3]
    assert all(p is None
               for p, _, _ in quadrature._drive_rows(copied, grid.nodes)[2])
    got = duhamel_batch(factors, lams, grid, mirrored, coeffs)
    want = duhamel_batch(factors, lams, grid, copied, coeffs)
    assert got.tobytes() == want.tobytes()


def test_rate_zero_rows_are_the_phase_multiplied_rows():
    # a rate-0 component's node products skip the phase, which is 1 + 0i
    rng = np.random.default_rng(5)
    t = np.linspace(0.3, 3.3, 2001)
    env = rng.standard_normal((1, t.size)) \
        + 1j * rng.standard_normal((1, t.size))
    factors = rng.standard_normal((3, t.size))
    phase = quadrature._cis_table(np.array([0.0]), t[0:1998:2])
    plain = quadrature._node_products(env, [(None, 0, None)], factors,
                                      None, 0, 1998, 3)
    turned = quadrature._node_products(env, [(None, 0, 0)], factors,
                                       phase, 0, 1998, 3)
    assert plain.tobytes() == turned.tobytes()
