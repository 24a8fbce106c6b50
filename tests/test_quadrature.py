import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oscinv.basis import SeparableAmplitude, build_dirichlet_interval_basis
from oscinv import quadrature
from oscinv.forward import solve_direct
from oscinv.quadrature import (cumulative_oscillatory, cumulative_simpson,
                               duhamel_batch, gauss_panel_rule,
                               oscillatory_moments)
from oscinv.sources import split_source
from oscinv.traces import uniform_grid


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


def test_cumulative_constant_envelope_closed_form():
    grid = uniform_grid(3.0, 240)
    theta = 41.0
    Q = cumulative_oscillatory(np.ones_like(grid), grid[1] - grid[0], theta)
    exact = (np.exp(1j * theta * grid) - 1.0) / (1j * theta)
    assert np.max(np.abs(Q - exact)) < 1e-13


def test_cumulative_quadratic_envelope_is_exact():
    # the rule integrates its own interpolant, so quadratics cost nothing
    grid = uniform_grid(2.0, 100)
    g = 3.0 - 2.0 * grid + 0.5 * grid ** 2
    theta = 333.0
    Q = cumulative_oscillatory(g, grid[1] - grid[0], theta)
    i0, i1, i2 = oscillatory_moments(theta, 2.0)
    exact_end = 3.0 * i0 - 2.0 * i1 + 0.5 * i2
    assert abs(Q[-1] - exact_end) < 1e-13


def test_cumulative_reduces_to_simpson_at_zero_phase():
    grid = uniform_grid(1.0, 64)
    g = np.exp(grid)
    h = grid[1] - grid[0]
    Q = cumulative_oscillatory(g, h, 0.0)
    S = cumulative_simpson(g, h)
    np.testing.assert_allclose(Q.real, S, rtol=0, atol=1e-14)
    np.testing.assert_allclose(Q.imag, 0.0, atol=1e-15)


def test_cumulative_smooth_envelope_fourth_order():
    theta = 25.0
    errs = []
    for n in (100, 200):
        grid = uniform_grid(1.0, n)
        g = np.exp(-grid) * np.sin(2 * grid)
        Q = cumulative_oscillatory(g, grid[1] - grid[0], theta)
        ref = quad(lambda s: np.exp(-s) * np.sin(2 * s) * np.cos(theta * s),
                   0, 1, limit=800)[0] \
            + 1j * quad(lambda s: np.exp(-s) * np.sin(2 * s) * np.sin(theta * s),
                        0, 1, limit=800)[0]
        errs.append(abs(Q[-1] - ref))
    assert np.log2(errs[0] / errs[1]) > 3.5


def test_cumulative_odd_point_tail():
    # even node counts leave a half pair; the tail must stay consistent
    grid = np.linspace(0.0, 1.0, 8)
    h = grid[1] - grid[0]
    theta = 9.0
    Q = cumulative_oscillatory(np.cos(grid), h, theta)
    ref = quad(lambda s: np.cos(s) * np.cos(theta * s), 0, 1)[0] \
        + 1j * quad(lambda s: np.cos(s) * np.sin(theta * s), 0, 1)[0]
    assert abs(Q[-1] - ref) < 1e-4
    assert Q[0] == 0.0


def test_cumulative_two_point_grid():
    Q = cumulative_oscillatory(np.array([1.0, 1.0]), 0.5, 3.0)
    exact = (np.exp(1j * 3.0 * 0.5) - 1.0) / (3.0j)
    assert abs(Q[-1] - exact) < 5e-3


@pytest.mark.parametrize("n", [2, 3, 5, 21])
@pytest.mark.parametrize("theta", [0.0, 0.8, -30.0, 400.0])
def test_quadratic_envelopes_exact_at_every_node(n, theta):
    # odd n ends in a half pair; the rule must stay exact there too
    grid = np.linspace(0.0, 1.0, n + 1)
    g = 0.5 - 1.5 * grid + 2.0 * grid ** 2
    Q = cumulative_oscillatory(g, grid[1] - grid[0], theta)
    m = np.array([oscillatory_moments(theta, t) for t in grid[1:]])
    exact = m @ np.array([0.5, -1.5, 2.0])
    np.testing.assert_allclose(Q[1:], exact, rtol=0, atol=1e-13)


@pytest.mark.parametrize("theta", [0.0, 0.8, -30.0])
def test_linear_envelope_exact_on_one_interval(theta):
    Q = cumulative_oscillatory(np.array([2.0, -1.0]), 0.7, theta, t0=0.2)
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
    grid = uniform_grid(1.0, 20)
    g = a + b * grid + c * grid ** 2
    Q = cumulative_oscillatory(g, grid[1] - grid[0], theta)
    i0, i1, i2 = oscillatory_moments(theta, 1.0)
    exact = a * i0 + b * i1 + c * i2
    scale = 1.0 + abs(a) + abs(b) + abs(c)
    assert abs(Q[-1] - exact) < 5e-13 * scale


# -- duhamel_batch against one cumulative_oscillatory pass per row and part --


def _duhamel_loop(fm, lams, grid, drive):
    """Reference: every mode and drive component integrated on its own."""
    h = grid[1] - grid[0]
    fm = np.broadcast_to(fm, (len(lams), grid.size))
    out = np.empty((len(lams), grid.size))
    for m, lam in enumerate(lams):
        root = np.sqrt(lam)
        Q = 0.0
        for nu, a, g in drive:
            env = fm[m] * np.broadcast_to(g, grid.shape)
            Q = Q + a * cumulative_oscillatory(env, h, nu - root, t0=grid[0])
        out[m] = np.imag(np.exp(1j * root * grid) * Q) / root
    return out


def _assert_close_to_loop(fm, lams, grid, drive, rel=1e-13):
    # relative to the a-priori size of a response, |a_m| <= int |F_m| / r_m:
    # a strongly oscillating forcing can cancel to a response far below
    # that, and both sides then keep only their absolute rounding
    got = duhamel_batch(fm, lams, grid, drive)
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
       offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
       shared=st.booleans(), t0=st.sampled_from([0.0, 0.3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_duhamel_batch_matches_per_row_loop(n, T, base, shifts, offsets,
                                            shared, t0, seed):
    # in units of 1/h, roots sit near `base` and component rates near it too,
    # so |theta * 2h| = 2|offset - shift| falls on both sides of the 0.5
    # switch between series and closed-form moments
    rng = np.random.default_rng(seed)
    grid = np.linspace(t0, t0 + T, n + 1)
    h = grid[1] - grid[0]
    roots = (base + np.array(shifts)) / h
    drive = [((base + u) / h, complex(*rng.normal(size=2)),
              rng.normal(size=grid.size)) for u in offsets]
    fm = rng.normal(size=grid.size if shared else (roots.size, grid.size))
    _assert_close_to_loop(fm, roots ** 2, grid, drive)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 11, 12])
@pytest.mark.parametrize("shared", [True, False])
def test_duhamel_batch_node_counts(n, shared, monkeypatch):
    grid = np.linspace(0.0, 1.5, n + 1)
    # blocks of 3 rows, so 20 modes take six full blocks and a partial one
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", 3 * grid.size)
    lams = np.arange(1.0, 21.0) ** 2
    rng = np.random.default_rng(n)
    fm = rng.normal(size=grid.size if shared else (lams.size, grid.size))
    drive = [(0.0, 1.0, 1.0 + grid), (40.0, 0.5, np.cos(grid)),
             (-40.0, 0.5, np.cos(grid)), (80.0, -0.5j, 0.4),
             (-80.0, 0.5j, 0.4)]
    _assert_close_to_loop(fm, lams, grid, drive)


def test_duhamel_batch_default_drive_is_unit_envelope():
    grid = uniform_grid(3.0, 3000)
    a = duhamel_batch(np.ones_like(grid), [1.0, 4.0], grid)
    np.testing.assert_allclose(a[0], 1.0 - np.cos(grid), atol=1e-10)
    np.testing.assert_allclose(a[1], (1.0 - np.cos(2 * grid)) / 4.0,
                               atol=1e-10)


def test_duhamel_batch_rejects_bad_input():
    grid = uniform_grid(1.0, 10)
    with pytest.raises(ValueError):
        duhamel_batch(np.ones_like(grid), [1.0, 0.0], grid)
    with pytest.raises(ValueError):
        duhamel_batch(np.ones((3, grid.size)), [1.0, 4.0], grid)
    with pytest.raises(ValueError):
        duhamel_batch(np.ones(1), [1.0], grid[:1])
    with pytest.raises(ValueError):
        cumulative_oscillatory(np.ones(1), 0.1, 1.0)


def test_solve_direct_matches_per_mode_sideband_loop():
    # the pre-batching solver: one pass per mode, slow part and sideband
    basis = build_dirichlet_interval_basis(np.pi, 16)
    omega = 200.0
    amp = SeparableAmplitude.from_expr("exp(-t)*(sin(x) + 0.3*sin(3*x))")
    r = "1 + t + (1 + t/2)*cos(tau) + 0.4*sin(2*tau)"
    u = solve_direct(basis, amp, r, omega, T=1.0)
    grid = u.grid
    src = split_source(r, grid)
    fm = np.array([tr.values for tr in amp.mode_traces(basis, grid)])
    ref = np.zeros_like(u.coeffs)
    ref += _duhamel_loop(fm, basis.eigenvalues, grid,
                         [(0.0, 1.0, src.r0.values)])
    for k, kind, c in src.r1.terms:
        for sign in (1.0, -1.0):
            a = 0.5 if kind == "cos" else sign / 2j
            ref += _duhamel_loop(fm, basis.eigenvalues, grid,
                                 [(sign * k * omega, a, c.values)])
    assert np.max(np.abs(u.coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))
