import math

import numpy as np
import pytest

from oscinv import chebyshev
from oscinv.basis import SeparableAmplitude, build_dirichlet_interval_basis
from oscinv.quadrature import slow_responses
from oscinv.traces import TimeTrace, uniform_grid
from oscinv.volterra import (BLOCK, VolterraKernel, _simpson, build_kernel,
                             solve_chebyshev, solve_second_kind,
                             volterra_residual)

PI = np.pi


def _exp_decay_setup(h):
    # a = 1, K = 1, g = 1  =>  u(t) = exp(-t)
    grid = uniform_grid(1.0, int(round(1.0 / h)))
    return grid, TimeTrace.constant(1.0, grid)


def test_unit_kernel_closed_form():
    grid, ones = _exp_decay_setup(1e-3)
    u = solve_second_kind(ones, lambda t, s: np.ones_like(s), ones)
    assert np.max(np.abs(u.values - np.exp(-grid.nodes))) < 5e-7


def test_marching_is_second_order():
    errs = []
    for h in (1e-2, 5e-3):
        grid, ones = _exp_decay_setup(h)
        u = solve_second_kind(ones, lambda t, s: np.ones_like(s), ones)
        errs.append(np.max(np.abs(u.values - np.exp(-grid.nodes))))
    assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.1)


def test_variable_multiplier_and_kernel():
    # manufactured: u = cos t with a = 2 + t, K(t,s) = t - s
    # g(t) = (2+t) cos t + int_0^t (t-s) cos s ds = (2+t) cos t + 1 - cos t
    grid = uniform_grid(2.0, 4000)
    x = grid.nodes
    a = TimeTrace(grid, 2.0 + x)
    g = TimeTrace(grid, (2 + x) * np.cos(x) + 1.0 - np.cos(x))
    u = solve_second_kind(a, lambda t, s: t - s, g)
    assert np.max(np.abs(u.values - np.cos(x))) < 1e-6


def test_vanishing_multiplier_rejected():
    grid = uniform_grid(1.0, 100)
    a = TimeTrace(grid, grid.nodes)     # a(0) = 0: first-kind degeneracy
    with pytest.raises(ValueError):
        solve_second_kind(a, lambda t, s: np.zeros_like(s),
                          TimeTrace.constant(1.0, grid))


def test_multiplier_and_data_need_one_grid():
    grid = uniform_grid(1.0, 100)
    with pytest.raises(ValueError, match="one grid"):
        solve_second_kind(TimeTrace.constant(1.0, uniform_grid(1.0, 50)),
                          lambda t, s: np.zeros_like(s),
                          TimeTrace.constant(1.0, grid))


# -- spectral trace kernel ---------------------------------------------------


@pytest.fixture(scope="module")
def trace_kernel():
    basis = build_dirichlet_interval_basis(PI, 4)
    grid = uniform_grid(3.0, 3000).nodes
    amp = SeparableAmplitude.from_expr("exp(-t)*(sin(x) + 0.3*sin(3*x))")
    K = build_kernel(basis, amp, PI / 2)
    return K, basis, grid


def test_kernel_vanishes_on_diagonal(trace_kernel):
    K, _, grid = trace_kernel
    for t in (0.5, 1.7, 2.9):
        assert abs(K.evaluate(t, np.array([t]))[0]) < 1e-14


def test_kernel_structure(trace_kernel):
    # single-mode check against the explicit formula
    K, basis, grid = trace_kernel
    s = np.array([0.3])
    t = 1.1
    expect = 0.0
    wts = basis.eval_modes(np.array([PI / 2]))[:, 0]
    c = np.sqrt(PI / 2)
    fm0 = np.array([c, 0.0, 0.3 * c, 0.0]) * np.exp(-s[0])
    for m in range(4):
        lam = basis.eigenvalues[m]
        expect -= np.sqrt(lam) * fm0[m] * wts[m] * np.sin(np.sqrt(lam) * (t - s[0]))
    assert K.evaluate(t, s)[0] == pytest.approx(expect, abs=1e-12)


@pytest.fixture(scope="module")
def two_term_kernel():
    # two time-varying terms, observed where both space factors are nonzero
    basis = build_dirichlet_interval_basis(PI, 6)
    amp = SeparableAmplitude.from_expr(
        "exp(-t)*sin(x) + (1 + t^2/4)*sin(2*x)")
    return build_kernel(basis, amp, 1.1)


def _march_loop(a, K, g, grid):
    """Reference: the separable trapezoid march stepped one node at a time."""
    h = grid[1] - grid[0]
    u = np.empty(grid.size)
    u[0] = g[0] / a[0]
    roots = np.sqrt(K.lams)
    wf = roots * K.mode_weights
    fvals = K.mode_amplitudes(grid)
    cos_s = np.cos(np.outer(roots, grid))
    sin_s = np.sin(np.outer(roots, grid))
    Sc = 0.5 * fvals[:, 0] * cos_s[:, 0] * u[0]
    Ss = 0.5 * fvals[:, 0] * sin_s[:, 0] * u[0]
    for i in range(1, grid.size):
        integ = -h * float(wf @ (sin_s[:, i] * Sc - cos_s[:, i] * Ss))
        u[i] = (g[i] - integ) / a[i]
        Sc += fvals[:, i] * cos_s[:, i] * u[i]
        Ss += fvals[:, i] * sin_s[:, i] * u[i]
    return u


def test_separable_path_matches_generic(trace_kernel):
    K, basis, grid = trace_kernel
    g = TimeTrace.from_expr("1 + t/3", grid)
    a = TimeTrace.constant(0.7, grid)
    fast = solve_second_kind(a, K, g)
    slow = solve_second_kind(a, K.evaluate, g)
    # same order-2 rule, different summation path: near-identical results
    assert np.max(np.abs(fast.values - slow.values)) < 1e-10


# node counts that put the last node before, on and after a block edge
# (node 0 is not in a block)
@pytest.mark.parametrize("n_nodes", [2, 3, BLOCK - 1, BLOCK, BLOCK + 1,
                                     2 * BLOCK + 5, 401])
def test_separable_path_matches_generic_at_block_edges(two_term_kernel,
                                                        n_nodes):
    K = two_term_kernel
    grid = np.linspace(0.0, 3.0, n_nodes)
    g = TimeTrace.from_expr("1 + t/3", grid)
    a = TimeTrace(grid, 2 + np.sin(3 * grid))
    fast = solve_second_kind(a, K, g)
    slow = solve_second_kind(a, K.evaluate, g)
    assert np.max(np.abs(fast.values - slow.values)) < 1e-12


def test_blocked_march_matches_node_loop(two_term_kernel):
    K = two_term_kernel
    grid = uniform_grid(3.0, 3000).nodes
    g = 1 + grid / 3 + np.sin(2 * grid)
    a = 2 + np.sin(3 * grid)
    u = solve_second_kind(TimeTrace(grid, a), K, TimeTrace(grid, g)).values
    ref = _march_loop(a, K, g, grid)
    assert np.max(np.abs(u - ref)) < 1e-13 * np.max(np.abs(ref))


def _mode_equation_data(K, r0):
    """(a, g) of the trace equation read off the mode equations
    a_m'' + lam_m a_m = f_m r0 with zero data: a = sum_m y_m f_m and
    g = phi0'' = sum_m y_m (f_m r0 - lam_m a_m), a_m from a converged
    Chebyshev table."""
    span = uniform_grid(3.0, 64)
    table = slow_responses(K.amplitude.time_factors, r0, K.lams, span,
                           K.coeffs.T)
    assert table.table is not None

    def a(t):
        return K.mode_weights @ K.mode_amplitudes(t)

    def g(t):
        return a(t) * r0.sample(t) - table.row(K.mode_weights * K.lams, t)
    return a, g


@pytest.mark.parametrize("r0", ["1 + t", "1 + t + 0.2*sin(9*t)",
                                "2 + cos(20*t)"])
def test_chebyshev_solver_recovers_exact_data(two_term_kernel, r0):
    K = two_term_kernel
    r0 = TimeTrace.from_expr(r0, uniform_grid(3.0, 64))
    a, g = _mode_equation_data(K, r0)
    u = solve_chebyshev(a, K, g, 0.0, 3.0)
    assert np.max(np.abs(u.values - r0.sample(u.nodes))) <= 1e-10
    # the table carries the accuracy between the nodes
    fine = np.linspace(0.0, 3.0, 1001)
    between = u(fine)
    assert np.max(np.abs(between - r0.sample(fine))) <= 1e-10


def test_the_march_converges_to_the_chebyshev_solution(two_term_kernel):
    # the equation of the block-edge tests: the march's distance from the
    # Nystrom solution is its own O(h^2) error
    K = two_term_kernel
    u = solve_chebyshev(lambda t: 2 + np.sin(3 * t), K,
                        lambda t: 1 + t / 3, 0.0, 3.0)
    dists = []
    for n in (1500, 3000):
        grid = uniform_grid(3.0, n).nodes
        march = solve_second_kind(TimeTrace(grid, 2 + np.sin(3 * grid)), K,
                                  TimeTrace(grid, 1 + grid / 3))
        on_grid = u(grid)
        dists.append(np.max(np.abs(on_grid - march.values)))
    assert dists[1] < 1e-5
    assert math.log2(dists[0] / dists[1]) == pytest.approx(2.0, abs=0.01)


def test_chebyshev_solver_gives_up_past_the_largest_table(two_term_kernel):
    # data of rate 120 over a span of 3 (57 periods) need more than
    # chebyshev.N_MAX nodes
    K = two_term_kernel
    assert solve_chebyshev(lambda t: np.full_like(t, 2.0), K,
                           lambda t: np.cos(120.0 * t), 0.0, 3.0) is None


@pytest.mark.parametrize("n", [3, 4, 5, 6, 31, 64, 401, 1000])
def test_simpson_matches_scipy(n):
    # odd counts are the composite rule, even ones close with scipy's
    # last-interval weights 5h/12, 2h/3, -h/12
    from scipy.integrate import simpson
    rng = np.random.default_rng(n)
    for _ in range(5):
        y = 1.0 + rng.random(n)
        h = float(rng.uniform(1e-3, 1.0))
        want = simpson(y, dx=h)
        assert abs(_simpson(y, h) - want) <= 1e-14 * abs(want)


def test_residual_checks_marched_solution(trace_kernel):
    K, basis, grid = trace_kernel
    coarse = uniform_grid(3.0, 600)
    g = TimeTrace.from_expr("1 + t/3", coarse)
    a = TimeTrace.constant(1.0, coarse)
    u = solve_second_kind(a, K, g)
    res = volterra_residual(a, K.evaluate, g, u)
    assert res < 5e-5
    # a corrupted solution must be flagged
    bad = TimeTrace(coarse, u.values + 1e-2 * np.sin(5 * coarse.nodes))
    assert volterra_residual(a, K.evaluate, g, bad) > 1e-3
