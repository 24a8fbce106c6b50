import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oscinv import chebyshev, expressions
from oscinv.expressions import ExpressionError
from oscinv.sources import FastProfile
from oscinv.traces import Grid, TimeTrace, fd_weights, uniform_grid


def test_uniform_grid_even_interval_count():
    g = uniform_grid(3.0, 3000)
    assert g == Grid(0.0, 3.0, 3000)
    assert g.nodes.size == 3001
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 3.0
    # odd requests are rounded up so composite pair rules always apply
    assert uniform_grid(1.0, 5).nodes.size == 7


def test_fd_weights_central_second_derivative():
    w = fd_weights([-1, 0, 1], 2)
    np.testing.assert_allclose(w, [1.0, -2.0, 1.0], atol=1e-12)


def test_fd_weights_central_first_derivative_order4():
    w = fd_weights([-2, -1, 0, 1, 2], 1)
    np.testing.assert_allclose(w, [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12],
                               atol=1e-12)


def test_fd_weights_rejects_short_stencil():
    with pytest.raises(ValueError):
        fd_weights([0, 1], 2)


@pytest.mark.parametrize("order", [1, 2])
def test_fd_derivative_fourth_order_accuracy(order):
    errs = []
    for n in (200, 400):
        g = np.linspace(0.0, 2.0, n + 1)
        d = TimeTrace(g, np.sin(3 * g)).derivative(order).values
        exact = {1: 3 * np.cos(3 * g), 2: -9 * np.sin(3 * g)}[order]
        errs.append(np.max(np.abs(d - exact)))
    rate = np.log2(errs[0] / errs[1])
    assert rate > 3.7


def test_fd_derivative_edges_match_interior_quality():
    # the one-sided stencils must not degrade the boundary rows
    g = np.linspace(0.0, 1.0, 501)
    d = TimeTrace(g, np.exp(g)).derivative(2).values
    err = np.abs(d - np.exp(g))
    assert err[0] < 1e-8 and err[-1] < 1e-8


def test_from_expr_and_call():
    g = uniform_grid(2.0, 200).nodes
    tr = TimeTrace.from_expr("t^2 + 1", g)
    np.testing.assert_allclose(tr.values, g ** 2 + 1, atol=1e-14)
    assert tr(0.5) == pytest.approx(1.25)


def test_expr_trace_resamples_exactly():
    g = uniform_grid(3.0, 60)
    fine = uniform_grid(3.0, 600).nodes
    tr = TimeTrace.from_expr("exp(-t)*sin(2*t)", g)
    out = tr.resample(fine)
    np.testing.assert_allclose(out.values, np.exp(-fine) * np.sin(2 * fine),
                               atol=1e-15)


def test_tabulated_trace_resamples_by_local_stencils():
    g = uniform_grid(3.0, 3000).nodes
    tr = TimeTrace(g, np.sin(g))
    fine = uniform_grid(3.0, 4000).nodes
    np.testing.assert_allclose(tr.resample(fine).values, np.sin(fine),
                               atol=1e-10)


def test_tabulated_off_grid_read_is_the_order_0_stencil():
    # values and derivatives of a sampled trace share one model
    g = uniform_grid(3.0, 300).nodes
    tr = TimeTrace(g, np.exp(-g) * np.sin(5 * g))
    t = np.array([0.0, 0.0031, 0.5, 1.23456, 2.999, 3.0])
    want = tr.derivative_at(t, 0)
    assert np.array_equal(tr.sample(t), want)
    assert np.array_equal(tr(t), want)
    assert tr(1.23456) == want[3]


def test_fd_weights_order_0_on_a_node_is_the_unit_row():
    # the solve alone gave [-2.0e-18, 0, 1, -1.6e-17] for offsets -2..1
    for n in range(2, 9):
        for j in range(n):
            assert np.array_equal(fd_weights(np.arange(n) - j, 0),
                                  np.eye(n)[j])
    rows = fd_weights(np.array([[-2.0, -1.0, 0.0, 1.0],
                                [-1.5, -0.5, 0.5, 1.5]]), 0)
    assert np.array_equal(rows[0], [0.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(rows[1], [-1 / 16, 9 / 16, 9 / 16, -1 / 16],
                               atol=1e-15)


def test_sampled_trace_reads_its_own_nodes_exactly():
    # times that are some of the grid's nodes, so not the whole grid: each
    # read is the stored value, whether or not (t - t_0) / h is an integer
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(6, 41))
        t0 = float(rng.uniform(-2.0, 2.0))
        g = np.linspace(t0, t0 + float(rng.uniform(0.1, 5.0)), n)
        v = rng.uniform(1e-3, 1e3, n) * rng.choice([-1.0, 1.0], n)
        tr = TimeTrace(g, v)
        at = np.sort(rng.choice(n, size=int(rng.integers(1, n)),
                                replace=False))
        assert np.array_equal(tr.sample(g[at]), v[at])


def _random_sampled_traces(count):
    rng = np.random.default_rng(11)
    for _ in range(count):
        n = int(rng.integers(8, 60))
        t0 = float(rng.uniform(-2.0, 2.0))
        g = np.linspace(t0, t0 + float(rng.uniform(0.1, 5.0)), n)
        yield TimeTrace(g, rng.uniform(-1e3, 1e3, n))


def test_whole_grid_derivative_is_the_node_read():
    for tr in _random_sampled_traces(40):
        for k in (1, 2):
            assert np.array_equal(tr.derivative(k).values,
                                  tr.derivative_at(tr.grid, k))


def test_value_at_start_is_the_node_read():
    for tr in _random_sampled_traces(40):
        for k in (0, 1, 2, 3):
            assert tr.value_at_start(k) == tr.derivative_at(tr.grid[:1], k)[0]


def test_interior_node_read_of_order_1_is_centred():
    # the weights a read at node 10 gives each sample: the centred 5-point
    # stencil, nothing outside nodes 8..12
    g = uniform_grid(1.0, 40).nodes
    h = g[1] - g[0]
    weights = np.array([TimeTrace(g, np.eye(g.size)[j]).derivative_at(
        g[[10]], 1)[0] * h for j in range(g.size)])
    want = np.zeros(g.size)
    want[8:13] = [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12]
    np.testing.assert_allclose(weights, want, rtol=0, atol=1e-12)


def test_tabulated_resample_outside_support_raises():
    g = uniform_grid(1.0, 10).nodes
    tr = TimeTrace(g, g.copy())     # no expression: samples only
    with pytest.raises(ValueError):
        tr.resample(uniform_grid(2.0, 10))


def test_tabulated_call_outside_support_raises():
    g = uniform_grid(1.0, 10).nodes
    tr = TimeTrace(g, g.copy())     # no expression: samples only
    assert tr(0.5) == pytest.approx(0.5)
    np.testing.assert_allclose(tr(g), g, rtol=0, atol=0)
    with pytest.raises(ValueError):
        tr(1.5)
    with pytest.raises(ValueError):
        tr(np.array([0.5, -0.5]))


def test_sampled_derivative_at_refuses_times_off_the_span():
    g = uniform_grid(1.0, 10).nodes
    tr = TimeTrace(g, g ** 2)       # no expression: samples only
    for t, order in ((5.0, 0), (-2.0, 0), (5.0, 2)):
        with pytest.raises(ValueError):
            tr.derivative_at(np.array([t]), order)
    # the span's ends still read, and an expression reads anywhere
    np.testing.assert_allclose(tr.derivative_at(g[[0, -1]], 0), [0.0, 1.0],
                               rtol=0, atol=1e-15)
    exact = TimeTrace.from_expr("t**2", g)
    assert exact.derivative_at(np.array([5.0]), 0)[0] == 25.0


def _table_trace(fn, grid):
    table = chebyshev.converge(lambda t: fn(t)[:, None], grid[0], grid[-1])
    return TimeTrace(grid, fn(grid), table=chebyshev.Table(
        table.a, table.b, table.values[:, 0]))


def _slow(t):
    return np.exp(-t) * np.sin(2 * t) + 0.1 * t


def test_table_trace_resamples_anywhere_in_its_span():
    tr = _table_trace(_slow, uniform_grid(3.0, 60).nodes)
    assert tr.exact_off_grid
    for grid2 in (uniform_grid(3.0, 4000).nodes, np.linspace(0.7, 2.1, 33),
                  np.sort(np.random.default_rng(3).uniform(0, 3, 200))):
        np.testing.assert_allclose(tr.sample(grid2), _slow(grid2), rtol=0,
                                   atol=1e-13)
    out = tr.resample(uniform_grid(3.0, 4000))
    assert out.table is tr.table
    assert tr(1.7) == pytest.approx(_slow(1.7), abs=1e-13)
    for bad in (uniform_grid(3.5, 70), np.array([-0.1, 1.0])):
        with pytest.raises(ValueError):
            tr.sample(bad)
    with pytest.raises(ValueError):
        tr(3.1)


def test_table_survives_scalar_arithmetic_only():
    g = uniform_grid(3.0, 60).nodes
    tr = _table_trace(_slow, g)
    t = np.linspace(0.05, 2.95, 17)
    for out, want in ((2.0 * tr - 1.0, 2.0 * _slow(t) - 1.0),
                      (tr / 4.0 + 3.0, _slow(t) / 4.0 + 3.0),
                      (-tr, -_slow(t)), (1.0 - tr, 1.0 - _slow(t))):
        assert out.table is not None
        assert (out.table.a, out.table.b, out.table.n) == \
            (tr.table.a, tr.table.b, tr.table.n)
        np.testing.assert_allclose(out.sample(t), want, rtol=0, atol=1e-13)
    other = TimeTrace.from_expr("1 + t", g)
    for out in (tr * tr, tr * other, tr + other, other * tr):
        assert out.table is None and out.expr is None
        assert not out.exact_off_grid
    assert not TimeTrace(g, g.copy()).exact_off_grid


def test_table_trace_differentiates_off_its_table():
    g = uniform_grid(3.0, 60).nodes
    tr = _table_trace(_slow, g)
    t = np.linspace(0.0, 3.0, 41)
    slope = np.exp(-t) * (2 * np.cos(2 * t) - np.sin(2 * t)) + 0.1
    np.testing.assert_allclose(tr.derivative_at(t, 1), slope, rtol=0,
                               atol=1e-11)
    d = tr.derivative(1)
    assert d.table is not None and d.exact_off_grid
    np.testing.assert_allclose(d.sample(t), slope, rtol=0, atol=1e-11)
    assert tr.value_at_start(1) == pytest.approx(2.1, abs=1e-11)
    assert tr.derivative_noise(2) == 0.0
    with pytest.raises(ValueError):
        tr.derivative_at(np.array([3.5]), 1)


def test_expr_trace_extends_exactly():
    # expression-backed traces evaluate anywhere, no extrapolation noise
    tr = TimeTrace.from_expr("t^2", uniform_grid(1.0, 10))
    out = tr.resample(uniform_grid(2.0, 10))
    np.testing.assert_allclose(out.values, out.grid ** 2, atol=1e-14)


def test_derivative_symbolic_when_expr_backed():
    g = uniform_grid(3.0, 30).nodes
    tr = TimeTrace.from_expr("sin(2*t)", g)
    d2 = tr.derivative(2)
    np.testing.assert_allclose(d2.values, -4 * np.sin(2 * g), atol=1e-13)
    assert d2.expr == -4 * sympy.sin(2 * expressions.T)


@pytest.mark.parametrize("coeff", ["t^0.5", "1/(t + 1) + t^1.5"])
def test_value_at_start_refuses_a_nonfinite_derivative(coeff):
    # an r1 coefficient or a phi0 of t^0.5: no finite derivative at 0
    tr = TimeTrace.from_expr(coeff, uniform_grid(1.0, 10))
    with pytest.raises(ExpressionError, match="no finite"):
        tr.value_at_start(2)
    profile = FastProfile([(1, "cos", tr)], tr.axis)
    with pytest.raises(ExpressionError, match="no finite"):
        profile.corner(2)


def test_derivative_numeric_fallback():
    g = uniform_grid(3.0, 3000).nodes
    tr = TimeTrace(g, np.sin(2 * g))
    d2 = tr.derivative(2)
    assert np.max(np.abs(d2.values + 4 * np.sin(2 * g))) < 1e-7


def test_value_at_start_orders():
    g = uniform_grid(2.0, 2000).nodes
    tr = TimeTrace(g, np.exp(-g))
    assert tr.value_at_start(0) == pytest.approx(1.0, abs=1e-12)
    assert tr.value_at_start(1) == pytest.approx(-1.0, abs=1e-8)


def test_arithmetic_combines_values_and_exprs():
    g = uniform_grid(1.0, 100).nodes
    a = TimeTrace.from_expr("t", g)
    b = TimeTrace.from_expr("1 - t", g)
    s = a + b
    np.testing.assert_allclose(s.values, 1.0, atol=1e-15)
    assert s.expr is not None        # symbolic form survives the sum
    p = a * 2.0 - b
    np.testing.assert_allclose(p.values, 2 * g - (1 - g), atol=1e-14)


def test_arithmetic_rejects_mismatched_grids():
    a = TimeTrace.from_expr("t", uniform_grid(1.0, 100))
    b = TimeTrace.from_expr("t", uniform_grid(1.0, 200))
    with pytest.raises(ValueError):
        a + b


def test_grid_must_be_uniform():
    g = np.array([0.0, 0.1, 0.3, 0.4, 0.5])
    with pytest.raises(ValueError):
        TimeTrace(g, np.zeros_like(g))


@settings(max_examples=30, deadline=None)
@given(c0=st.floats(-5, 5), c1=st.floats(-5, 5), c2=st.floats(-5, 5))
def test_polynomial_derivative_is_exact(c0, c1, c2):
    g = uniform_grid(2.0, 40).nodes
    tr = TimeTrace.from_expr(f"{c0} + {c1}*t + {c2}*t^2", g)
    d = tr.derivative(1)
    np.testing.assert_allclose(d.values, c1 + 2 * c2 * g,
                               atol=1e-9 * (1 + abs(c1) + abs(c2)))


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_trace_linearity(a, b):
    g = uniform_grid(1.0, 50).nodes
    u = TimeTrace.from_expr("sin(t)", g)
    v = TimeTrace.from_expr("exp(-t)", g)
    lhs = u * a + v * b
    np.testing.assert_allclose(lhs.values, a * np.sin(g) + b * np.exp(-g),
                               atol=1e-12 * (1 + abs(a) + abs(b)))


# -- Grid -------------------------------------------------------------------


def test_grids_compare_and_hash_by_value():
    g = uniform_grid(3.0, 3000)
    assert g == Grid(0.0, 3.0, 3000) and g is not Grid(0.0, 3.0, 3000)
    assert hash(g) == hash(Grid(0.0, 3.0, 3000))
    assert len({g, Grid(0.0, 3.0, 3000), Grid.of(g.nodes)}) == 1
    assert g != uniform_grid(3.0, 3002) and g != uniform_grid(2.0, 3000)
    assert g != Grid(0.5, 3.0, 3000)


@pytest.mark.parametrize("start, stop, n", [(0.0, 3.0, 3000), (0.0, 3.0, 1528),
                                            (0.0, 1e-3, 6), (0.0, 7.3, 1),
                                            (-1.25, 2.0, 13)])
def test_grid_nodes_and_step_are_the_linspace(start, stop, n):
    g = Grid(start, stop, n)
    x = np.linspace(start, stop, n + 1)
    assert np.array_equal(g.nodes, x)
    assert g.h == (x[-1] - x[0]) / n
    if start == 0.0:
        assert g.h == x[1] - x[0]
    assert not g.nodes.flags.writeable
    assert g.nodes is g.nodes


def test_grid_index_is_exact_at_nodes_and_refuses_other_times():
    g = uniform_grid(3.0, 600)
    for k in (0, 1, 299, 599, 600):
        assert g.index(g.nodes[k]) == k
    # a multiple of the step read back as a node: 2.0 is 400 h
    assert g.index(2.0) == 400
    for bad in (g.nodes[10] + 0.3 * g.h, 3.0 + g.h, -0.6 * g.h, 2.0004,
                math.nan, math.inf):
        with pytest.raises(ValueError, match="not a node"):
            g.index(bad)


@pytest.mark.parametrize("n, stride, kept", [(1528, 4, 382), (1528, 2, 764),
                                             (12, 3, 4), (10, 1, 10)])
def test_grid_every_keeps_both_ends_when_the_stride_divides(n, stride, kept):
    g = Grid(0.0, 3.0, n)
    sub = g.every(stride)
    assert sub == Grid(0.0, 3.0, kept)
    np.testing.assert_allclose(sub.nodes, g.nodes[::stride], rtol=0,
                               atol=1e-15)


def test_grid_every_keeps_the_slice_and_at_least_two_intervals():
    g = Grid(0.0, 3.0, 10)
    # a stride that does not divide n keeps the nodes the slice keeps
    sub = g.every(4)
    assert sub.n == 2 and sub.stop == g.nodes[8]
    np.testing.assert_allclose(sub.nodes, g.nodes[::4], rtol=0, atol=1e-15)
    # a stride past n // 2 would leave one node, or one interval
    for stride in (6, 10, 11, 10 ** 9):
        assert g.every(stride) == Grid(0.0, 3.0, 2)
    assert Grid(0.0, 1.0, 1).every(5) == Grid(0.0, 1.0, 1)


def test_grid_of_round_trips_uniform_nodes_bit_for_bit():
    for g in (uniform_grid(3.0, 3000), uniform_grid(1e-3, 6),
              uniform_grid(2.5, 4096)):
        assert Grid.of(g) is g
        back = Grid.of(g.nodes.copy())
        assert back == g and np.array_equal(back.nodes, g.nodes)


@pytest.mark.parametrize("bad", [[0.0, 0.1, 0.3, 0.4, 0.5],      # not uniform
                                 [1.0, 0.5, 0.0],                # decreasing
                                 [0.0, 0.0, 0.0],                # constant
                                 [0.5],                          # one node
                                 [],
                                 [[0.0, 1.0], [2.0, 3.0]],       # 2-D
                                 [0.0, math.nan, 2.0],
                                 [0.0, math.inf]])
def test_grid_of_refuses_arrays_that_are_no_uniform_grid(bad):
    with pytest.raises(ValueError):
        Grid.of(np.array(bad))


def test_a_grid_needs_finite_increasing_ends():
    for args in ((0.0, 0.0, 4), (1.0, 0.0, 4), (0.0, math.inf, 4),
                 (math.nan, 1.0, 4), (0.0, 1.0, 0)):
        with pytest.raises(ValueError):
            Grid(*args)
