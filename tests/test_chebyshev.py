"""The Chebyshev table: reads, derivatives and the tail chop."""

import warnings

import numpy as np
import pytest

from oscinv import chebyshev


def _f(t):
    return np.exp(np.sin(3.0 * t))


@pytest.fixture(scope="module")
def table():
    return chebyshev.converge(lambda t: _f(t)[:, None], 0.0, 3.0)


def test_read_matches_the_function_between_the_nodes(table):
    t = np.random.default_rng(7).uniform(0.0, 3.0, 1000)
    scale = float(np.max(np.abs(table.values)))
    assert np.max(np.abs(table(t)[:, 0] - _f(t))) <= 1e-14 * scale


def test_read_at_a_node_is_the_node_value(table):
    # node reads, mixed with reads between the nodes
    t = np.concatenate([table.nodes, np.linspace(0.01, 2.99, 7)])
    np.testing.assert_array_equal(table(t)[:table.n], table.values)


def test_node_reads_in_later_row_blocks_are_the_node_values(table):
    # 2**17 reads take several row blocks; the node reads sit in the last,
    # and their divisions by zero warn of nothing
    between = np.linspace(0.0005, 2.9995, 1 << 17)
    t = np.concatenate([between, table.nodes[::-1]])
    with np.errstate(all="raise"):
        out = table(t)[:, 0]
    np.testing.assert_array_equal(out[between.size:], table.values[::-1, 0])
    assert np.all(np.isfinite(out))


def test_read_within_1e_308_of_a_node_is_the_node_value():
    # 1/(t - x_j) overflows for these times, so the barycentric sums are
    # inf / inf; such a time reads the node's value, with no warning
    tab = chebyshev.Table(0.0, 3.0, np.cos(chebyshev.points(0.0, 3.0, 33)))
    mid = chebyshev.Table(-1.0, 1.0, np.cos(chebyshev.points(-1.0, 1.0, 33)))
    with np.errstate(all="raise"):
        assert np.array_equal(tab(np.array([5e-324, 1e-310, 0.0])),
                              tab.values[[0, 0, 0]])
        assert np.array_equal(mid(np.array([-5e-324, 1e-310])),
                              mid.values[[16, 16]])


def _dense_read(tab, t):
    """The second barycentric formula entry by entry: each weight divided by
    its time difference, each row normalised, then one matrix product."""
    w = (-1.0) ** np.arange(tab.n)
    w[[0, -1]] *= 0.5
    mat = w / (t[:, None] - tab.nodes[None, :])
    mat /= mat.sum(axis=1, keepdims=True)
    return mat @ tab.values


@pytest.mark.parametrize("shape, count", [
    ((33,), 5000), ((33, 3), 5000), ((17, 3), 5000), ((33,), 0),
    ((17, 3), 0)], ids=["1d", "3_columns", "17_points", "empty_1d",
                       "empty_3_columns"])
def test_read_matches_the_dense_formula(shape, count):
    # smooth columns cos(x + k), k = 1, 2, ..., whose interpolants stay
    # within their node values
    rng = np.random.default_rng(11)
    x = chebyshev.points(-1.0, 2.0, shape[0])
    k = np.arange(1, (shape[1] if len(shape) > 1 else 1) + 1)
    tab = chebyshev.Table(-1.0, 2.0, np.cos(np.add.outer(x, k))
                          .reshape(shape))
    # times between the nodes, so the dense formula has no zero division
    t = np.sort(rng.uniform(-1.0, 2.0, count))
    assert not np.isin(t, tab.nodes).any()
    got = tab(t)
    assert got.shape == (count,) + shape[1:]
    eps = np.finfo(float).eps
    assert np.max(np.abs(got - _dense_read(tab, t)), initial=0.0) <= \
        4 * eps * np.max(np.abs(tab.values))


@pytest.mark.parametrize("shape", [(33,), (33, 4)], ids=["1d", "4_columns"])
def test_reads_at_nodes_and_both_ends_warn_of_nothing(shape):
    tab = chebyshev.Table(
        0.0, 3.0, np.random.default_rng(13).standard_normal(shape))
    t = np.concatenate([[0.0, 3.0], tab.nodes[5:9], [1.234, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = tab(t)
    np.testing.assert_array_equal(out[[0, 1, -1]],
                                  tab.values[[0, -1, 0]])
    np.testing.assert_array_equal(out[2:6], tab.values[5:9])


def test_read_near_a_start_from_rest_is_accurate_relative_to_the_values():
    # t^2 (1 + t)^3 is of degree 5, so every miss is rounding; near t = 0
    # the values fall to 4e-10, and the read keeps their relative accuracy
    def f(t):
        return t ** 2 * (1.0 + t) ** 3
    tab = chebyshev.Table(0.0, 3.0, f(chebyshev.points(0.0, 3.0, 33)))
    t = np.linspace(0.0, 0.02, 2001)[1:]
    assert np.max(np.abs(tab(t) - f(t)) / f(t)) <= 2e-8


def test_derivative_matches_the_exact_derivative(table):
    t = np.random.default_rng(8).uniform(0.0, 3.0, 1000)
    exact = 3.0 * np.cos(3.0 * t) * _f(t)
    d = table.derivative()
    assert d.n == table.n and (d.a, d.b) == (table.a, table.b)
    assert np.max(np.abs(d(t)[:, 0] - exact)) <= 1e-12 * np.max(np.abs(exact))
    assert table.derivative(0) is table


def test_a_two_column_table_reads_column_by_column():
    nodes = chebyshev.points(-0.5, 2.0, 65)
    cols = np.column_stack([np.cos(2.0 * nodes), 1.0 / (2.0 + nodes)])
    tab = chebyshev.Table(-0.5, 2.0, cols)
    t = np.random.default_rng(9).uniform(-0.5, 2.0, 300)
    both = tab(t)
    assert both.shape == (300, 2)
    for k in range(2):
        alone = chebyshev.Table(-0.5, 2.0, cols[:, k])(t)
        np.testing.assert_allclose(both[:, k], alone, rtol=0, atol=1e-15)


@pytest.mark.parametrize("fn, n_kept", [
    (_f, 65),
    (lambda t: np.column_stack([1.0 + t, np.exp(-t)]), 17),
], ids=["exp_sin", "slow_columns"])
def test_chop_keeps_the_fewest_nested_points_within_the_tolerance(fn, n_kept):
    nodes = chebyshev.points(0.0, 3.0, 129)
    full = chebyshev.Table(0.0, 3.0, fn(nodes))
    chopped = full.chop()
    assert chopped.n == n_kept and (chopped.a, chopped.b) == (0.0, 3.0)
    np.testing.assert_array_equal(chopped.values,
                                  full.values[::128 // (n_kept - 1)])
    t = np.linspace(0.0, 3.0, 1001)
    tol = chebyshev.STOP_TOL * max(1.0, np.max(np.abs(full.values)))
    assert np.max(np.abs(chopped(t) - full(t))) <= tol


def test_chop_keeps_a_table_that_needs_all_its_points():
    nodes = chebyshev.points(0.0, 3.0, 33)
    full = chebyshev.Table(0.0, 3.0, np.cos(12.0 * nodes))
    assert full.chop() is full
