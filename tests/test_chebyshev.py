"""The Chebyshev table: reads, derivatives and the tail chop."""

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
