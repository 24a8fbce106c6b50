import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oscinv import chebyshev, expressions
from oscinv.expressions import T, TAU
from oscinv.forward import make_time_grid
from oscinv.sources import (N_TAU, FastProfile, _periodic, _phases, _sample,
                            rho0, split_source)
from oscinv.traces import TimeTrace, uniform_grid

TAUS = np.linspace(0.0, 2 * np.pi, 97)


@pytest.fixture()
def standard_r1(grid3):
    return FastProfile.from_specs([(1, "cos", "1 + t/2"), (2, "sin", 0.4)],
                                  grid3)


# -- profile algebra ---------------------------------------------------------


def test_from_specs_merges_duplicate_harmonics(grid3):
    p = FastProfile.from_specs([(1, "cos", 1.0), (1, "cos", "t")], grid3)
    assert len(p.terms) == 1
    np.testing.assert_allclose(p.coefficient(1, "cos").values, 1.0 + grid3,
                               atol=1e-14)


def test_from_specs_rejects_zero_harmonic(grid3):
    with pytest.raises(ValueError):
        FastProfile.from_specs([(0, "cos", 1.0)], grid3)


@pytest.mark.parametrize("k", [1e308, 2e154, 10 ** 400],
                         ids=["1e308", "2e154", "10**400"])
def test_a_harmonic_whose_square_overflows_is_refused(grid3, k):
    # its phase derivatives would scale zero coefficients by inf, to NaN
    zeros = TimeTrace.constant(0.0, grid3)
    with pytest.raises(ValueError, match="square overflows"):
        FastProfile([(k, "cos", zeros)], grid3)
    big = FastProfile([(1e154, "sin", zeros)], grid3)
    assert np.array_equal(big.tau_derivative(2).terms[0][2].values,
                          np.zeros(grid3.size))


def test_evaluate_broadcasts_time_and_phase(standard_r1, grid3):
    tau = np.linspace(0, 2 * np.pi, grid3.size)
    out = standard_r1.evaluate(grid3, tau)
    expect = (1 + grid3 / 2) * np.cos(tau) + 0.4 * np.sin(2 * tau)
    np.testing.assert_allclose(out, expect, atol=1e-13)


def test_zero_mean_over_period(standard_r1):
    vals = standard_r1.evaluate(1.3, TAUS[:-1])
    assert abs(np.mean(vals)) < 1e-13


# -- phase antiderivatives ---------------------------------------------------


def test_rho0_term_rules(standard_r1, grid3):
    p0 = rho0(standard_r1)
    np.testing.assert_allclose(p0.coefficient(1, "cos").values,
                               -(1 + grid3 / 2), atol=1e-14)
    np.testing.assert_allclose(p0.coefficient(2, "sin").values, -0.1,
                               atol=1e-15)


def _corners(r1):
    """rho0, rho0_tau and rho0_t of a fast profile at (t, tau) = (0, 0)."""
    p0 = rho0(r1)
    return p0.corner(), p0.tau_derivative().corner(), p0.corner(1)


def test_corner_values_frozen_example(standard_r1):
    c0, c_tau, c_t = _corners(standard_r1)
    assert c0 == pytest.approx(-1.0, abs=1e-13)
    assert c_tau == pytest.approx(-0.2, abs=1e-13)
    assert c_t == pytest.approx(-0.5, abs=1e-13)


def test_second_phase_derivative_returns_drive(standard_r1):
    # rho0 is defined by d^2 rho0 / dtau^2 = r1 with zero mean
    back = rho0(standard_r1).tau_derivative(2)
    diff = back - standard_r1
    assert diff.max_abs < 1e-13


@settings(max_examples=30, deadline=None)
@given(c1=st.floats(-4, 4), c2=st.floats(-4, 4), c3=st.floats(-4, 4),
       k=st.integers(1, 6))
def test_rho_chain_property(c1, c2, c3, k):
    grid = uniform_grid(1.0, 40)
    r1 = FastProfile.from_specs(
        [(k, "cos", f"{c1} + {c2}*t"), (k + 1, "sin", c3)], grid)
    p0 = rho0(r1)
    assert (p0.tau_derivative(2) - r1).max_abs < 1e-12 * (1 + abs(c1) + abs(c2) + abs(c3))
    mesh = p0.evaluate(0.0, 2 * np.pi * np.arange(64) / 64)
    assert abs(np.mean(mesh)) < 1e-13


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_corner_values_linear_in_drive(a, b):
    grid = uniform_grid(1.0, 20)
    u = FastProfile.from_specs([(1, "cos", "1 + t")], grid)
    v = FastProfile.from_specs([(3, "sin", "2 - t")], grid)
    lhs = _corners(u.scaled(TimeTrace.constant(a, grid))
                   + v.scaled(TimeTrace.constant(b, grid)))
    for got, cu, cv in zip(lhs, _corners(u), _corners(v)):
        assert got == pytest.approx(a * cu + b * cv,
                                    abs=1e-11 * (1 + abs(a) + abs(b)))


# -- splitting ---------------------------------------------------------------


def test_split_expression_exact(grid3):
    src = split_source("1 + t + (1 + t/2)*cos(tau) + 0.4*sin(2*tau)", grid3)
    np.testing.assert_allclose(src.r0.values, 1 + grid3, atol=1e-14)
    np.testing.assert_allclose(src.r1.coefficient(1, "cos").values,
                               1 + grid3 / 2, atol=1e-14)
    np.testing.assert_allclose(src.r1.coefficient(2, "sin").values, 0.4,
                               atol=1e-14)


def test_split_squared_cosine(grid3):
    # cos^2 has a nonzero phase mean and a second harmonic
    src = split_source("cos(tau)^2", grid3)
    np.testing.assert_allclose(src.r0.values, 0.5, atol=1e-13)
    np.testing.assert_allclose(src.r1.coefficient(2, "cos").values, 0.5,
                               atol=1e-13)


def test_split_product_of_phases(grid3):
    src = split_source("sin(tau)*cos(tau)", grid3)
    np.testing.assert_allclose(src.r0.values, 0.0, atol=1e-13)
    np.testing.assert_allclose(src.r1.coefficient(2, "sin").values, 0.5,
                               atol=1e-13)


def test_split_pure_slow(grid3):
    src = split_source("exp(-t)", grid3)
    np.testing.assert_allclose(src.r0.values, np.exp(-grid3), atol=1e-14)
    assert src.r1.terms == []


def test_split_rejects_nonharmonic_phase(grid3):
    with pytest.raises(ValueError):
        split_source("cos(tau/2)", grid3)


def test_split_callable_matches_symbolic(grid3):
    def r(t, tau):
        return 1 + t + (1 + t / 2) * np.cos(tau) + 0.4 * np.sin(2 * tau)

    num = split_source(r, grid3)
    sym = split_source("1 + t + (1 + t/2)*cos(tau) + 0.4*sin(2*tau)", grid3)
    np.testing.assert_allclose(num.r0.values, sym.r0.values, atol=1e-11)
    for k, kind, _ in sym.r1.terms:
        np.testing.assert_allclose(num.r1.coefficient(k, kind).values,
                                   sym.r1.coefficient(k, kind).values,
                                   atol=1e-11)


def test_split_callable_rejects_aperiodic(grid3):
    with pytest.raises(ValueError):
        split_source(lambda t, tau: np.cos(0.5 * tau), grid3)


# products with t-trig factors and angle sums first, then the expressions
# split elsewhere in this file
_SPLIT_EXPRESSIONS = [
    "cos(t)*cos(tau)", "sin(t)*sin(2*tau)", "(1 + t)*cos(tau + t)",
    "cos(2*t)*cos(tau)^2",
    "1 + t + (1 + t/2)*cos(tau) + 0.4*sin(2*tau)", "cos(tau)^2",
    "sin(tau)*cos(tau)", "exp(-t)", "2 + cos(tau)", "1 + t + cos(tau)",
    "0", "0*cos(tau)", "cos(tau) - cos(tau)",
]


@pytest.mark.parametrize("expr", _SPLIT_EXPRESSIONS)
def test_split_expression_matches_fft_of_same_drive(expr):
    grid = uniform_grid(3.0, 60)
    fn = sympy.lambdify((T, TAU), expressions.parse(expr), "numpy")
    sym = split_source(expr, grid)
    num = split_source(lambda t, tau: float(fn(t, tau)), grid, n_tau=32)
    assert [(k, kind) for k, kind, _ in sym.r1.terms] \
        == [(k, kind) for k, kind, _ in num.r1.terms]
    np.testing.assert_allclose(sym.r0.values, num.r0.values, rtol=0,
                               atol=1e-11)
    for (_, _, a), (_, _, b) in zip(sym.r1.terms, num.r1.terms):
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-11)


def test_expression_split_uses_no_symbolic_integration(monkeypatch, grid3):
    def refuse(*args, **kwargs):
        raise AssertionError("symbolic integrate/simplify called")

    monkeypatch.setattr(sympy, "integrate", refuse)
    monkeypatch.setattr(sympy, "simplify", refuse)
    expr = "1 + t + cos(t)*cos(tau)^2 + sin(tau + t)"
    src = split_source(expr, grid3)
    np.testing.assert_allclose(src.r0.values, 1 + grid3 + np.cos(grid3) / 2,
                               atol=1e-14)
    assert [(k, kind) for k, kind, _ in src.r1.terms] == [
        (1, "cos"), (1, "sin"), (2, "cos")]


def test_source_evaluate(grid3):
    src = split_source("1 + t + cos(tau)", grid3)
    out = src.evaluate(grid3, 2.0 * grid3)
    np.testing.assert_allclose(out, 1 + grid3 + np.cos(2 * grid3), atol=1e-12)


# -- callable drives on the slow Chebyshev grid -------------------------------


def _nodal_split(r, grid, n_tau):
    """[((k, kind), envelope)] of the FFT of r sampled at every grid node,
    with (0, "mean") first; the arithmetic repeats split_source's."""
    samples, scale = _periodic(_sample(r, grid, _phases(n_tau)))
    F = np.fft.rfft(samples, axis=1)
    out = [((0, "mean"), F[:, 0].real / n_tau)]
    for k in range(1, n_tau // 2):
        a = 2.0 * F[:, k].real / n_tau
        b = -2.0 * F[:, k].imag / n_tau
        if np.max(np.abs(a)) > 1e-12 * scale:
            out.append(((k, "cos"), a))
        if np.max(np.abs(b)) > 1e-12 * scale:
            out.append(((k, "sin"), b))
    return out


def _envelopes(src):
    return [((0, "mean"), src.r0.values)] + [
        ((k, kind), c.values) for k, kind, c in src.r1.terms]


_SMOOTH_DRIVES = {
    "benchmark": lambda t, tau: 1.0 + t + (1.0 + 0.5 * t) * math.cos(tau)
    + 0.4 * math.sin(2.0 * tau),
    "exp_and_sin": lambda t, tau: math.exp(-t) * math.cos(tau)
    + math.sin(3.0 * t) * math.sin(2.0 * tau),
    "rational": lambda t, tau: math.cos(t) * math.cos(tau)
    + math.sin(t) ** 2 * math.cos(3.0 * tau) + 1.0 / (1.0 + t * t),
}


@pytest.mark.parametrize("name", sorted(_SMOOTH_DRIVES))
def test_callable_split_on_slow_grid_matches_nodal_split(name):
    r = _SMOOTH_DRIVES[name]
    grid = uniform_grid(3.0, 6112).nodes
    slow = _envelopes(split_source(r, grid, n_tau=64))
    nodal = _nodal_split(r, grid, 64)
    assert [key for key, _ in slow] == [key for key, _ in nodal]
    for (_, a), (_, b) in zip(slow, nodal):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


def test_callable_split_interpolates_only_kept_columns(monkeypatch):
    # the transform runs on the node table; the mean and the two kept
    # harmonics are read onto the grid and keep their node columns
    widths = []
    real = chebyshev.Table.__call__

    def spy(table, t):
        if t.size == grid.size:
            widths.append(table.values.shape[1])
        return real(table, t)

    monkeypatch.setattr(chebyshev.Table, "__call__", spy)
    grid = uniform_grid(3.0, 6112).nodes
    src = split_source(_SMOOTH_DRIVES["benchmark"], grid, n_tau=64)
    assert widths == [3]
    assert [(k, kind) for k, kind, _ in src.r1.terms] == [(1, "cos"),
                                                         (2, "sin")]
    envelopes = [lambda t: 1.0 + t, lambda t: 1.0 + 0.5 * t,
                 lambda t: 0.4 + 0.0 * t]
    for tr, env in zip([src.r0] + [c for _, _, c in src.r1.terms],
                       envelopes):
        table = tr.table
        assert table.n <= chebyshev.N_MAX
        assert table.a == grid[0] and table.b == grid[-1]
        np.testing.assert_allclose(table.values, env(table.nodes), rtol=0,
                                   atol=1e-14)
        t = np.linspace(0.01, 2.99, 7)
        np.testing.assert_allclose(tr(t), env(t), rtol=0, atol=1e-14)


def test_callable_split_envelopes_differentiate_off_their_tables():
    # the cos envelope 1 + t/2 of the benchmark drive: its slope comes
    # from the table's derivative, not from stencils of the grid samples
    # (off by 3.2e-12 at 0 and 2.3e-12 at 3 on this grid)
    grid = uniform_grid(3.0, 6112)
    src = split_source(_SMOOTH_DRIVES["benchmark"], grid, n_tau=64)
    env = src.r1.coefficient(1, "cos")
    assert abs(env.value_at_start(1) - 0.5) <= 1e-13
    np.testing.assert_allclose(env.derivative_at(np.linspace(0, 3, 9), 1),
                               0.5, rtol=0, atol=1e-13)


@pytest.mark.parametrize("r, n", [
    (lambda t, tau: abs(t - 1.0) * math.cos(tau), 3000),   # kink in t
    (_SMOOTH_DRIVES["benchmark"], 30),                     # 31 nodes only
])
def test_callable_split_falls_back_to_nodal_bitwise(r, n):
    grid = uniform_grid(3.0, n).nodes
    slow = _envelopes(split_source(r, grid, n_tau=64))
    nodal = _nodal_split(r, grid, 64)
    assert [key for key, _ in slow] == [key for key, _ in nodal]
    for (_, a), (_, b) in zip(slow, nodal):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("r", [lambda t, tau: (1.0 + t) * math.cos(0.5 * tau),
                               lambda t, tau: (1.0 + t) * math.cos(32 * tau)])
def test_callable_split_on_slow_grid_keeps_phase_checks(r):
    # not 2*pi-periodic, and a harmonic at the n_tau = 64 Nyquist limit
    with pytest.raises(ValueError):
        split_source(r, uniform_grid(3.0, 6112), n_tau=64)


@pytest.mark.parametrize("omega", [50.0, 1000.0])
def test_callable_split_calls_do_not_grow_with_omega(omega):
    calls = [0]

    def r(t, tau):
        calls[0] += 1
        return 1.0 + t + (1.0 + 0.5 * t) * math.cos(tau)

    grid = make_time_grid(3.0, omega).nodes
    split_source(r, grid)
    assert grid.size > 33
    assert calls[0] <= 33 * (N_TAU + 1)
