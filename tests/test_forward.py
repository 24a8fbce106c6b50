import numpy as np
import pytest

from oscinv.basis import SpatialField, build_dirichlet_interval_basis
from oscinv.forward import (MIN_POINTS_PER_PERIOD, UnderResolvedError,
                            check_resolution, duhamel_coefficient,
                            make_time_grid, solve_direct,
                            solve_with_initial_data)
from oscinv.sources import split_source
from oscinv.traces import TimeTrace, uniform_grid

PI = np.pi


# -- Duhamel oracle ----------------------------------------------------------


def test_duhamel_constant_drive_unit_mode(grid3):
    a = duhamel_coefficient(np.ones_like(grid3), 1.0, grid3)
    np.testing.assert_allclose(a.values, 1.0 - np.cos(grid3), atol=1e-10)


def test_duhamel_constant_drive_lambda_four(grid3):
    a = duhamel_coefficient(np.ones_like(grid3), 4.0, grid3)
    np.testing.assert_allclose(a.values, (1.0 - np.cos(2 * grid3)) / 4.0,
                               atol=1e-10)


def test_duhamel_resonant_drive(grid3):
    # forcing at the mode frequency grows linearly: (sin t - t cos t)/2
    a = duhamel_coefficient(np.sin(grid3), 1.0, grid3)
    exact = 0.5 * (np.sin(grid3) - grid3 * np.cos(grid3))
    np.testing.assert_allclose(a.values, exact, atol=1e-10)


def test_duhamel_accepts_trace_input(grid3):
    tr = TimeTrace.from_expr("1 + t", grid3)
    a = duhamel_coefficient(tr, 1.0, grid3)
    exact = (1 + grid3) - np.cos(grid3) - np.sin(grid3)
    np.testing.assert_allclose(a.values, exact, atol=1e-9)


def test_duhamel_rejects_nonpositive_eigenvalue(grid3):
    with pytest.raises(ValueError):
        duhamel_coefficient(np.ones_like(grid3), 0.0, grid3)


# -- grids and resolution ----------------------------------------------------


def test_make_time_grid_resolves_fast_period():
    grid = make_time_grid(3.0, omega=100.0, points_per_period=32)
    h = grid[1] - grid[0]
    assert h <= (2 * PI / 100.0) / 32 * (1 + 1e-12)
    check_resolution(grid, 100.0)


def test_make_time_grid_slow_default():
    grid = make_time_grid(3.0)
    assert grid.size == 2049
    assert grid[-1] == 3.0


def test_under_resolved_grid_rejected():
    grid = uniform_grid(3.0, 100)
    with pytest.raises(UnderResolvedError):
        check_resolution(grid, 1000.0)
    assert MIN_POINTS_PER_PERIOD == 16


def test_solve_direct_rejects_coarse_explicit_grid(single_mode_basis):
    grid = uniform_grid(3.0, 64)
    with pytest.raises(UnderResolvedError):
        solve_direct(single_mode_basis, "sin(x)", "cos(tau)", 500.0, grid=grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_solve_direct_rejects_bad_omega(single_mode_basis, bad):
    with pytest.raises(ValueError, match="finite"):
        solve_direct(single_mode_basis, "sin(x)", "cos(tau)", bad, T=1.0)


# -- free oscillation and zero data ------------------------------------------


def test_initial_displacement_oscillates(single_mode_basis, grid3):
    u = solve_with_initial_data(single_mode_basis,
                                SpatialField.from_expr("sin(x)"), None, None,
                                grid3)
    tr = u.trace_at(PI / 2)
    np.testing.assert_allclose(tr.values, np.cos(grid3), atol=1e-12)


def test_initial_velocity_oscillates(grid3):
    basis = build_dirichlet_interval_basis(PI, 2)
    u = solve_with_initial_data(basis, None,
                                SpatialField.from_expr("sin(2*x)"), None,
                                grid3)
    tr = u.trace_at(PI / 4)
    np.testing.assert_allclose(tr.values, 0.5 * np.sin(2 * grid3), atol=1e-12)


def test_zero_data_zero_drive_is_zero(interval_basis, grid3):
    u = solve_with_initial_data(interval_basis, None, None, None, grid3)
    assert np.max(np.abs(u.coeffs)) == 0.0


def test_slow_drive_matches_duhamel(single_mode_basis, grid3):
    # omega is immaterial when the drive carries no fast harmonics
    u = solve_direct(single_mode_basis, "sin(x)", "1 + t", omega=1.0,
                     grid=grid3)
    f1 = np.sqrt(PI / 2)
    exact = f1 * ((1 + grid3) - np.cos(grid3) - np.sin(grid3))
    np.testing.assert_allclose(u.coeffs[0], exact, atol=1e-9)


# -- oscillatory drive -------------------------------------------------------


def test_fast_drive_closed_form():
    # single mode, pure fast cosine: u = sin(x) (cos t - cos wt)/(w^2 - 1)
    basis = build_dirichlet_interval_basis(PI, 1)
    w = 40.0
    u = solve_direct(basis, "sin(x)", "cos(tau)", w, T=3.0)
    tr = u.trace_at(PI / 2)
    exact = (np.cos(u.grid) - np.cos(w * u.grid)) / (w * w - 1.0)
    err = np.max(np.abs(tr.values - exact)) / np.max(np.abs(exact))
    assert err < 1e-9


def test_fast_sine_drive_closed_form():
    # a'' + a = sin(wt), zero data: a = (w sin t - sin wt)/(w^2 - 1)
    basis = build_dirichlet_interval_basis(PI, 1)
    w = 50.0
    u = solve_direct(basis, "sin(x)", "sin(tau)", w, T=2.0)
    g = u.grid
    exact = (w * np.sin(g) - np.sin(w * g)) / (w * w - 1.0)
    a1 = u.coeffs[0] / np.sqrt(PI / 2)
    err = np.max(np.abs(a1 - exact)) / np.max(np.abs(exact))
    assert err < 1e-9


def test_mixed_drive_is_sum_of_parts(single_mode_basis):
    w = 60.0
    u_slow = solve_direct(single_mode_basis, "sin(x)", "1 + t", w, T=2.0)
    u_fast = solve_direct(single_mode_basis, "sin(x)", "cos(tau)", w, T=2.0)
    u_both = solve_direct(single_mode_basis, "sin(x)", "1 + t + cos(tau)", w,
                          T=2.0)
    np.testing.assert_allclose(u_both.coeffs,
                               u_slow.coeffs + u_fast.coeffs, atol=1e-12)


def test_solve_direct_accepts_prebuilt_source(single_mode_basis):
    w = 64.0
    grid = make_time_grid(2.0, omega=w)
    src = split_source("1 + cos(tau)", uniform_grid(2.0, 100))
    u = solve_direct(single_mode_basis, "sin(x)", src, w, grid=grid)
    v = solve_direct(single_mode_basis, "sin(x)", "1 + cos(tau)", w, grid=grid)
    np.testing.assert_allclose(u.coeffs, v.coeffs, atol=1e-12)


def test_amplitude_linearity(single_mode_basis):
    w = 48.0
    u1 = solve_direct(single_mode_basis, "sin(x)", "cos(tau)", w, T=1.0)
    u3 = solve_direct(single_mode_basis, "3*sin(x)", "cos(tau)", w, T=1.0)
    np.testing.assert_allclose(u3.coeffs, 3 * u1.coeffs, atol=1e-13)


# -- field container ---------------------------------------------------------


def test_field_evaluate_shapes(interval_basis, grid3):
    u = solve_with_initial_data(interval_basis,
                                SpatialField.from_expr("sin(x)"), None, None,
                                grid3)
    pts = np.linspace(0.1, 3.0, 5)
    vals = u.evaluate(pts)
    assert vals.shape == (grid3.size, 5)
    end = u.field_at_end()
    np.testing.assert_allclose(end.evaluate(pts), vals[-1], atol=1e-12)


def test_field_subsample(interval_basis, grid3):
    u = solve_with_initial_data(interval_basis,
                                SpatialField.from_expr("sin(x)"), None, None,
                                grid3)
    small = u.subsample(11)
    assert small.grid.size == 11
    assert small.grid[0] == 0.0 and small.grid[-1] == 3.0


def test_mode_tail_diagnostic(interval_basis):
    u = solve_direct(interval_basis, "sin(x) + 0.3*sin(3*x)", "1 + cos(tau)",
                     50.0, T=1.0)
    assert "mode_tail_ratio" in u.meta
    assert u.meta["mode_tail_ratio"] < 1e-12
