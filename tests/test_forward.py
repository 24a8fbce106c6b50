import warnings

import numpy as np
import pytest

from oscinv import forward
from oscinv.basis import SeparableAmplitude, build_dirichlet_interval_basis
from oscinv.forward import (MIN_POINTS_PER_PERIOD, UnderResolvedError,
                            check_resolution, make_time_grid, solve_direct)
from oscinv.quadrature import duhamel_batch
from oscinv.sources import split_source
from oscinv.traces import TimeTrace, uniform_grid

PI = np.pi


# -- Duhamel oracle ----------------------------------------------------------


def test_duhamel_constant_drive_unit_mode(grid3):
    a = duhamel_batch(np.ones_like(grid3), [1.0], grid3)[0]
    np.testing.assert_allclose(a, 1.0 - np.cos(grid3), atol=1e-10)


def test_duhamel_constant_drive_lambda_four(grid3):
    a = duhamel_batch(np.ones_like(grid3), [4.0], grid3)[0]
    np.testing.assert_allclose(a, (1.0 - np.cos(2 * grid3)) / 4.0,
                               atol=1e-10)


def test_duhamel_resonant_drive(grid3):
    # forcing at the mode frequency grows linearly: (sin t - t cos t)/2
    a = duhamel_batch(np.sin(grid3), [1.0], grid3)[0]
    exact = 0.5 * (np.sin(grid3) - grid3 * np.cos(grid3))
    np.testing.assert_allclose(a, exact, atol=1e-10)


def test_duhamel_accepts_trace_input(grid3):
    tr = TimeTrace.from_expr("1 + t", grid3)
    a = duhamel_batch(tr.values, [1.0], grid3)[0]
    exact = (1 + grid3) - np.cos(grid3) - np.sin(grid3)
    np.testing.assert_allclose(a, exact, atol=1e-9)


def test_duhamel_rejects_nonpositive_eigenvalue(grid3):
    with pytest.raises(ValueError):
        duhamel_batch(np.ones_like(grid3), [0.0], grid3)


# -- grids and resolution ----------------------------------------------------


def test_make_time_grid_resolves_fast_period():
    grid = make_time_grid(3.0, omega=100.0, points_per_period=32).nodes
    h = grid[1] - grid[0]
    assert h <= (2 * PI / 100.0) / 32 * (1 + 1e-12)
    check_resolution(grid, 100.0)


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


# -- slow drive ----------------------------------------------------------------


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
    u = solve_direct(interval_basis, "sin(x)", "1 + t", omega=1.0, grid=grid3)
    pts = np.linspace(0.1, 3.0, 5)
    vals = u.evaluate(pts)
    assert vals.shape == (grid3.size, 5)


def test_field_subsample(interval_basis, grid3):
    u = solve_direct(interval_basis, "sin(x)", "1 + t", omega=1.0, grid=grid3)
    small = u.subsample(11)
    assert small.grid.size == 11
    assert small.grid[0] == 0.0 and small.grid[-1] == 3.0



@pytest.mark.parametrize("n_out, stride", [(300, 4), (513, 2), (2, 764)])
def test_field_subsample_keeps_the_final_time(single_mode_basis, n_out,
                                              stride):
    # the sample forward config's grid: 1528 = 2**3 * 191 intervals; at
    # n_out = 300 a stride of 5 would end at 1525 h = 2.99411
    u = solve_direct(single_mode_basis, "sin(x)", "cos(tau)", 100.0, T=3.0)
    assert u.grid.size == 1529
    small = u.subsample(n_out)
    assert small.meta["subsampled_stride"] == stride
    assert small.grid[-1] == 3.0 and small.grid.size >= n_out
    assert np.array_equal(small.coeffs, u.coeffs[:, ::stride])
    np.testing.assert_allclose(small.grid, u.grid[::stride], rtol=0,
                               atol=1e-15)

def test_mode_tail_diagnostic(interval_basis):
    u = solve_direct(interval_basis, "sin(x) + 0.3*sin(3*x)", "1 + cos(tau)",
                     50.0, T=1.0)
    assert "mode_tail_ratio" in u.meta
    assert u.meta["mode_tail_ratio"] < 1e-12


def test_mode_tail_ratio_reads_the_mode_traces():
    # the kernel takes the amplitude's factors; the diagnostic still reads
    # the (M, N) mode amplitudes, to the last bit
    basis = build_dirichlet_interval_basis(PI, 16)
    amp = SeparableAmplitude.from_expr(
        "exp(-t)*sin(x) + t*sin(2*x) + cos(t)*x*(3.141592653589793 - x)")
    u = solve_direct(basis, amp, "1 + cos(tau)", 200.0, T=1.0)
    fmax = np.abs(amp.mode_traces(basis, u.grid)).max(axis=1)
    assert u.meta["mode_tail_ratio"] == float(fmax[-1] / fmax.max())


# -- only forced modes are integrated ----------------------------------------


@pytest.fixture()
def duhamel_calls(monkeypatch):
    """The arguments of every duhamel_batch call solve_direct makes."""
    calls = []

    def spy(factors, lams, grid, drive, coeffs=None):
        calls.append(dict(factors=factors, lams=lams, grid=grid, drive=drive,
                          coeffs=coeffs))
        return duhamel_batch(factors, lams, grid, drive, coeffs=coeffs)

    monkeypatch.setattr(forward, "duhamel_batch", spy)
    return calls


def _all_rows(call, basis, f):
    """duhamel_batch over every mode, on the arguments of ``call``."""
    terms = SeparableAmplitude.coerce(f).term_coefficients(basis).T
    return duhamel_batch(call["factors"], basis.eigenvalues, call["grid"],
                         call["drive"], coeffs=terms)


def test_unforced_modes_are_exact_zeros_at_the_scale_case(duhamel_calls):
    # the benchmark's scale case: f reaches modes 1 and 3 alone, and the
    # other 62 rows of a full Duhamel pass integrate projection rounding
    basis = build_dirichlet_interval_basis(PI, 64)
    f = "exp(-t)*(sin(x) + 0.3*sin(3*x))"
    u = solve_direct(basis, f, "1 + t + (1 + 0.5*t)*cos(tau) "
                     "+ 0.4*sin(2*tau)", 1000.0, T=3.0)
    assert len(duhamel_calls) == 1
    assert duhamel_calls[0]["lams"].tolist() == [1.0, 9.0]
    full = _all_rows(duhamel_calls[0], basis, f)
    forced = [0, 2]
    unforced = np.delete(np.arange(64), forced)
    assert np.count_nonzero(full[unforced]) > 0
    assert np.count_nonzero(u.coeffs[unforced]) == 0
    scale = np.abs(full).max()
    np.testing.assert_allclose(u.coeffs[forced], full[forced], rtol=0,
                               atol=1e-14 * scale)
    x0 = PI / 2 + 0.1
    np.testing.assert_allclose(u.trace_at(x0).values,
                               full.T @ basis.point_weights(x0), rtol=0,
                               atol=1e-14 * scale)


def test_every_mode_forced_takes_one_unchanged_call(duhamel_calls):
    # (1 + t) x projects onto every sine mode: all rows go in one call, and
    # the field is that call's output, to the last bit
    basis = build_dirichlet_interval_basis(PI, 8)
    f = "(1 + t)*x"
    u = solve_direct(basis, f, "1 + cos(tau)", 50.0, T=1.0)
    assert len(duhamel_calls) == 1
    assert np.array_equal(duhamel_calls[0]["lams"], basis.eigenvalues)
    assert np.array_equal(u.coeffs, _all_rows(duhamel_calls[0], basis, f))


def test_zero_amplitude_gives_a_zero_field(duhamel_calls, interval_basis):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = solve_direct(interval_basis, "0", "1 + cos(tau)", 50.0, T=1.0)
    assert all(call["lams"].size == 0 for call in duhamel_calls)
    assert u.coeffs.shape == (8, u.grid.size)
    assert np.count_nonzero(u.coeffs) == 0
    assert u.meta["mode_tail_ratio"] == 0.0
