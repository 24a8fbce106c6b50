import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from oscinv import chebyshev, quadrature
from oscinv.asymptotics import (build_expansion, expansion_coefficients,
                                residual_norm)
from oscinv.basis import (SeparableAmplitude, build_dirichlet_interval_basis,
                          build_sturm_liouville_basis)
from oscinv.config import config_from_dict, make_basis, make_source
from oscinv.forward import make_time_grid, solve_direct
from oscinv.quadrature import duhamel_batch
from oscinv.sources import FastProfile, OscillatorySource, rho0, split_source
from oscinv.traces import TimeTrace, uniform_grid

PI = np.pi
ROOT = pathlib.Path(__file__).resolve().parents[1]
FEXPR = "exp(-t)*(sin(x) + 0.3*sin(3*x))"
REXPR = "1 + t + (1 + t/2)*cos(tau) + 0.4*sin(2*tau)"


# -- slow mode response ------------------------------------------------------


def test_lambda_profile_constant_drive(grid3):
    prof = duhamel_batch(np.ones_like(grid3), [1.0], grid3)[0]
    np.testing.assert_allclose(prof, 1.0 - np.cos(grid3), atol=1e-10)


def test_lambda_profile_linear_drive(grid3):
    prof = duhamel_batch(grid3.copy(), [1.0], grid3)[0]
    np.testing.assert_allclose(prof, grid3 - np.sin(grid3), atol=1e-10)


def test_lambda_profile_affine_drive_endpoint(grid3):
    # r0 = 1 + t at lambda = 1, t = 3: value is 4 - cos 3 - sin 3
    prof = duhamel_batch(1.0 + grid3, [1.0], grid3)[0]
    assert prof[-1] == pytest.approx(4.0 - np.cos(3.0) - np.sin(3.0),
                                     abs=1e-10)


def test_lambda_profile_scales_with_eigenvalue(grid3):
    # constant drive at lambda: (1 - cos(sqrt(lam) t))/lam
    prof = duhamel_batch(np.ones_like(grid3), [9.0], grid3)[0]
    np.testing.assert_allclose(prof, (1 - np.cos(3 * grid3)) / 9.0,
                               atol=1e-10)


# -- free-oscillation coefficients -------------------------------------------


def test_expansion_coefficients_frozen_example(grid3):
    basis = build_dirichlet_interval_basis(PI, 3)
    amp = SeparableAmplitude.from_expr(FEXPR)
    r1 = FastProfile.from_specs([(1, "cos", "1 + t/2"), (2, "sin", 0.4)],
                                grid3)
    co = expansion_coefficients(amp, basis, rho0(r1))
    c = np.sqrt(PI / 2)
    fm0 = np.array([c, 0.0, 0.3 * c])
    # corners: rho0 = -1, rho0_tau = -0.2, rho0_t = -0.5 and fm'(0) = -fm(0)
    np.testing.assert_allclose(co["b1"], 0.2 * fm0, atol=1e-11)
    np.testing.assert_allclose(co["d"], fm0, atol=1e-11)
    np.testing.assert_allclose(co["b2"], 0.5 * fm0, atol=1e-10)


def test_time_invariant_amplitude_kills_b1_correction_growth(grid3):
    basis = build_dirichlet_interval_basis(PI, 2)
    amp = SeparableAmplitude.from_expr("sin(x)")
    r1 = FastProfile.from_specs([(1, "cos", 1.0)], grid3)
    co = expansion_coefficients(amp, basis, rho0(r1))
    # cos corner: rho0_tau(0,0) = 0, rho0_t(0,0) = 0, fm'(0) = 0
    np.testing.assert_allclose(co["b1"], 0.0, atol=1e-12)
    np.testing.assert_allclose(co["b2"], 0.0, atol=1e-12)


# -- assembled expansion -----------------------------------------------------


@pytest.fixture(scope="module")
def expansion():
    basis = build_dirichlet_interval_basis(PI, 3)
    grid = uniform_grid(3.0, 3000).nodes
    return build_expansion(basis, FEXPR, REXPR, grid), basis, grid


def test_leading_term_solves_slow_problem(expansion):
    exp, basis, grid = expansion
    amp = SeparableAmplitude.from_expr(FEXPR)
    fm = amp.mode_traces(basis, grid)
    u0 = exp.u0_table(grid).row(np.eye(basis.M), grid)
    for m in range(basis.M):
        env = fm[m] * (1.0 + grid)
        direct = duhamel_batch(env, [basis.eigenvalues[m]], grid)[0]
        np.testing.assert_allclose(u0[:, m], direct, atol=1e-9)


def test_u0_does_not_depend_on_the_grid_it_is_read_on():
    # configs/order_study.json at omega = 50: residual_norm reads u0 on
    # every fourth node of the forward grid, where a Filon rule on that
    # subgrid is 1.5e-9 off the forward grid's u0 at the shared nodes
    cfg = config_from_dict(json.loads(
        (ROOT / "configs" / "order_study.json").read_text()))
    basis = make_basis(cfg.basis)
    fine = make_time_grid(cfg.grid.T, omega=50.0,
                          points_per_period=cfg.grid.points_per_period)
    amp, src = make_source(cfg.source, fine, basis)
    exp = build_expansion(basis, amp, src, fine)
    pts = basis.interior_sample_points(64)
    coarse = exp.evaluate(50.0, pts, fine.every(4), order=0)
    full = exp.evaluate(50.0, pts, fine, order=0)
    assert np.max(np.abs(coarse - full[::4])) <= 1e-13


def test_u0_table_is_kept_per_span():
    # a Chebyshev table depends on the span alone, so a grid and its
    # subgrid share one; a Filon fallback table (a sample-backed r0 takes
    # it) serves only its own grid and is replaced by another grid's
    basis = build_dirichlet_interval_basis(PI, 3)
    fine = uniform_grid(3.0, 3000)
    exp = build_expansion(basis, FEXPR, REXPR, fine)
    table = exp.u0_table(fine)
    assert table.table is not None
    assert exp.u0_table(fine.every(4)) is table

    src = OscillatorySource(TimeTrace(fine, 1.0 + fine.nodes),
                            split_source(REXPR, fine).r1)
    backed = build_expansion(basis, FEXPR, src, fine)
    filon = backed.u0_table(fine)
    assert filon.table is None
    assert backed.u0_table(fine) is filon
    coarse = backed.u0_table(fine.every(4))
    assert coarse is not filon and coarse.axis == fine.every(4)
    assert backed.u0_table(fine) is not filon


def test_trace_components_geometry(expansion):
    exp, basis, grid = expansion
    x0 = PI / 2
    phi0, phi1, phi2, chi = exp.trace_components(x0, grid)
    modes = basis.eval_modes(np.array([x0]))[:, 0]
    u0 = exp.u0_table(grid).row(np.eye(basis.M), grid)
    np.testing.assert_allclose(phi0.values, u0 @ modes, atol=1e-12)
    # chi carries the corrector's fast profile scaled by f at the point
    fx0 = np.exp(-grid) * (np.sin(x0) + 0.3 * np.sin(3 * x0))
    np.testing.assert_allclose(chi.coefficient(1, "cos").values,
                               -(1 + grid / 2) * fx0, atol=1e-12)


@pytest.fixture(scope="module")
def expansion64():
    # the benchmark's scale case: M = 64 on the forward grid at omega = 1000
    basis = build_dirichlet_interval_basis(PI, 64)
    grid = make_time_grid(3.0, omega=1000.0)
    return build_expansion(basis, FEXPR, REXPR, grid), basis, grid


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
def test_free_oscillations_match_closed_forms(expansion64):
    # phi1 = sum_m y_m(x0) b1_m sin(r_m t) / r_m and
    # phi2 = sum_m y_m(x0) (d_m cos(r_m t) + b2_m sin(r_m t) / r_m), with
    # cos and sin of r_m t taken in long double
    exp, basis, grid = expansion64
    x0 = 1.3
    _, phi1, phi2, _ = exp.trace_components(x0, grid)
    roots = np.sqrt(basis.eigenvalues)
    ph = grid.nodes.astype(np.longdouble)[:, None] * roots
    cos, sin = np.cos(ph).astype(float), np.sin(ph).astype(float)
    w = basis.point_weights(x0)
    for got, want in ((phi1.values, sin @ (exp.b1 / roots * w)),
                      (phi2.values, cos @ (exp.d * w)
                       + sin @ (exp.b2 / roots * w))):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_free_oscillations_allocate_no_mode_time_table(expansion64):
    # an (M, N) table here is 7.8 MB, and the free oscillations once made
    # five of them; the u0 table, kept per span, and every compile are
    # made by a first call, so the second measures the traces alone
    exp, _, grid = expansion64
    for read in (lambda: exp.trace_components(PI / 2, grid),
                 lambda: exp.evaluate(1000.0, [PI / 2], grid)):
        read()
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def test_observed_traces_are_first_and_last_trace_components(expansion):
    exp, basis, grid = expansion
    phi0, _, _, chi = exp.trace_components(1.2, grid)
    obs_phi0, obs_chi = exp.observed_traces(1.2, grid)
    assert np.array_equal(obs_phi0.values, phi0.values)
    assert [(k, kind) for k, kind, _ in obs_chi.terms] \
        == [(k, kind) for k, kind, _ in chi.terms]
    for (_, _, a), (_, _, b) in zip(obs_chi.terms, chi.terms):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("n_src", [3000, 2400])
def test_build_expansion_resamples_a_presplit_source(n_src):
    # a source split on [0, 3] with the same or another node count as the
    # [0, 2] expansion grid must give the expansion of the expression
    basis = build_dirichlet_interval_basis(PI, 3)
    grid = uniform_grid(2.0, 3000).nodes
    src = split_source(REXPR, uniform_grid(3.0, n_src))
    got = build_expansion(basis, FEXPR, src, grid)
    ref = build_expansion(basis, FEXPR, REXPR, grid)
    eye = np.eye(basis.M)
    np.testing.assert_allclose(got.u0_table(grid).row(eye, grid),
                               ref.u0_table(grid).row(eye, grid), rtol=0,
                               atol=1e-12)
    for name in ("b1", "d", "b2"):
        np.testing.assert_allclose(getattr(got, name), getattr(ref, name),
                                   rtol=0, atol=1e-12)


def test_expansion_orders_differ_by_corrections(expansion):
    exp, basis, grid = expansion
    pts = np.array([1.0, 2.0])
    w = 200.0
    full = exp.evaluate(w, pts, grid, order=2)
    lead = exp.evaluate(w, pts, grid, order=0)
    gap = np.max(np.abs(full - lead))
    assert 1e-6 < gap < 1e-2      # corrections enter at 1/omega


def test_residual_shrinks_with_frequency(expansion):
    exp, basis, grid = expansion
    res = []
    for w in (100.0, 200.0):
        u = solve_direct(basis, FEXPR, REXPR, w, T=3.0)
        res.append(residual_norm(u, exp, w, order=2))
    # order o(w^-2) means better than 4x shrink per doubling
    assert res[1] < res[0] / 4.0


def test_order_zero_residual_first_order(expansion):
    exp, basis, grid = expansion
    res = []
    for w in (100.0, 200.0):
        u = solve_direct(basis, FEXPR, REXPR, w, T=3.0)
        res.append(residual_norm(u, exp, w, order=0))
    assert res[1] < res[0] / 1.6


def test_residual_norm_reads_the_sample_modes_once_per_basis(monkeypatch):
    # residual_norm hands the basis's kept sample modes to the expansion;
    # the result is bitwise that of reading the mode table at every use
    basis = build_sturm_liouville_basis("1 + x/2", "x", PI, 4, grid_n=4000)
    exp = build_expansion(basis, FEXPR, REXPR, make_time_grid(3.0, 100.0))
    u = solve_direct(basis, FEXPR, REXPR, 100.0, T=3.0)
    sub = u.every(round(2.0 * PI / (8 * 100.0) / u.axis.h))
    pts = basis.interior_sample_points(64)
    want = [float(np.max(np.abs(
        sub.coeffs.T @ basis.eval_modes(pts)
        - exp.evaluate(100.0, pts, sub.axis, order=o)))) for o in (0, 2)]
    reads = []
    read = chebyshev.Table.__call__

    def spy(self, t):
        if self is basis.sl_modes:
            reads.append(len(t))
        return read(self, t)

    monkeypatch.setattr(chebyshev.Table, "__call__", spy)
    got = [residual_norm(u, exp, 100.0, order=o) for o in (0, 2, 0, 2)]
    assert got == want + want
    assert reads == [64]


def test_residual_grid_reads_u0_once_for_both_orders(monkeypatch):
    # orders 0 and 2 on one field read the u0 table once; every residual
    # is bitwise that of an expansion with nothing kept
    basis = build_sturm_liouville_basis("1 + x/2", "x", PI, 4, grid_n=4000)
    ref = make_time_grid(3.0, 200.0)
    exp = build_expansion(basis, FEXPR, REXPR, ref)
    fields = [(w, solve_direct(basis, FEXPR, REXPR, w, T=3.0))
              for w in (50.0, 100.0, 200.0)]
    want = [residual_norm(u, build_expansion(basis, FEXPR, REXPR, ref), w,
                          order=o) for w, u in fields for o in (0, 2)]
    rows = []
    real = quadrature.SlowResponses.row

    def spy(self, weights, t):
        rows.append(len(t))
        return real(self, weights, t)

    monkeypatch.setattr(quadrature.SlowResponses, "row", spy)
    got = [residual_norm(u, exp, w, order=o) for w, u in fields
           for o in (0, 2)]
    assert got == want
    assert len(rows) == len(fields)
    # only the most recent grid is kept, read-only
    modes = basis.modes_at_samples(64)
    sub = fields[-1][1].every(round(2.0 * PI / (8 * 200.0) / ref.h)).axis
    kept = exp.u0_on(sub, modes)
    assert len(rows) == len(fields) and not kept.flags.writeable
    exp.u0_on(uniform_grid(3.0, 1000), modes)
    exp.u0_on(sub, modes)
    assert len(rows) == len(fields) + 2


def _order_residuals(basis, r, omegas, n_tau):
    """(order-0, order-2) residuals of the order study for the drive r."""
    ref = make_time_grid(3.0, max(omegas))
    exp2 = build_expansion(basis, FEXPR, r, ref, n_tau=n_tau)
    res = []
    for w in omegas:
        u = solve_direct(basis, FEXPR, r, w, T=3.0, n_tau=n_tau)
        res.append([residual_norm(u, exp2, w, order=o) for o in (0, 2)])
    return np.array(res)


def test_callable_order_study_matches_the_expression_drive(monkeypatch):
    # the benchmark's callable order study: the callable's envelopes keep
    # their Chebyshev tables, so slow_responses never falls back to the
    # Filon rule (duhamel_batch) and rho0 is read off the tables
    basis = build_sturm_liouville_basis("1 + x/2", "x", PI, 8, grid_n=8000)
    omegas = (50.0, 100.0, 200.0, 400.0)

    def drive(t, tau):
        return 1.0 + t + (1.0 + 0.5 * t) * math.cos(tau) \
            + 0.4 * math.sin(2.0 * tau)

    def refuse(*args, **kwargs):
        raise AssertionError("slow_responses fell back to duhamel_batch")

    want = _order_residuals(basis, REXPR, omegas, 64)
    monkeypatch.setattr(quadrature, "duhamel_batch", refuse)
    got = _order_residuals(basis, drive, omegas, 64)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-10
