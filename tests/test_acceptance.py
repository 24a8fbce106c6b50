"""Acceptance gate: closed-form, round-trip, and measured-order criteria.

Each test prints one PASS/FAIL line for its criterion with the measured value
and the pinned tolerance, then asserts.  Runtime bounds are asserted where the
criterion carries one.
"""

import time

import numpy as np

from oscinv.asymptotics import build_expansion, residual_norm
from oscinv.basis import (SeparableAmplitude, SpatialField,
                          build_dirichlet_interval_basis)
from oscinv.forward import solve_direct
from oscinv.harness import fit_slope
from oscinv.inverse import (ObservationData, check_admissibility, ip1_recover,
                            ip2_recover, ip3_recover)
from oscinv.quadrature import duhamel_batch
from oscinv.selftest import run_selftest
from oscinv.sources import FastProfile, OscillatorySource, rho0
from oscinv.traces import TimeTrace, uniform_grid
from oscinv.volterra import solve_second_kind

PI = np.pi
OMEGAS = (50.0, 100.0, 200.0, 400.0)
DRIVE = "1 + t + (1 + t/2)*cos(tau) + 0.4*sin(2*tau)"


def _report(name, passed, detail):
    line = f"{name} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert passed, line


def test_ac1_forward_closed_form_oracle():
    start = time.perf_counter()
    basis = build_dirichlet_interval_basis(PI, 3)
    w = 100.0
    u = solve_direct(basis, "sin(x)", "cos(tau)", w, T=3.0,
                     points_per_period=32)
    pts = basis.interior_sample_points(64)
    computed = u.evaluate(pts)
    exact = np.outer((np.cos(u.grid) - np.cos(w * u.grid)) / (w * w - 1.0),
                     np.sin(pts))
    rel = float(np.max(np.abs(computed - exact)) / np.max(np.abs(exact)))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("AC1", rel <= 1e-6,
            f"relative sup error {rel:.3e} (tol 1e-06, {elapsed:.2f}s)")


def test_ac2_second_order_expansion_rate():
    start = time.perf_counter()
    basis = build_dirichlet_interval_basis(PI, 3)
    fexpr = "exp(-t)*(sin(x) + 0.3*sin(3*x))"
    ref = uniform_grid(3.0, 3000)
    expansion = build_expansion(basis, fexpr, DRIVE, ref)
    residuals = []
    for w in OMEGAS:
        u = solve_direct(basis, fexpr, DRIVE, w, T=3.0, points_per_period=32)
        residuals.append(residual_norm(u, expansion, w, order=2))
    slope = fit_slope(OMEGAS, residuals)
    scaled = np.array(OMEGAS) ** 2 * np.array(residuals)
    decreasing = bool(np.all(np.diff(scaled) < 0))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    ok = slope <= -2.5 and decreasing
    _report("AC2", ok,
            f"slope {slope:.3f} (tol <= -2.5), omega^2-scaled residuals "
            f"decreasing={decreasing} ({elapsed:.1f}s)")


def test_ac3_leading_term_rate_for_time_invariant_amplitude():
    basis = build_dirichlet_interval_basis(PI, 3)
    fexpr = "sin(x) + 0.3*sin(3*x)"
    ref = uniform_grid(3.0, 3000)
    expansion = build_expansion(basis, fexpr, DRIVE, ref)
    residuals = []
    for w in OMEGAS:
        u = solve_direct(basis, fexpr, DRIVE, w, T=3.0, points_per_period=32)
        residuals.append(residual_norm(u, expansion, w, order=0))
    slope = fit_slope(OMEGAS, residuals)
    _report("AC3", slope <= -0.9, f"leading-order slope {slope:.3f} "
            "(tol <= -0.9)")


def test_ac4_amplitude_recovery_from_final_snapshot():
    start = time.perf_counter()
    basis = build_dirichlet_interval_basis(PI, 8)
    grid = uniform_grid(3.0, 3000)
    amp = SeparableAmplitude.from_expr("sin(x) + 0.3*sin(3*x)")
    fm_true = amp.mode_derivatives_at_start(basis)
    r0 = TimeTrace.from_expr("1 + t", grid)
    lamv = np.array([duhamel_batch(r0.values, [lam], grid)[0, -1]
                     for lam in basis.eigenvalues])
    psi = SpatialField(coeffs=fm_true * lamv, basis=basis)

    fld = ip2_recover(psi, r0, 3.0, basis)
    err = float(np.max(np.abs(fld.coeffs - fm_true))
                / np.max(np.abs(fm_true)))
    boundary_ok = fld.meta["boundary_report"].passed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok = err <= 1e-10 and boundary_ok
    _report("AC4", ok, f"amplitude coefficient error {err:.3e} (tol 1e-10), "
            f"boundary traces pass={boundary_ok} ({elapsed:.2f}s)")


def test_ac5_drive_recovery_from_point_trace():
    start = time.perf_counter()
    basis = build_dirichlet_interval_basis(PI, 1)
    grid = uniform_grid(3.0, 3000)    # h = 1e-3
    fexpr = "exp(-t)*sin(x)"
    rexpr = "1 + t + (1 + t/2)*cos(tau)"
    expansion = build_expansion(basis, fexpr, rexpr, grid)
    phi0, _, _, chi = expansion.trace_components(PI / 2, grid)
    data = ObservationData(phi0=phi0, chi=chi, x0=PI / 2)

    rec = ip1_recover(data, fexpr, basis)
    r0_err = float(np.max(np.abs(rec.r0.values - (1.0 + grid))))
    r1_err = float(np.max(np.abs(rec.r1.coefficient(1, "cos").values
                                 - (1.0 + grid / 2))))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok = r0_err <= 1e-4 and r1_err <= 1e-10
    _report("AC5", ok, f"r0 sup error {r0_err:.3e} (tol 1e-04), r1 "
            f"coefficient error {r1_err:.3e} (tol 1e-10) ({elapsed:.2f}s)")


def test_ac6_volterra_marching_order():
    hs = (1e-2, 5e-3, 2.5e-3)
    errs = []
    for h in hs:
        grid = uniform_grid(1.0, int(round(1.0 / h)))
        ones = np.ones_like(grid)
        u = solve_second_kind(ones, lambda t, s: np.ones_like(s), ones,
                              grid=grid)
        errs.append(float(np.max(np.abs(u.values - np.exp(-grid)))))
    order = -fit_slope([1.0 / h for h in hs], errs)
    ok = 1.9 <= order <= 2.1
    _report("AC6", ok, f"empirical convergence order {order:.3f} "
            "(interval [1.9, 2.1])")


def test_ac7_combined_recovery_and_resimulation():
    basis = build_dirichlet_interval_basis(PI, 8)
    grid = uniform_grid(3.0, 3000)
    x0, t0 = PI / 2, 3.0
    amp = SeparableAmplitude.from_expr("sin(x) + 0.3*sin(3*x)")
    fm_true = amp.mode_derivatives_at_start(basis)
    r0 = TimeTrace.from_expr("1 + t", grid)
    w = basis.eval_modes(np.array([x0]))[:, 0]

    # shared observation set: final snapshot, point trace, fast-phase data
    lam_traces = np.vstack([duhamel_batch(r0.values, [lam], grid)[0]
                            for lam in basis.eigenvalues])
    psi = SpatialField(coeffs=fm_true * lam_traces[:, -1], basis=basis)
    phi0 = TimeTrace(grid, (fm_true * w) @ lam_traces)
    fx0 = float(fm_true @ w)
    r1_true = FastProfile.from_specs([(1, "cos", "1 + t/2")], grid)
    chi = rho0(r1_true).scaled(TimeTrace.constant(fx0, grid))
    data = ObservationData(phi0=phi0, chi=chi, psi=psi, x0=x0, t0=t0)

    fld, r1_rec = ip3_recover(data, r0, basis)
    fm_err = float(np.max(np.abs(fld.coeffs - fm_true))
                   / np.max(np.abs(fm_true)))
    r1_err = float(np.max(np.abs(r1_rec.coefficient(1, "cos").values
                                 - (1.0 + grid / 2))))

    # forward re-simulation with the recovered pieces
    rec_amp = SeparableAmplitude.from_field(fld)
    rec_src = OscillatorySource(r0, r1_rec)
    pts = basis.interior_sample_points(64)
    psi_pts = psi.evaluate(pts)
    trace_err_400 = scale_400 = None
    psi_errs = {}
    for omega in (100.0, 400.0):
        u = solve_direct(basis, rec_amp, rec_src, omega, T=t0,
                         points_per_period=32)
        fine = u.grid
        # the order-2 composite trace of the recovered expansion
        phi0_f, phi1, phi2, chi_f = build_expansion(
            basis, rec_amp, rec_src, fine).trace_components(x0, fine)
        composite = (phi0_f.values + phi1.values / omega
                     + (phi2.values + chi_f.evaluate(fine, omega * fine))
                     / omega ** 2)
        trace = u.trace_at(x0).values
        psi_errs[omega] = float(np.max(np.abs(u.evaluate(pts)[-1] - psi_pts)))
        if omega == 400.0:
            trace_err_400 = float(np.max(np.abs(trace - composite)))
            scale_400 = float(np.max(np.abs(trace)))

    bound = 10.0 * 400.0 ** -3 * scale_400
    monotone = psi_errs[400.0] <= psi_errs[100.0]
    ok = (fm_err <= 1e-10 and r1_err <= 1e-10
          and trace_err_400 <= bound and monotone)
    _report("AC7", ok,
            f"amplitude error {fm_err:.3e} (tol 1e-10), r1 error "
            f"{r1_err:.3e} (tol 1e-10), trace error at omega=400 "
            f"{trace_err_400:.3e} (bound {bound:.3e}), final-time error "
            f"monotone={monotone}")


def test_ac8_empirical_mode_response_floor():
    basis = build_dirichlet_interval_basis(PI, 200)
    rep = check_admissibility(r0="1 + t", t0=3.0, basis=basis)
    c0 = rep.c0_empirical
    _report("AC8", c0 >= 1.0,
            f"min_m lambda_m |Lambda_m(3)| = {c0:.4f} (tol >= 1.0, "
            f"argmin mode {rep.c0_argmin_mode} of 200)")


def test_ac9_invariant_suite():
    start = time.perf_counter()
    results = run_selftest(out=None)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    failed = [r.name for r in results if not r.passed]
    _report("AC9", not failed,
            f"{len(results) - len(failed)}/{len(results)} invariant checks "
            f"pass ({elapsed:.1f}s)" + (f"; failed: {failed}" if failed else ""))
