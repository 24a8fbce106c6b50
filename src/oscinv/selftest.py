"""Built-in invariant checks, runnable as `oscinv selftest`.

Each check exercises one structural promise of the library (orthonormality,
exact oracles, convergence orders, round-trip identities) on a small fixture
and reports a measured value against its threshold.  The full list runs in
well under a minute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .basis import (SeparableAmplitude, SpatialField,
                    build_dirichlet_interval_basis, build_rectangle_basis,
                    build_sturm_liouville_basis, check_boundary_traces)
from .forward import solve_direct
from .inverse import ObservationData, ip1_recover, ip2_recover
from .quadrature import cumulative_oscillatory, duhamel_batch
from .sources import FastProfile, rho0, split_source
from .traces import TimeTrace, uniform_grid
from .volterra import build_kernel, solve_second_kind, volterra_residual

__all__ = ["CheckResult", "run_selftest", "ALL_CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    seconds: float

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: measured {self.value:.3e} "
                f"(threshold {self.threshold:.3e}, {self.seconds:.2f}s)")


def _check_gram_interval():
    basis = build_dirichlet_interval_basis(np.pi, 24)
    G = basis.gram_matrix()
    return float(np.max(np.abs(G - np.eye(24)))), 1e-10


def _check_gram_rectangle():
    basis = build_rectangle_basis((np.pi, 1.0), 16)
    G = basis.gram_matrix()
    return float(np.max(np.abs(G - np.eye(16)))), 1e-10


def _check_eigen_ordering():
    basis = build_rectangle_basis((np.pi, 2.0), 20)
    diffs = np.diff(basis.eigenvalues)
    return float(-min(0.0, diffs.min())), 1e-14


def _check_sl_reference():
    # a = 1, c = 0 on (0, pi) reproduces the sine basis off the nodes
    basis = build_sturm_liouville_basis(1.0, 0.0, np.pi, 8)
    pts = (np.arange(64) + 0.37) * (np.pi / 64)
    sines = build_dirichlet_interval_basis(np.pi, 8).eval_modes(pts)
    return float(np.max(np.abs(basis.eval_modes(pts) - sines))), 1e-12


def _check_sl_spectral():
    # the collocation eigenvalues of a = 1, c = 0 on (0, pi) are k^2
    basis = build_sturm_liouville_basis(1.0, 0.0, np.pi, 8)
    k2 = np.arange(1, 9) ** 2.0
    return float(np.max(np.abs(basis.eigenvalues / k2 - 1.0))), 1e-12


def _check_duhamel_oracle():
    # lam = 1, F = 1: a(t) = 1 - cos t;  F = sin s: a(t) = (sin t - t cos t)/2
    grid = uniform_grid(3.0, 3000)
    t = grid.nodes
    a1 = duhamel_batch(np.ones_like(t), [1.0], grid)[0]
    e1 = np.max(np.abs(a1 - (1.0 - np.cos(t))))
    s = TimeTrace.from_expr("sin(t)", grid)
    a2 = duhamel_batch(s.values, [1.0], grid)[0]
    e2 = np.max(np.abs(a2 - 0.5 * (np.sin(t) - t * np.cos(t))))
    return float(max(e1, e2)), 1e-10


def _check_oscillatory_vs_slow():
    # the product rule must match brute force on a resolved oscillation
    grid = uniform_grid(2.0, 4000)
    t = grid.nodes
    g = np.exp(-t)
    theta = 40.0
    Q = cumulative_oscillatory(g, grid, theta)
    exact = (np.exp((1j * theta - 1) * t) - 1.0) / (1j * theta - 1.0)
    return float(np.max(np.abs(Q - exact))), 1e-9


def _check_mode_ode_residual():
    basis = build_dirichlet_interval_basis(np.pi, 4)
    grid = uniform_grid(2.0, 1600)
    amp = SeparableAmplitude.from_expr("exp(-t)*sin(x)")
    src = split_source("1 + t + cos(tau)", grid)
    u = solve_direct(basis, amp, src, 60.0, grid=grid)
    t = grid.nodes
    fm = amp.mode_traces(basis, t)
    worst = 0.0
    for m in range(basis.M):
        force = fm[m] * src.evaluate(t, 60.0 * t)
        acc = TimeTrace(grid, u.coeffs[m]).derivative(2).values
        res = acc + basis.eigenvalues[m] * u.coeffs[m] - force
        worst = max(worst, float(np.max(np.abs(res[2:-2]))))
    return worst, 5e-3


def _check_forward_linearity():
    basis = build_dirichlet_interval_basis(np.pi, 4)
    grid = uniform_grid(1.5, 1200)
    amp = SeparableAmplitude.from_expr("sin(x) + 0.5*sin(2*x)")
    sa = split_source("1 + cos(tau)", grid)
    sb = split_source("t + 0.5*sin(2*tau)", grid)
    sab = split_source("1 + t + cos(tau) + 0.5*sin(2*tau)", grid)
    w = 50.0
    ua = solve_direct(basis, amp, sa, w, grid=grid)
    ub = solve_direct(basis, amp, sb, w, grid=grid)
    uab = solve_direct(basis, amp, sab, w, grid=grid)
    return float(np.max(np.abs(ua.coeffs + ub.coeffs - uab.coeffs))), 1e-10


def _check_zero_data():
    # zero initial data and a zero drive give exactly zero
    basis = build_dirichlet_interval_basis(np.pi, 3)
    grid = uniform_grid(1.0, 400)
    u = solve_direct(basis, "sin(x)", "0", 50.0, grid=grid)
    return float(np.max(np.abs(u.coeffs))), 0.0 + 1e-300


def _check_rho_chain():
    grid = uniform_grid(2.0, 200)
    r1 = FastProfile.from_specs(
        [(1, "cos", "1 + t/2"), (2, "sin", 0.4), (3, "cos", "exp(-t)")], grid)
    p0 = rho0(r1)
    back = p0.tau_derivative(2)
    taus = np.linspace(0.0, 2 * np.pi, 17)[:-1]
    worst = 0.0
    for tv in np.linspace(0.0, 2.0, 9):
        worst = max(worst, np.max(np.abs(
            back.evaluate(tv, taus) - r1.evaluate(tv, taus))))
        mesh = p0.evaluate(tv, 2 * np.pi * np.arange(64) / 64)
        worst = max(worst, abs(float(np.mean(mesh))))
    return float(worst), 1e-12


def _check_corner_example():
    # rho0 of (1 + t/2) cos(tau) is -(1 + t/2) cos(tau)
    grid = uniform_grid(1.0, 100)
    p0 = rho0(FastProfile.from_specs([(1, "cos", "1 + t/2")], grid))
    corners = (p0.corner(), p0.tau_derivative().corner(), p0.corner(1))
    worst = max(abs(c - v) for c, v in zip(corners, (-1.0, 0.0, -0.5)))
    return float(worst), 1e-12


def _check_volterra_order():
    # a u + int_0^t u ds = g with u = exp(-t)
    def kernel(t, s):
        return np.ones_like(np.asarray(s, dtype=float))

    errs = []
    for n in (200, 400, 800):
        grid = uniform_grid(2.0, n)
        e = np.exp(-grid.nodes)
        g = TimeTrace(grid, e + (1.0 - e))
        u = solve_second_kind(1.0, kernel, g)
        errs.append(np.max(np.abs(u.values - e)))
    order = -np.polyfit(np.log([200, 400, 800]), np.log(errs), 1)[0]
    return float(abs(order - 2.0)), 0.1


def _check_volterra_residual():
    basis = build_dirichlet_interval_basis(np.pi, 4)
    grid = uniform_grid(2.0, 800)
    amp = SeparableAmplitude.from_expr("exp(-t)*sin(x)")
    kern = build_kernel(basis, amp, np.pi / 2)
    g = TimeTrace.from_expr("t + t^2", grid)
    u = solve_second_kind(amp.at_point(np.pi / 2, grid), kern, g)
    return volterra_residual(amp.at_point(np.pi / 2, grid), kern, g, u), 5e-5


def _check_volterra_blocked_vs_generic():
    # the blocked separable march against the generic per-row march
    basis = build_dirichlet_interval_basis(np.pi, 8)
    grid = uniform_grid(2.0, 600)
    amp = SeparableAmplitude.from_expr("exp(-t)*sin(x) + (1 + t^2/4)*sin(2*x)")
    kern = build_kernel(basis, amp, 1.1)
    a = amp.at_point(1.1, grid)
    g = TimeTrace.from_expr("t + t^2", grid)
    fast = solve_second_kind(a, kern, g)
    slow = solve_second_kind(a, kern.evaluate, g)
    return float(np.max(np.abs(fast.values - slow.values))), 1e-12


def _check_ip2_identity():
    basis = build_dirichlet_interval_basis(np.pi, 6)
    grid = uniform_grid(3.0, 3000)
    r0 = TimeTrace.from_expr("1 + t", grid)
    fm = np.array([1.0, 0.0, 0.3, 0.0, 0.05, 0.0])
    lamv = duhamel_batch(r0.values, basis.eigenvalues, grid)[:, -1]
    psi = SpatialField(coeffs=fm * lamv, basis=basis)
    fld = ip2_recover(psi, r0, 3.0, basis)
    return float(np.max(np.abs(fld.coeffs - fm))), 1e-10


def _check_ip1_trace_consistency():
    basis = build_dirichlet_interval_basis(np.pi, 1)
    grid = uniform_grid(2.0, 2000)
    amp = SeparableAmplitude.from_expr("sin(x)")
    r0 = TimeTrace.from_expr("1 + t/3", grid)
    lam1 = basis.eigenvalues[0]
    x0 = np.pi / 2
    w = float(basis.eval_modes(np.array([x0]))[0, 0])
    f1 = float(basis.project(SpatialField.from_expr("sin(x)"))[0])
    phi0 = TimeTrace(grid, f1 * w * duhamel_batch(r0.values, [lam1], grid)[0])
    chi = FastProfile.from_specs([(1, "cos", -1.0)], grid)
    data = ObservationData(phi0=phi0, chi=chi, x0=x0, t0=2.0)
    rec = ip1_recover(data, amp, basis)
    return float(np.max(np.abs(rec.r0.values - r0.values))), 1e-5


def _check_boundary_trace():
    basis = build_dirichlet_interval_basis(np.pi, 8)
    good = check_boundary_traces(SpatialField.from_expr("sin(x) + 0.3*sin(3*x)"),
                                 basis, orders=2)
    bad = check_boundary_traces(SpatialField.from_expr("x*(3.141592653589793 - x)"),
                                basis, orders=1)
    ok = good.passed and not bad.passed
    return (0.0 if ok else 1.0), 0.5


def _check_split_fft_matches_symbolic():
    grid = uniform_grid(1.0, 64)
    sym = split_source("1 + t + (1 + t/2)*cos(tau) + 0.4*sin(2*tau)"
                       " + cos(t)*cos(tau)", grid)
    num = split_source(lambda t, tau: 1 + t + (1 + t / 2 + np.cos(t))
                       * np.cos(tau) + 0.4 * np.sin(2 * tau), grid)
    worst = np.max(np.abs(sym.r0.values - num.r0.values))
    for k, kind, tr in sym.r1.terms:
        worst = max(worst, (tr - num.r1.coefficient(k, kind)).max_abs)
    return float(worst), 1e-12


def _check_report_determinism():
    from .config import config_from_dict
    from .harness import json_bytes, run_order_study
    cfg = config_from_dict({
        "basis": {"M": 3}, "source": {"f": "sin(x)", "r0": "1",
                                      "r1": [{"harmonic": 1, "kind": "cos",
                                              "coeff": 1.0}]},
        "omega": [40.0, 80.0], "grid": {"T": 1.0}})
    a = json_bytes(run_order_study(cfg).to_dict())
    b = json_bytes(run_order_study(cfg).to_dict())
    return (0.0 if a == b else 1.0), 0.5


ALL_CHECKS = [
    ("gram_identity_interval", _check_gram_interval),
    ("gram_identity_rectangle", _check_gram_rectangle),
    ("eigenvalue_ordering", _check_eigen_ordering),
    ("sturm_liouville_reference", _check_sl_reference),
    ("sturm_liouville_spectral", _check_sl_spectral),
    ("duhamel_oracles", _check_duhamel_oracle),
    ("oscillatory_rule_exact", _check_oscillatory_vs_slow),
    ("mode_ode_residual", _check_mode_ode_residual),
    ("forward_linearity", _check_forward_linearity),
    ("zero_data_zero_solution", _check_zero_data),
    ("phase_antiderivative_chain", _check_rho_chain),
    ("corner_values_example", _check_corner_example),
    ("volterra_order", _check_volterra_order),
    ("volterra_residual", _check_volterra_residual),
    ("volterra_blocked_vs_generic", _check_volterra_blocked_vs_generic),
    ("amplitude_recovery_identity", _check_ip2_identity),
    ("drive_recovery_consistency", _check_ip1_trace_consistency),
    ("boundary_trace_classification", _check_boundary_trace),
    ("fast_split_fft_vs_symbolic", _check_split_fft_matches_symbolic),
    ("report_determinism", _check_report_determinism),
]


def run_selftest(names=None, out=print):
    """Run the named checks (all by default); returns the list of results."""
    if names:
        known = {name for name, _ in ALL_CHECKS}
        unknown = sorted(set(names) - known)
        if unknown:
            raise ValueError(f"unknown check(s): {', '.join(unknown)}")
    results = []
    for name, fn in ALL_CHECKS:
        if names and name not in names:
            continue
        start = time.perf_counter()
        try:
            value, threshold = fn()
            passed = value <= threshold
        except Exception as exc:     # a crashed check is a failed check
            value, threshold, passed = float("nan"), 0.0, False
            if out:
                out(f"ERROR {name}: {exc}")
        res = CheckResult(name, bool(passed), float(value), float(threshold),
                          time.perf_counter() - start)
        results.append(res)
        if out:
            out(res.line())
    return results
