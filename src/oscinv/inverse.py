"""Reconstruction pipelines from point observations and final-time data.

Three problems share the machinery:

1. Known amplitude f, observed trace phi0 = u0(x0, .) and fast-phase data
   chi = f(x0, .) * rho0: recover the drive r = r0 + r1.  The slow part solves
   a second-kind Volterra equation f(x0,t) r0(t) + int_0^t K(t,s) r0(s) ds =
   phi0''(t); the fast part is chi's second phase derivative divided by the
   amplitude trace.
2. Known slow drive r0, observed final-time snapshot psi = u0(., t0): recover
   a time-invariant amplitude mode by mode, f_m = psi_m / Lambda_m(t0).
3. Both observations together: recover the amplitude as in 2, derive the trace
   phi0 it implies, then read the fast drive off chi as in 1.

Admissibility gates all three: the slow drive must have more weight at t0
than at 0, no mode response Lambda_m(t0) may sit under the division floor,
and the amplitude may not vanish at the observation point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import sympy

from .asymptotics import expansion_coefficients
from .basis import (EigenBasis, SeparableAmplitude, SpatialField,
                    check_boundary_traces)
from .expressions import T
from .forward import _coerce_amplitude
from .quadrature import duhamel_batch
from .sources import (FastProfile, OscillatorySource, corner_values_from_rho0,
                      rho0, rho1)
from .traces import TimeTrace, uniform_grid
from .volterra import build_kernel, solve_second_kind

__all__ = [
    "AdmissibilityError", "ObservationData", "AdmissibilityReport",
    "check_admissibility", "ip1_build_targets", "ip1_recover",
    "ip2_recover", "ip3_recover",
]

EPS_LAMBDA_FLOOR = 1e-10      # mode response floor: |Lambda_m(t0)| tested
EPS_AMPLITUDE = 1e-8          # relative floor for |f| at the observation point


class AdmissibilityError(ValueError):
    """Observation setup violates a reconstruction precondition."""


@dataclass(eq=False)
class ObservationData:
    """Measured inputs: point trace, fast-phase profile, final-time snapshot."""

    phi0: TimeTrace | None = None
    chi: FastProfile | None = None
    psi: SpatialField | None = None
    x0: object = None
    t0: float | None = None

    def validate(self, tol=1e-6):
        if self.t0 is not None and self.t0 <= 0:
            raise AdmissibilityError("observation time t0 must be positive")
        if self.phi0 is not None:
            scale = max(1.0, self.phi0.max_abs)
            v0 = abs(self.phi0.value_at_start(0))
            v1 = abs(self.phi0.value_at_start(1))
            if v0 > tol * scale or v1 > tol * scale:
                raise AdmissibilityError(
                    "trace data incompatible with zero initial conditions: "
                    f"|phi0(0)|={v0:.2e}, |phi0'(0)|={v1:.2e}")
        return self


@dataclass(frozen=True)
class AdmissibilityReport:
    """Deterministic record of every reconstruction precondition checked."""

    r0_at_0: float | None = None
    r0_at_t0: float | None = None
    contrast_ok: bool | None = None
    m0_modes: tuple = ()
    m0_empty: bool | None = None
    min_response: float | None = None
    c0_empirical: float | None = None
    c0_argmin_mode: int | None = None
    c0_lower_estimate: float | None = None
    f_abs_at_x0: float | None = None
    f_floor_ok: bool | None = None

    @property
    def passed(self):
        checks = [self.contrast_ok, self.m0_empty, self.f_floor_ok]
        return all(c for c in checks if c is not None)

    def to_dict(self):
        out = {}
        for k, v in self.__dict__.items():
            if isinstance(v, (np.floating, float)):
                out[k] = float(v)
            elif isinstance(v, (np.bool_, bool)):
                out[k] = bool(v)
            elif isinstance(v, tuple):
                out[k] = list(v)
            else:
                out[k] = v
        out["passed"] = bool(self.passed)
        return out


def _lambda_profiles(r0, lams, grid):
    """Lambda_m(t) of every mode on the grid, shape (M, N)."""
    r0v = r0.sample(grid) if isinstance(r0, TimeTrace) else \
        TimeTrace.from_expr(r0, grid).values
    return duhamel_batch(r0v, lams, grid)


def _lambda_values(r0, lams, t0, n_grid=4096):
    """Lambda_m(t0) for every mode, on a shared fine slow grid."""
    return _lambda_profiles(r0, lams, uniform_grid(float(t0), n_grid))[:, -1]


def check_admissibility(r0=None, t0=None, basis=None, f=None, x0=None,
                        n_grid=4096):
    """Evaluate the reconstruction preconditions that apply to the given data.

    Slow-drive checks (contrast at t0, mode-response floor, empirical
    c0 = min_m lam_m |Lambda_m(t0)|) run when r0, t0 and basis are present;
    the amplitude floor runs when f and x0 are present.
    """
    rep = {}
    if r0 is not None and t0 is not None and basis is not None:
        if not isinstance(r0, TimeTrace):
            r0 = TimeTrace.from_expr(r0, uniform_grid(float(t0), 64))
        v0 = float(r0(0.0))
        vt = float(r0(float(t0)))
        lamv = _lambda_values(r0, basis.eigenvalues, t0, n_grid)
        floors = EPS_LAMBDA_FLOOR * np.maximum(1.0, 1.0 / basis.eigenvalues)
        bad = [m + 1 for m in range(basis.M) if abs(lamv[m]) < floors[m]]
        scaled = basis.eigenvalues * np.abs(lamv)
        argmin = int(np.argmin(scaled))
        rep.update(
            r0_at_0=v0, r0_at_t0=vt, contrast_ok=bool(abs(vt) > abs(v0)),
            m0_modes=tuple(bad), m0_empty=not bad,
            min_response=float(np.min(np.abs(lamv))),
            c0_empirical=float(scaled[argmin]),
            c0_argmin_mode=argmin + 1,
            c0_lower_estimate=float(abs(vt) - abs(v0)))
    if f is not None and x0 is not None:
        amp = _coerce_amplitude(f)
        horizon = float(t0) if t0 else 1.0
        tr = amp.at_point(x0, uniform_grid(horizon, 256))
        fmin = float(np.min(np.abs(tr.values)))
        fmax = float(np.max(np.abs(tr.values)))
        rep.update(f_abs_at_x0=fmin,
                   f_floor_ok=bool(fmin >= EPS_AMPLITUDE * max(1.0, fmax)))
    return AdmissibilityReport(**rep)


def _rho0_from_chi(chi, f_x0):
    """Pull rho0 out of chi = f(x0,t) rho0 via the phase antiderivative chain."""
    return rho0(chi.tau_derivative(2)).divided_by(f_x0)


def _point_mode_weights(basis, x0):
    x0a = np.atleast_1d(np.asarray(x0, dtype=float))
    pts = x0a.reshape(1, -1) if basis.dim > 1 else x0a[:1]
    return basis.eval_modes(pts).ravel()


def ip1_build_targets(chi, f, x0, basis, r0=None, grid=None):
    """Order-1 and order-2 trace targets implied by the fast-phase data.

    phi1(t) = sum_m (b1_m/sqrt(lam_m)) y_m(x0) sin(sqrt(lam_m) t) and
    phi2(t) = sum_m y_m(x0) [d_m cos(sqrt(lam_m) t)
                             + (b2_m/sqrt(lam_m)) sin(sqrt(lam_m) t)],
    with coefficients from the corner values of rho0 = chi / f(x0, .).
    The slow part r0 is accepted for call symmetry with the recovery entry
    points but plays no role in the fast-phase targets.
    """
    del r0
    if grid is None:
        grid = chi.grid
    grid = np.asarray(grid, dtype=float)
    amp = _coerce_amplitude(f)
    f_x0 = amp.at_point(x0, grid)
    scale = max(1.0, f_x0.max_abs)
    if float(np.min(np.abs(f_x0.values))) < EPS_AMPLITUDE * scale:
        raise AdmissibilityError("amplitude vanishes at the observation point")

    p0 = _rho0_from_chi(chi.resample(grid), f_x0)
    corners = corner_values_from_rho0(p0)
    fm = amp.mode_traces(basis, grid)
    coeff = expansion_coefficients(fm, corners)
    w = _point_mode_weights(basis, x0)
    roots = np.sqrt(basis.eigenvalues)

    e1 = sympy.Integer(0)
    e2 = sympy.Integer(0)
    for m in range(basis.M):
        s = sympy.sin(sympy.Float(roots[m]) * T)
        c = sympy.cos(sympy.Float(roots[m]) * T)
        e1 = e1 + sympy.Float(coeff["b1"][m] / roots[m] * w[m]) * s
        e2 = e2 + sympy.Float(w[m] * coeff["d"][m]) * c \
            + sympy.Float(w[m] * coeff["b2"][m] / roots[m]) * s
    return TimeTrace.from_expr(e1, grid), TimeTrace.from_expr(e2, grid)


def ip1_recover(data, f, basis):
    """Recover the full drive r0 + r1 from phi0 and chi at a known amplitude."""
    if data.phi0 is None or data.chi is None:
        raise AdmissibilityError("drive recovery needs both phi0 and chi")
    data.validate()
    grid = data.phi0.grid
    amp = _coerce_amplitude(f)
    f_x0 = amp.at_point(data.x0, grid)
    scale = max(1.0, f_x0.max_abs)
    if float(np.min(np.abs(f_x0.values))) < EPS_AMPLITUDE * scale:
        raise AdmissibilityError("amplitude vanishes at the observation point")

    fm = amp.mode_traces(basis, grid)
    kernel = build_kernel(basis, fm, data.x0)
    g = data.phi0.derivative(2)
    r0_trace = solve_second_kind(f_x0, kernel, g)
    r1 = data.chi.resample(grid).tau_derivative(2).divided_by(f_x0)
    return OscillatorySource(r0_trace, r1)


def ip2_recover(psi, r0, t0, basis, n_grid=4096):
    """Recover a time-invariant amplitude from the final-time snapshot.

    psi_m = f_m Lambda_m(t0), so f_m = psi_m / Lambda_m(t0); any mode response
    below the floor EPS_LAMBDA_FLOOR * max(1, 1/lam_m) aborts (data cannot
    determine those modes; no regularization is applied by design).
    """
    lamv = _lambda_values(r0, basis.eigenvalues, float(t0), n_grid)
    floors = EPS_LAMBDA_FLOOR * np.maximum(1.0, 1.0 / basis.eigenvalues)
    bad = [m + 1 for m in range(basis.M) if abs(lamv[m]) < floors[m]]
    if bad:
        raise AdmissibilityError(
            f"mode responses at t0 below the division floor for modes {bad}")
    psic = basis.project(psi)
    coeffs = psic / lamv
    fld = SpatialField(coeffs=coeffs, basis=basis)
    fld.meta["lambda_values"] = lamv
    fld.meta["boundary_report"] = check_boundary_traces(fld, basis, orders=1)
    return fld


def ip3_recover(data, r0, basis, n_grid=4096):
    """Recover amplitude and fast drive from final-time plus point data."""
    if data.psi is None or data.chi is None or data.t0 is None:
        raise AdmissibilityError("combined recovery needs psi, chi, and t0")
    fld = ip2_recover(data.psi, r0, data.t0, basis, n_grid=n_grid)

    w = _point_mode_weights(basis, data.x0)
    fx0 = float(fld.coeffs @ w)
    sample = basis.interior_sample_points(64)
    fscale = max(1.0, float(np.max(np.abs(fld.evaluate(sample)))))
    if abs(fx0) < EPS_AMPLITUDE * fscale:
        raise AdmissibilityError("recovered amplitude vanishes at the "
                                 "observation point")
    r1 = data.chi.tau_derivative(2).scaled(1.0 / fx0)

    grid = data.phi0.grid if data.phi0 is not None \
        else uniform_grid(float(data.t0), n_grid)
    lam_traces = _lambda_profiles(r0, basis.eigenvalues, grid)
    phi0_derived = TimeTrace(grid, (fld.coeffs * w) @ lam_traces)
    fld.meta["phi0_derived"] = phi0_derived
    if data.phi0 is not None:
        fld.meta["phi0_consistency"] = float(
            np.max(np.abs(data.phi0.values - phi0_derived.values)))
    return fld, r1
