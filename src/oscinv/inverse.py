"""Reconstruction pipelines from point observations and final-time data.

Three problems share the machinery:

1. Known amplitude f, observed trace phi0 = u0(x0, .) and fast-phase data
   chi = f(x0, .) * rho0: recover the drive r = r0 + r1.  The slow part solves
   a second-kind Volterra equation f(x0,t) r0(t) + int_0^t K(t,s) r0(s) ds =
   phi0''(t) on Chebyshev nodes; the fast part is chi's second phase
   derivative divided by the amplitude trace.
2. Known slow drive r0, observed final-time snapshot psi = u0(., t0): recover
   a time-invariant amplitude mode by mode, f_m = psi_m / Lambda_m(t0).
3. Both observations together: recover the amplitude as in 2, then read the
   fast drive off chi as in 1; when phi0 is observed too, it is compared with
   the trace the recovered amplitude implies.

Admissibility gates all three: the slow drive must have more weight at t0
than at 0, no mode response Lambda_m(t0) may sit under the division floor,
and neither the amplitude nor every mode may vanish at the observation
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SeparableAmplitude, SpatialField, check_boundary_traces
from .quadrature import slow_responses
from .sources import FastProfile, OscillatorySource
from .traces import TimeTrace, uniform_grid
from .volterra import build_kernel, solve_chebyshev, solve_second_kind

__all__ = [
    "AdmissibilityError", "ObservationData", "AdmissibilityReport",
    "check_admissibility", "ip1_recover", "ip2_recover", "ip3_recover",
]

EPS_LAMBDA_FLOOR = 1e-10      # mode response floor: |Lambda_m(t0)| tested
EPS_AMPLITUDE = 1e-8          # relative floor for |f| at the observation point
EPS_MODES_AT_X0 = 1e-12       # floor for max_m |y_m(x0)|: below it x0 sits
                              # where every mode vanishes (the boundary)
ZERO_DATA_TOL = 1e-6          # |phi0(0)|, |phi0'(0)| allowed per unit sup |phi0|
FALLBACK_INTERVALS = 4096     # uniform [0, t0] grid when Lambda_m(t0) falls
                              # back to the Filon rule


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

    def validate(self):
        if self.t0 is not None and self.t0 <= 0:
            raise AdmissibilityError("observation time t0 must be positive")
        if self.phi0 is not None:
            scale = max(1.0, self.phi0.max_abs)
            v0 = abs(self.phi0.value_at_start(0))
            v1 = abs(self.phi0.value_at_start(1))
            if v0 > ZERO_DATA_TOL * scale or v1 > ZERO_DATA_TOL * scale:
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
        return dict(vars(self), m0_modes=list(self.m0_modes),
                    passed=self.passed)


def _lambda_profiles(r0, basis, grid):
    """Lambda_m(t) of every mode over the span of the uniform grid: the
    zero-data responses of a'' + lam_m a = r0 (a TimeTrace), as a
    SlowResponses table (Chebyshev nodes, or the grid itself on the Filon
    fallback)."""
    return slow_responses(None, r0, basis.eigenvalues, grid)


def _lambda_at(r0, t0, basis):
    """(M,) mode responses Lambda_m(t0); AdmissibilityError when one is
    not finite (a t0 so large that the rule's moments overflow)."""
    grid = uniform_grid(float(t0), FALLBACK_INTERVALS)
    with np.errstate(all="ignore"):
        lamv = _lambda_profiles(r0, basis, grid).at(grid.stop)
    if not np.all(np.isfinite(lamv)):
        raise AdmissibilityError(f"the mode responses Lambda_m(t0) at "
                                 f"t0={t0:g} are not finite")
    return lamv


def _dead_modes(lamv, basis):
    """1-based modes whose response Lambda_m(t0) sits under the division
    floor EPS_LAMBDA_FLOOR * max(1, 1/lam_m)."""
    floors = EPS_LAMBDA_FLOOR * np.maximum(1.0, 1.0 / basis.eigenvalues)
    return [m + 1 for m in range(basis.M) if abs(lamv[m]) < floors[m]]


def _amplitude_floor(values, scale):
    """min |f| over the values, and whether it clears the floor
    EPS_AMPLITUDE * max(1, scale)."""
    fmin = float(np.min(np.abs(values)))
    return fmin, fmin >= EPS_AMPLITUDE * max(1.0, scale)


def _fast_drive(chi, f_x0):
    """chi's second phase derivative, which r1 = chi_tau_tau / f(x0) divides
    by the amplitude values f_x0 (nonzero); AdmissibilityError when the
    bound max_k k^2 max |chi_k| / min |f_x0| on r1 overflows."""
    peak = max((float(k) ** 2 * c.max_abs for k, _, c in chi.terms),
               default=0.0)
    fmin = float(np.min(np.abs(f_x0)))
    if not peak / fmin < math.inf:
        raise AdmissibilityError(
            f"the fast drive chi''/f(x0) overflows: max |chi''| is "
            f"{peak:g} and min |f(x0)| {fmin:g}")
    return chi.tau_derivative(2)


def check_admissibility(r0=None, t0=None, basis=None, f=None, x0=None,
                        lambda_values=None):
    """Evaluate the reconstruction preconditions that apply to the given data.

    Slow-drive checks (contrast at t0, mode-response floor, empirical
    c0 = min_m lam_m |Lambda_m(t0)|) run when r0, t0 and basis are present;
    the amplitude floor runs when f and x0 are present.  A caller holding
    the responses Lambda_m(t0) of r0 passes them as lambda_values.
    """
    rep = {}
    if r0 is not None and t0 is not None and basis is not None:
        if not isinstance(r0, TimeTrace):
            r0 = TimeTrace.from_expr(r0, uniform_grid(float(t0), 64))
        lamv = lambda_values
        if lamv is None:
            lamv = _lambda_at(r0, t0, basis)
        v0 = float(r0(0.0))
        vt = float(r0(float(t0)))
        bad = _dead_modes(lamv, basis)
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
        tgrid = uniform_grid(float(t0) if t0 else 1.0, 256)
        tr = SeparableAmplitude.coerce(f).at_point(x0, tgrid)
        fmin, ok = _amplitude_floor(tr.values, tr.max_abs)
        rep.update(f_abs_at_x0=fmin, f_floor_ok=bool(ok))
    return AdmissibilityReport(**rep)


def ip1_recover(data, f, basis):
    """Recover the full drive r0 + r1 from phi0 and chi at a known amplitude.

    r0 solves its Volterra equation on Chebyshev nodes of phi0's span
    (``solve_chebyshev``), with phi0'' read at the nodes alone and the node
    count set by phi0's own error bound, and is interpolated onto phi0's
    grid, keeping its node table; data that no chebyshev.N_MAX nodes
    resolve take the march.
    """
    if data.phi0 is None or data.chi is None:
        raise AdmissibilityError("drive recovery needs both phi0 and chi")
    data.validate()
    grid = data.phi0.axis
    amp = SeparableAmplitude.coerce(f)
    f_x0 = amp.at_point(data.x0, grid)
    if not _amplitude_floor(f_x0.values, f_x0.max_abs)[1]:
        raise AdmissibilityError("amplitude vanishes at the observation point")
    kernel = build_kernel(basis, amp, data.x0)
    if np.max(np.abs(kernel.mode_weights)) < EPS_MODES_AT_X0:
        raise AdmissibilityError("every eigenfunction vanishes at the "
                                 "observation point, so its trace carries "
                                 "no information on the drive")
    phi0 = data.phi0
    found = solve_chebyshev(lambda t: amp.values_at_point(data.x0, t), kernel,
                            lambda t: phi0.derivative_at(t, 2),
                            grid.start, grid.stop, phi0.derivative_noise(2))
    if found is None:
        r0_trace = solve_second_kind(f_x0, kernel, TimeTrace(
            grid, phi0.derivative_at(grid.nodes, 2)))
    else:
        r0_trace = TimeTrace(grid, found(grid.nodes), table=found)
    r1 = _fast_drive(data.chi.resample(grid), f_x0.values).divided_by(f_x0)
    return OscillatorySource(r0_trace, r1)


def ip2_recover(psi, r0, t0, basis, lambda_values=None):
    """Recover a time-invariant amplitude from the final-time snapshot.

    psi_m = f_m Lambda_m(t0), so f_m = psi_m / Lambda_m(t0); any mode response
    below the floor EPS_LAMBDA_FLOOR * max(1, 1/lam_m) aborts (data cannot
    determine those modes; no regularization is applied by design), and so
    does an f whose sum_m |f_m| max(1, lam_m) overflows.  The
    responses, lambda_values when given, are kept in meta["lambda_values"].
    """
    lamv = lambda_values
    if lamv is None:
        lamv = _lambda_at(r0, t0, basis)
    bad = _dead_modes(lamv, basis)
    if bad:
        raise AdmissibilityError(
            f"mode responses at t0 below the division floor for modes {bad}")
    with np.errstate(over="ignore"):
        coeffs = basis.project(psi) / lamv
        # the boundary report and the amplitude floor sum f_m and lam_m f_m
        size = np.abs(coeffs) @ np.maximum(1.0, basis.eigenvalues)
    if not np.isfinite(size):
        raise AdmissibilityError("the recovered amplitude psi_m / "
                                 "Lambda_m(t0) or its operator image "
                                 "overflows")
    fld = SpatialField(coeffs=coeffs, basis=basis)
    fld.meta["lambda_values"] = lamv
    fld.meta["boundary_report"] = check_boundary_traces(fld, basis, orders=1)
    return fld


def ip3_recover(data, r0, basis):
    """Recover amplitude and fast drive from final-time plus point data.

    The amplitude comes from ip2_recover.  With phi0 observed, the trace the
    amplitude implies is kept in meta["phi0_derived"] and its sup distance
    from phi0 in meta["phi0_consistency"].  When phi0's grid spans [0, t0]
    and its Lambda table is a Chebyshev one, that table is the one
    ip2_recover would build, and it serves both.
    """
    if data.psi is None or data.chi is None or data.t0 is None:
        raise AdmissibilityError("combined recovery needs psi, chi, and t0")
    profiles = lamv = None
    if data.phi0 is not None:
        grid = data.phi0.axis
        profiles = _lambda_profiles(r0, basis, grid)
        if profiles.table is not None and grid.start == 0.0 \
                and grid.stop == float(data.t0):
            lamv = profiles.at(grid.stop)
    fld = ip2_recover(data.psi, r0, data.t0, basis, lambda_values=lamv)

    w = basis.point_weights(data.x0)
    fx0 = float(fld.coeffs @ w)
    fscale = float(np.max(np.abs(fld.coeffs @ basis.modes_at_samples(64))))
    if not _amplitude_floor(fx0, fscale)[1]:
        raise AdmissibilityError("recovered amplitude vanishes at the "
                                 "observation point")
    r1 = _fast_drive(data.chi, fx0).scaled(1.0 / fx0)

    if profiles is not None:
        phi0_derived = TimeTrace(grid,
                                 profiles.row(fld.coeffs * w, grid.nodes))
        fld.meta["phi0_derived"] = phi0_derived
        fld.meta["phi0_consistency"] = float(
            np.max(np.abs(data.phi0.values - phi0_derived.values)))
    return fld, r1
