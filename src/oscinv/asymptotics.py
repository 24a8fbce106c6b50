"""Two-scale asymptotic expansion of the rapidly forced solution.

For a drive f(x,t) * [r0(t) + r1(t, omega t)] the solution expands as

    u_omega = u0 + u1/omega + (u2 + v2)/omega^2 + o(omega^{-2})

with u0 the response to the slow mean, v2(x,t,tau) = f(x,t) * rho0(t,tau) the
fast corrector built from the zero-mean second phase antiderivative of r1, and
u1, u2 free oscillations whose coefficients b1_m, d_m, b2_m cancel the initial
data the correctors would otherwise introduce:

    b1_m = -rho0_tau(0,0) f_m(0)
    d_m  = -rho0(0,0) f_m(0)
    b2_m =  rho0(0,0) f_m'(0) + rho0_t(0,0) f_m(0)

b2_m absorbs both the corrector's own initial velocity and the secular term
produced by the order-omega^{-1} interior residual, which is what makes the
remainder genuinely o(omega^{-2}).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import EigenBasis, SeparableAmplitude
from .forward import SpaceTimeField, _coerce_amplitude
from .quadrature import duhamel_batch
from .sources import N_TAU, FastProfile, OscillatorySource, rho0, split_source
from .traces import TimeTrace, same_grid

__all__ = [
    "AsymptoticExpansion", "expansion_coefficients", "build_expansion",
    "residual_norm",
]

RESIDUAL_SPACE_POINTS = 64         # interior points residual_norm samples
RESIDUAL_SAMPLES_PER_PERIOD = 8    # its time samples per fast period


def _slow_response(fm, r0v, lams, grid):
    """u0 mode coefficients: every mode driven by f_m(t) r0(t), zero data."""
    return duhamel_batch(fm, lams, grid, [(0.0, 1.0, r0v)])


def expansion_coefficients(amp, basis, rho0_profile):
    """First- and second-order free-oscillation coefficients per mode, from
    the corner values rho0, rho0_tau and rho0_t at (t, tau) = (0, 0)."""
    fm0 = amp.mode_derivatives_at_start(basis, 0)
    fmp0 = amp.mode_derivatives_at_start(basis, 1)
    corner = rho0_profile.corner()
    return {
        "b1": -rho0_profile.tau_derivative().corner() * fm0,
        "d": -corner * fm0,
        "b2": corner * fmp0 + rho0_profile.corner(1) * fm0,
    }


@dataclass(eq=False)
class AsymptoticExpansion:
    """Frequency-independent data of the two-scale expansion."""

    basis: EigenBasis
    amplitude: SeparableAmplitude
    source: OscillatorySource
    rho0_profile: FastProfile
    b1: np.ndarray
    d: np.ndarray
    b2: np.ndarray
    grid: np.ndarray
    u0_coeffs: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    def u0_on(self, tgrid):
        """Slow-response mode coefficients on an arbitrary uniform grid."""
        tgrid = np.asarray(tgrid, dtype=float)
        if same_grid(self.grid, tgrid):
            return self.u0_coeffs
        key = (tgrid.size, float(tgrid[0]), float(tgrid[-1]))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        fm = self.amplitude.mode_traces(self.basis, tgrid)
        out = _slow_response(fm, self.source.r0.sample(tgrid),
                             self.basis.eigenvalues, tgrid)
        self._cache[key] = out
        return out

    def correction_coeffs(self, tgrid):
        """(order-1, order-2) free-oscillation mode coefficients, each (M, N):
        b1_m sin(sqrt(lam_m) t) / sqrt(lam_m) and
        d_m cos(sqrt(lam_m) t) + b2_m sin(sqrt(lam_m) t) / sqrt(lam_m)."""
        roots = np.sqrt(self.basis.eigenvalues)[:, None]
        phase = roots * np.asarray(tgrid, dtype=float)[None, :]
        c1 = (self.b1[:, None] / roots) * np.sin(phase)
        c2 = self.d[:, None] * np.cos(phase) \
            + (self.b2[:, None] / roots) * np.sin(phase)
        return c1, c2

    def evaluate(self, omega, points, tgrid, order=2):
        """Expansion values on (tgrid x points), truncated at the given order."""
        tgrid = np.asarray(tgrid, dtype=float)
        modes = self.basis.eval_modes(points)
        u0 = self.u0_on(tgrid).T @ modes
        if order == 0:
            return u0
        if order != 2:
            raise ValueError("order must be 0 or 2")
        omega = float(omega)
        c1, c2 = self.correction_coeffs(tgrid)
        out = u0 + (c1.T @ modes) / omega + (c2.T @ modes) / omega ** 2
        fvals = self.amplitude.evaluate(points, tgrid)
        rho_vals = self.rho0_profile.evaluate(tgrid, omega * tgrid)
        out += fvals * np.asarray(rho_vals)[:, None] / omega ** 2
        return out

    def observed_traces(self, x0, tgrid):
        """(phi0, chi) at a fixed spatial point: the slow trace u0(x0, .) and
        the fast-phase data f(x0, .) * rho0 a point observation records."""
        tgrid = np.asarray(tgrid, dtype=float)
        w = self.basis.point_weights(x0)
        phi0 = TimeTrace(tgrid, self.u0_on(tgrid).T @ w)
        fx0 = self.amplitude.at_point(x0, tgrid)
        return phi0, self.rho0_profile.resample(tgrid).scaled(fx0)

    def trace_components(self, x0, tgrid):
        """(phi0, phi1, phi2, chi) of the expansion at a fixed spatial point:
        observed_traces plus the order-1 and order-2 free oscillations."""
        # the (M, N) tables before chi: the other order raised peak RSS
        modes = self.basis.point_weights(x0)
        phi1, phi2 = (TimeTrace(tgrid, c.T @ modes)
                      for c in self.correction_coeffs(tgrid))
        phi0, chi = self.observed_traces(x0, tgrid)
        return phi0, phi1, phi2, chi


def build_expansion(basis, f, r, grid, n_tau=N_TAU):
    """Assemble the expansion data for amplitude f and drive r on a grid."""
    grid = np.asarray(grid, dtype=float)
    amp = _coerce_amplitude(f)
    src = split_source(r, grid, n_tau=n_tau)
    fm = amp.mode_traces(basis, grid)
    p0 = rho0(src.r1)
    coeffs = expansion_coefficients(amp, basis, p0)
    u0 = _slow_response(fm, src.r0.values, basis.eigenvalues, grid)
    return AsymptoticExpansion(
        basis=basis, amplitude=amp, source=src, rho0_profile=p0,
        b1=coeffs["b1"], d=coeffs["d"], b2=coeffs["b2"], grid=grid,
        u0_coeffs=u0)


def residual_norm(u_field, expansion, omega, order=2):
    """Sup distance between a solved field and the truncated expansion.

    Sampled on RESIDUAL_SPACE_POINTS interior points and a time subgrid with
    about RESIDUAL_SAMPLES_PER_PERIOD nodes per fast period (enough to see
    the fast phase without paying for every fine node).
    """
    if not isinstance(u_field, SpaceTimeField):
        raise TypeError("u_field must be a SpaceTimeField")
    omega = float(omega)
    h = u_field.grid[1] - u_field.grid[0]
    target = 2.0 * np.pi / (RESIDUAL_SAMPLES_PER_PERIOD * omega)
    stride = max(1, int(round(target / h)))
    tgrid = u_field.grid[::stride]
    pts = u_field.basis.interior_sample_points(RESIDUAL_SPACE_POINTS)
    u_vals = u_field.coeffs[:, ::stride].T @ u_field.basis.eval_modes(pts)
    e_vals = expansion.evaluate(omega, pts, tgrid, order=order)
    return float(np.max(np.abs(u_vals - e_vals)))
