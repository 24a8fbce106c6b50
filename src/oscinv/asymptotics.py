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
from .forward import SpaceTimeField, duhamel_coefficient, _coerce_amplitude
from .quadrature import duhamel_batch
from .sources import FastProfile, OscillatorySource, corner_values, rho0, rho1, split_source
from .traces import TimeTrace

__all__ = [
    "AsymptoticExpansion", "lambda_profile", "expansion_coefficients",
    "build_expansion", "evaluate_expansion", "residual_norm",
]


def lambda_profile(r0, lam, grid):
    """Mode response Lambda(t) to the slow drive: a'' + lam a = r0, zero data.

    Lambda(t) = lam^{-1/2} int_0^t r0(s) sin(sqrt(lam)(t-s)) ds.
    """
    return duhamel_coefficient(r0, lam, grid)


def _slow_response(fm_traces, r0v, lams, grid):
    """u0 mode coefficients: every mode driven by f_m(t) r0(t), zero data."""
    return duhamel_batch(np.array([tr.values for tr in fm_traces]), lams, grid,
                         [(0.0, 1.0, r0v)])


def expansion_coefficients(fm_traces, corners):
    """First- and second-order free-oscillation coefficients per mode."""
    fm0 = np.array([tr.value_at_start(0) for tr in fm_traces])
    fmp0 = np.array([tr.value_at_start(1) for tr in fm_traces])
    return {
        "b1": -corners["rho0_tau"] * fm0,
        "d": -corners["rho0"] * fm0,
        "b2": corners["rho0"] * fmp0 + corners["rho0_t"] * fm0,
    }


@dataclass(eq=False)
class AsymptoticExpansion:
    """Frequency-independent data of the two-scale expansion."""

    basis: EigenBasis
    amplitude: SeparableAmplitude
    source: OscillatorySource
    rho0_profile: FastProfile
    corners: dict
    b1: np.ndarray
    d: np.ndarray
    b2: np.ndarray
    grid: np.ndarray
    u0_coeffs: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    def u0_on(self, tgrid):
        """Slow-response mode coefficients on an arbitrary uniform grid."""
        tgrid = np.asarray(tgrid, dtype=float)
        if tgrid.size == self.grid.size and np.allclose(tgrid, self.grid,
                                                        rtol=0, atol=1e-13):
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
        """(order-1, order-2) free-oscillation mode coefficients."""
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

    def trace_components(self, x0, tgrid):
        """(phi0, phi1, phi2, chi) of the expansion at a fixed spatial point."""
        x0a = np.atleast_1d(np.asarray(x0, dtype=float))
        pts = x0a.reshape(1, -1) if self.basis.dim > 1 else x0a[:1]
        modes = self.basis.eval_modes(pts).ravel()
        tgrid = np.asarray(tgrid, dtype=float)
        phi0 = TimeTrace(tgrid, self.u0_on(tgrid).T @ modes)
        c1, c2 = self.correction_coeffs(tgrid)
        phi1 = TimeTrace(tgrid, c1.T @ modes)
        phi2 = TimeTrace(tgrid, c2.T @ modes)
        fx0 = self.amplitude.at_point(x0, tgrid)
        chi = self.rho0_profile.resample(tgrid).scaled(fx0)
        return phi0, phi1, phi2, chi


def build_expansion(basis, f, r, grid, n_tau=256):
    """Assemble the expansion data for amplitude f and drive r on a grid."""
    grid = np.asarray(grid, dtype=float)
    amp = _coerce_amplitude(f)
    src = split_source(r, grid, n_tau=n_tau)
    p0 = rho0(src.r1)
    corners = corner_values(src.r1)
    fm = amp.mode_traces(basis, grid)
    coeffs = expansion_coefficients(fm, corners)
    u0 = _slow_response(fm, src.r0.values, basis.eigenvalues, grid)
    return AsymptoticExpansion(
        basis=basis, amplitude=amp, source=src, rho0_profile=p0,
        corners=corners, b1=coeffs["b1"], d=coeffs["d"], b2=coeffs["b2"],
        grid=grid, u0_coeffs=u0)


def evaluate_expansion(expansion, omega, points, tgrid, order=2):
    """Module-level convenience wrapper around AsymptoticExpansion.evaluate."""
    return expansion.evaluate(omega, points, tgrid, order=order)


def residual_norm(u_field, expansion, omega, order=2, n_space=64,
                  samples_per_period=8):
    """Sup distance between a solved field and the truncated expansion.

    Sampled on interior spatial points and a time subgrid with about
    samples_per_period nodes per fast period (enough to see the fast phase
    without paying for every fine node).
    """
    if not isinstance(u_field, SpaceTimeField):
        raise TypeError("u_field must be a SpaceTimeField")
    omega = float(omega)
    h = u_field.grid[1] - u_field.grid[0]
    target = 2.0 * np.pi / (samples_per_period * omega)
    stride = max(1, int(round(target / h)))
    tgrid = u_field.grid[::stride]
    pts = u_field.basis.interior_sample_points(n_space)
    u_vals = u_field.coeffs[:, ::stride].T @ u_field.basis.eval_modes(pts)
    e_vals = expansion.evaluate(omega, pts, tgrid, order=order)
    return float(np.max(np.abs(u_vals - e_vals)))
