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

u0 has one forward model, a ``quadrature.slow_responses`` table over the
span of the grid it is read on (``AsymptoticExpansion.u0_table``).  Mode
weights contract the table first and it is interpolated after, so u0 does
not depend on that grid unless the table falls back to the Filon rule.
The free oscillations u1 = sum_m b1_m sin(r_m t) / r_m y_m and
u2 = sum_m (d_m cos(r_m t) + b2_m sin(r_m t) / r_m) y_m, r_m = sqrt(lam_m),
are contracted with their mode weights a block of times at a time
(``quadrature.mode_oscillations``), so no (M, N) table is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import EigenBasis, SeparableAmplitude
from .forward import SpaceTimeField
from .quadrature import mode_oscillations, slow_responses
from .sources import N_TAU, FastProfile, OscillatorySource, rho0, split_source
from .traces import Grid, TimeTrace

__all__ = [
    "AsymptoticExpansion", "expansion_coefficients", "build_expansion",
    "residual_norm",
]

RESIDUAL_SPACE_POINTS = 64         # interior points residual_norm samples
RESIDUAL_SAMPLES_PER_PERIOD = 8    # its time samples per fast period


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
    _cache: dict = field(default_factory=dict, repr=False)

    def u0_table(self, tgrid):
        """u0's mode responses, driven by f_m(t) r0(t) from zero data, as a
        ``slow_responses`` table over the span of a uniform grid (a
        ``Grid`` or its nodes), kept per span: a Chebyshev table serves
        every grid of its span, a Filon fallback table only its own grid
        (another grid replaces it)."""
        tgrid = Grid.of(tgrid)
        key = (tgrid.start, tgrid.stop)
        resp = self._cache.get(key)
        if resp is None or not (resp.table is not None
                                or resp.axis == tgrid):
            amp = self.amplitude
            resp = self._cache[key] = slow_responses(
                amp.time_factors, self.source.r0, self.basis.eigenvalues,
                tgrid, amp.term_coefficients(self.basis).T)
        return resp

    def evaluate(self, omega, points, tgrid, order=2, modes=None):
        """Expansion values on (tgrid x points), truncated at the given
        order; tgrid is a ``Grid`` or its nodes.  modes, when given, are
        the basis's ``eval_modes(points)``."""
        tgrid = Grid.of(tgrid)
        if modes is None:
            modes = self.basis.eval_modes(points)
        u0 = self.u0_table(tgrid).row(modes, tgrid.nodes)
        if order == 0:
            return u0
        if order != 2:
            raise ValueError("order must be 0 or 2")
        omega = float(omega)
        roots = np.sqrt(self.basis.eigenvalues)
        # u1/omega + u2/omega^2 added into u0, then f rho0/omega^2
        out = mode_oscillations(
            roots, (self.d / omega ** 2)[:, None] * modes,
            ((self.b1 / omega + self.b2 / omega ** 2) / roots)[:, None]
            * modes, tgrid, out=u0)
        t = tgrid.nodes
        fvals = self.amplitude.evaluate(points, t)
        rho_vals = self.rho0_profile.evaluate(t, omega * t)
        fvals *= np.asarray(rho_vals)[:, None]
        fvals /= omega ** 2
        out += fvals
        return out

    def observed_traces(self, x0, tgrid):
        """(phi0, chi) at a fixed spatial point: the slow trace u0(x0, .) and
        the fast-phase data f(x0, .) * rho0 a point observation records."""
        tgrid = Grid.of(tgrid)
        w = self.basis.point_weights(x0)
        phi0 = TimeTrace(tgrid, self.u0_table(tgrid).row(w, tgrid.nodes))
        fx0 = self.amplitude.at_point(x0, tgrid)
        return phi0, self.rho0_profile.resample(tgrid).scaled(fx0)

    def trace_components(self, x0, tgrid):
        """(phi0, phi1, phi2, chi) of the expansion at a fixed spatial point:
        observed_traces plus the order-1 and order-2 free oscillations
        u1(x0, .) and u2(x0, .)."""
        tgrid = Grid.of(tgrid)
        w = self.basis.point_weights(x0)
        roots = np.sqrt(self.basis.eigenvalues)
        cos_w = np.stack([np.zeros_like(w), self.d * w], axis=1)
        sin_w = np.stack([self.b1 * w, self.b2 * w], axis=1) / roots[:, None]
        phi1, phi2 = (TimeTrace(tgrid, v) for v in mode_oscillations(
            roots, cos_w, sin_w, tgrid).T.copy())
        phi0, chi = self.observed_traces(x0, tgrid)
        return phi0, phi1, phi2, chi


def build_expansion(basis, f, r, grid, n_tau=N_TAU):
    """Assemble the expansion data for amplitude f and drive r on a grid."""
    amp = SeparableAmplitude.coerce(f)
    src = split_source(r, grid, n_tau=n_tau)
    p0 = rho0(src.r1)
    return AsymptoticExpansion(basis, amp, src, p0,
                               **expansion_coefficients(amp, basis, p0))


def residual_norm(u_field, expansion, omega, order=2):
    """Sup distance between a solved field and the truncated expansion.

    Sampled on RESIDUAL_SPACE_POINTS interior points and a time subgrid with
    about RESIDUAL_SAMPLES_PER_PERIOD nodes per fast period (enough to see
    the fast phase without paying for every fine node); u0 is the
    expansion's table (``u0_table``) read on that subgrid.  The mode
    values at the sample points are the basis's ``modes_at_samples``, and
    serve the expansion too when it shares the field's basis.
    """
    if not isinstance(u_field, SpaceTimeField):
        raise TypeError("u_field must be a SpaceTimeField")
    omega = float(omega)
    target = 2.0 * np.pi / (RESIDUAL_SAMPLES_PER_PERIOD * omega)
    sub = u_field.every(round(target / u_field.axis.h))
    basis = u_field.basis
    pts = basis.interior_sample_points(RESIDUAL_SPACE_POINTS)
    modes = basis.modes_at_samples(RESIDUAL_SPACE_POINTS)
    u_vals = sub.coeffs.T @ modes
    u_vals -= expansion.evaluate(
        omega, pts, sub.axis, order=order,
        modes=modes if expansion.basis is basis else None)
    return float(np.max(np.abs(u_vals, out=u_vals)))
