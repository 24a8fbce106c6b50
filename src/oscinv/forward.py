"""Spectral forward solver for u_tt = -A u + f(x,t) r(t, omega t).

Each mode coefficient obeys a_m'' + lam_m a_m = F_m(t) with zero (or given)
initial data, solved in closed form through Duhamel integrals.  The integrals
are evaluated with the cumulative oscillatory product rule at the phase rate
of each drive component (the slow mean plus k*omega sidebands per harmonic),
all modes and components in one batched kernel, so accuracy is set by
envelope smoothness, not by omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import sympy

from .basis import EigenBasis, SeparableAmplitude, SpatialField
from .quadrature import duhamel_batch
from .sources import OscillatorySource, split_source
from .traces import TimeTrace, uniform_grid

__all__ = [
    "UnderResolvedError", "SpaceTimeField",
    "make_time_grid", "check_resolution",
    "duhamel_coefficient", "solve_with_initial_data", "solve_direct",
]

MIN_POINTS_PER_PERIOD = 16


class UnderResolvedError(ValueError):
    """Time grid too coarse for the requested fast frequency."""


def make_time_grid(t_end, omega=None, points_per_period=32, n_slow=2048):
    """Uniform grid on [0, t_end] resolving the fast period when omega is set."""
    if t_end <= 0:
        raise ValueError("final time must be positive")
    if omega is None:
        return uniform_grid(t_end, n_slow)
    if points_per_period < MIN_POINTS_PER_PERIOD:
        raise UnderResolvedError(
            f"points_per_period={points_per_period} is below the minimum "
            f"{MIN_POINTS_PER_PERIOD}")
    h_max = 2.0 * np.pi / (float(omega) * points_per_period)
    n = int(np.ceil(t_end / h_max))
    return uniform_grid(t_end, n)


def check_resolution(grid, omega):
    """Reject grids with fewer than MIN_POINTS_PER_PERIOD nodes per fast period."""
    h = grid[1] - grid[0]
    limit = 2.0 * np.pi / (float(omega) * MIN_POINTS_PER_PERIOD)
    if h > limit * (1.0 + 1e-12):
        raise UnderResolvedError(
            f"time step {h:.3e} exceeds {limit:.3e} = (2*pi/omega)/"
            f"{MIN_POINTS_PER_PERIOD} at omega={omega}")


@dataclass(eq=False)
class SpaceTimeField:
    """Mode-coefficient traces of a space-time function on a shared time grid."""

    basis: EigenBasis
    grid: np.ndarray
    coeffs: np.ndarray            # (M, n_time)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.M, self.grid.size):
            raise ValueError("coefficient array must be (M, n_time)")

    def evaluate(self, points):
        """Values u(t_i, x_j), shape (n_time, n_points)."""
        return self.coeffs.T @ self.basis.eval_modes(points)

    def trace_at(self, x0):
        x0a = np.atleast_1d(np.asarray(x0, dtype=float))
        pts = x0a.reshape(1, -1) if self.basis.dim > 1 else x0a[:1]
        vals = (self.coeffs.T @ self.basis.eval_modes(pts)).ravel()
        return TimeTrace(self.grid, vals)

    def field_at_end(self):
        return SpatialField(coeffs=self.coeffs[:, -1].copy(), basis=self.basis)

    def subsample(self, n_out):
        """Coarse copy with about n_out nodes (stride divides the grid)."""
        stride = max(1, (self.grid.size - 1) // max(1, n_out - 1))
        return SpaceTimeField(self.basis, self.grid[::stride].copy(),
                              self.coeffs[:, ::stride].copy(),
                              meta=dict(self.meta, subsampled_stride=stride))


def duhamel_coefficient(F, lam, grid):
    """Zero-data response of a'' + lam a = F on the grid.

    a(t) = lam^{-1/2} * int_0^t F(s) sin(sqrt(lam)(t-s)) ds, evaluated as the
    imaginary part of e^{i sqrt(lam) t} times the running oscillatory integral
    of F against e^{-i sqrt(lam) s}.
    """
    grid = np.asarray(grid, dtype=float)
    return TimeTrace(grid, duhamel_batch(_envelope(F, grid), [lam], grid)[0])


def _envelope(F, grid):
    if isinstance(F, TimeTrace):
        return F.sample(grid)
    return np.asarray(F, dtype=float)


def _coerce_amplitude(f):
    if isinstance(f, SeparableAmplitude):
        return f
    if isinstance(f, SpatialField):
        return SeparableAmplitude.from_field(f)
    return SeparableAmplitude.from_expr(f)


def solve_with_initial_data(basis, phi, psi, F, grid):
    """Modes of u_tt = -A u + F with u(0) = phi, u_t(0) = psi.

    F may be None, a SeparableAmplitude (pure space-time forcing), or a list
    of per-mode TimeTrace envelopes.
    """
    grid = np.asarray(grid, dtype=float)
    phic = basis.project(phi) if phi is not None else np.zeros(basis.M)
    psic = basis.project(psi) if psi is not None else np.zeros(basis.M)

    roots = np.sqrt(basis.eigenvalues)[:, None]
    coeffs = phic[:, None] * np.cos(roots * grid) \
        + psic[:, None] / roots * np.sin(roots * grid)
    if F is not None:
        if isinstance(F, (SeparableAmplitude, SpatialField, str, sympy.Expr)):
            F = _coerce_amplitude(F).mode_traces(basis, grid)
        fm = [_envelope(tr, grid) for tr in F]
        if len(fm) != basis.M:
            raise ValueError("need one forcing trace per mode")
        coeffs = coeffs + duhamel_batch(np.array(fm), basis.eigenvalues, grid)
    return SpaceTimeField(basis, grid, coeffs)


def solve_direct(basis, f, r, omega, T=None, grid=None,
                 points_per_period=32, n_tau=256):
    """Solve the zero-data problem driven by f(x,t) * r(t, omega t).

    The drive is split into its slow mean and fast harmonics; every harmonic k
    contributes sideband components at phase rates +-k*omega - sqrt(lam_m),
    all integrated with the oscillatory product rule in one batched pass.
    The grid must resolve the fast period (at least MIN_POINTS_PER_PERIOD
    nodes per period).
    """
    omega = float(omega)
    if not math.isfinite(omega) or omega <= 0:
        raise ValueError("omega must be positive and finite")
    if grid is None:
        if T is None:
            raise ValueError("give either T or an explicit grid")
        grid = make_time_grid(T, omega=omega, points_per_period=points_per_period)
    else:
        grid = np.asarray(grid, dtype=float)
        check_resolution(grid, omega)

    amp = _coerce_amplitude(f)
    src = split_source(r, grid, n_tau=n_tau)
    if src.grid.size != grid.size or not np.allclose(src.grid, grid,
                                                     rtol=0, atol=1e-13):
        src = src.resample(grid)
    fm = amp.mode_traces(basis, grid)
    # cos = (e^{+} + e^{-})/2, sin = (e^{+} - e^{-})/2i
    drive = [(0.0, 1.0, src.r0.values)]
    for k, kind, c in src.r1.terms:
        a = 0.5 if kind == "cos" else -0.5j
        drive += [(k * omega, a, c.values),
                  (-k * omega, a.conjugate(), c.values)]
    coeffs = duhamel_batch(np.array([tr.values for tr in fm]),
                           basis.eigenvalues, grid, drive)

    fmax = np.array([tr.max_abs for tr in fm])
    tail = float(fmax[-1] / fmax.max()) if fmax.max() > 0 else 0.0
    meta = {"omega": omega, "points_per_period": points_per_period,
            "mode_tail_ratio": tail}
    return SpaceTimeField(basis, grid, coeffs, meta=meta)
