"""Spectral forward solver for u_tt = -A u + f(x,t) r(t, omega t).

Each mode coefficient obeys a_m'' + lam_m a_m = F_m(t) with zero initial
data, solved in closed form through Duhamel integrals.  The integrals
are evaluated with the cumulative oscillatory product rule at the phase rate
of each drive component (the slow mean plus k*omega sidebands per harmonic),
all modes and components in one batched kernel, so accuracy is set by
envelope smoothness, not by omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import EigenBasis, SeparableAmplitude
from .chebyshev import STOP_TOL
from .quadrature import duhamel_batch
from .sources import N_TAU, split_source
from .traces import Grid, TimeTrace, uniform_grid

__all__ = [
    "UnderResolvedError", "SpaceTimeField",
    "make_time_grid", "check_resolution", "solve_direct",
]

MIN_POINTS_PER_PERIOD = 16


class UnderResolvedError(ValueError):
    """Time grid too coarse for the requested fast frequency."""


def make_time_grid(t_end, omega, points_per_period=32):
    """Uniform grid on [0, t_end] resolving the fast period 2*pi/omega."""
    if t_end <= 0:
        raise ValueError("final time must be positive")
    if points_per_period < MIN_POINTS_PER_PERIOD:
        raise UnderResolvedError(
            f"points_per_period={points_per_period} is below the minimum "
            f"{MIN_POINTS_PER_PERIOD}")
    h_max = 2.0 * np.pi / (float(omega) * points_per_period)
    n = int(np.ceil(t_end / h_max))
    return uniform_grid(t_end, n)


def check_resolution(grid, omega):
    """Reject grids with fewer than MIN_POINTS_PER_PERIOD nodes per fast period."""
    h = Grid.of(grid).h
    limit = 2.0 * np.pi / (float(omega) * MIN_POINTS_PER_PERIOD)
    if h > limit * (1.0 + 1e-12):
        raise UnderResolvedError(
            f"time step {h:.3e} exceeds {limit:.3e} = (2*pi/omega)/"
            f"{MIN_POINTS_PER_PERIOD} at omega={omega}")


@dataclass(eq=False)
class SpaceTimeField:
    """Mode-coefficient traces of a space-time function on a shared time
    grid, the ``Grid`` axis; ``grid`` is its node array."""

    basis: EigenBasis
    axis: Grid
    coeffs: np.ndarray            # (M, n_time)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.axis = Grid.of(self.axis)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.M, self.axis.n + 1):
            raise ValueError("coefficient array must be (M, n_time)")

    @property
    def grid(self):
        return self.axis.nodes

    def evaluate(self, points):
        """Values u(t_i, x_j), shape (n_time, n_points)."""
        return self.coeffs.T @ self.basis.eval_modes(points)

    def trace_at(self, x0):
        return TimeTrace(self.axis,
                         self.coeffs.T @ self.basis.point_weights(x0))

    def every(self, stride):
        """The field on the nodes of ``Grid.every(stride)``, its
        coefficients a view of this field's."""
        axis = self.axis.every(stride)
        kept = round(axis.h / self.axis.h)      # the stride every took
        return SpaceTimeField(self.basis, axis, self.coeffs[:, ::kept],
                              meta=dict(self.meta))

    def subsample(self, n_out):
        """Coarse copy on at least n_out nodes, where the grid has them, and
        on its final time: every stride-th node, the stride the largest
        divisor of the interval count n up to n // max(2, n_out - 1)."""
        n = self.axis.n
        top = max(1, n // max(2, n_out - 1))
        stride = max(d for d in range(1, top + 1) if n % d == 0)
        coarse = self.every(stride)
        return SpaceTimeField(self.basis, coarse.axis, coarse.coeffs.copy(),
                              meta=dict(self.meta, subsampled_stride=stride))


def solve_direct(basis, f, r, omega, T=None, grid=None,
                 points_per_period=32, n_tau=N_TAU):
    """Solve the zero-data problem driven by f(x,t) * r(t, omega t).

    The drive is split into its slow mean and fast harmonics; every harmonic k
    contributes sideband components at phase rates +-k*omega - sqrt(lam_m),
    all integrated with the oscillatory product rule in one batched pass.
    The grid must resolve the fast period (at least MIN_POINTS_PER_PERIOD
    nodes per period).

    Only the modes the forcing reaches are integrated: those with
    fmax_m = max_t |f_m(t)| above chebyshev.STOP_TOL * max_m fmax_m.  A
    skipped mode's coefficients are exact zeros; its true response obeys
    |a_m| <= T fmax_m max|r| / r_m <= STOP_TOL T max|r| max_m fmax_m / r_1,
    r_m = sqrt(lam_m) and r_1 the smallest.  When every mode is forced,
    all of them go to ``duhamel_batch`` in one call, as they are.
    """
    omega = float(omega)
    if not math.isfinite(omega) or omega <= 0:
        raise ValueError("omega must be positive and finite")
    if grid is None:
        if T is None:
            raise ValueError("give either T or an explicit grid")
        grid = make_time_grid(T, omega=omega, points_per_period=points_per_period)
    else:
        grid = Grid.of(grid)
        check_resolution(grid, omega)

    amp = SeparableAmplitude.coerce(f)
    src = split_source(r, grid, n_tau=n_tau)
    terms = amp.term_coefficients(basis).T
    factors = amp.time_factors(grid.nodes)
    # cos = (e^{+} + e^{-})/2, sin = (e^{+} - e^{-})/2i
    drive = [(0.0, 1.0, src.r0.values)]
    for k, kind, c in src.r1.terms:
        a = 0.5 if kind == "cos" else -0.5j
        drive += [(k * omega, a, c.values),
                  (-k * omega, a.conjugate(), c.values)]

    # max_t |f_m(t)|, f_m = terms @ factors: for one time factor |terms|
    # max |g|, which rounds the same and skips numpy's slow matmul with an
    # inner size of 1; else 4096 times at a time
    if factors.shape[0] == 1:
        fmax = np.abs(terms[:, 0]) * np.abs(factors[0]).max()
    else:
        fmax = np.max([np.abs(terms @ factors[:, lo:lo + 4096]).max(axis=1)
                       for lo in range(0, grid.n + 1, 4096)], axis=0)
    live = fmax > STOP_TOL * fmax.max()
    if live.all():
        coeffs = duhamel_batch(factors, basis.eigenvalues, grid, drive,
                               coeffs=terms)
    else:
        coeffs = np.zeros((basis.M, grid.n + 1))
        coeffs[live] = duhamel_batch(factors, basis.eigenvalues[live], grid,
                                     drive, coeffs=terms[live])
    tail = float(fmax[-1] / fmax.max()) if fmax.max() > 0 else 0.0
    meta = {"omega": omega, "points_per_period": points_per_period,
            "mode_tail_ratio": tail}
    return SpaceTimeField(basis, grid, coeffs, meta=meta)
