"""Dirichlet eigenbases, spatial fields, and projection/synthesis.

Supported geometries: an interval with the analytic sine basis, a rectangle
with the tensor-product sine basis (eigenvalues sorted ascending, ties broken
lexicographically by multi-index), and a 1-D Sturm-Liouville operator
-(a u')' + c u discretized with the symmetric three-point flux stencil.

Eigenvalues are those of the positive operator (minus the spatial operator of
the wave equation), so mode dynamics are cos(sqrt(lam) t) / sin(sqrt(lam) t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import sympy

from . import expressions
from .expressions import SPACE_SYMBOLS, T, X
from .quadrature import gauss_panel_rule
from .traces import TimeTrace

__all__ = [
    "EigenBasis", "SpatialField", "SeparableAmplitude", "BoundaryTraceReport",
    "build_dirichlet_interval_basis", "build_rectangle_basis",
    "build_sturm_liouville_basis", "check_boundary_traces",
]

BOUNDARY_POINTS_PER_EDGE = 9    # rectangle edge samples of boundary_points
BOUNDARY_TOL = 1e-8             # boundary sup allowed per unit interior sup


def _observation_points(x0, dim):
    """x0 as the point array eval_modes takes; ValueError unless x0 is dim
    finite numbers."""
    if x0 is None:
        raise ValueError("no observation point x0 given")
    x0a = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0a.shape != (dim,) or not np.all(np.isfinite(x0a)):
        raise ValueError(f"observation point x0 must be {dim} finite "
                         f"number(s), got {x0!r}")
    return x0a.reshape(1, -1) if dim > 1 else x0a


def _as_space_expr(obj):
    """Coerce a coefficient descriptor (number, string, sympy) to an expr in x."""
    if obj is None:
        return None
    if isinstance(obj, (int, float)):
        return sympy.Float(float(obj))
    if isinstance(obj, (str, sympy.Expr)):
        return expressions.parse(obj, allowed=(X,))
    return None


@dataclass(eq=False)
class EigenBasis:
    """Finite Dirichlet eigenbasis with a quadrature rule exact for mode products."""

    kind: str
    lengths: tuple
    eigenvalues: np.ndarray
    mode_index: tuple
    nodes: np.ndarray
    weights: np.ndarray
    sl_grid: np.ndarray | None = None
    sl_values: np.ndarray | None = None        # (M, n_interior) eigenfunction samples
    operator_a: object = None                  # SL coefficients (expr or callable)
    operator_c: object = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def M(self):
        return int(self.eigenvalues.size)

    @property
    def dim(self):
        return len(self.lengths)

    # -- eigenfunction evaluation --------------------------------------

    def _sl_spline(self):
        """One cubic spline through every mode's samples and the zero
        boundary values, evaluating to shape (M, n_points)."""
        spline = self._cache.get("sl_spline")
        if spline is None:
            from scipy.interpolate import CubicSpline
            xs = np.concatenate(([0.0], self.sl_grid, [self.lengths[0]]))
            ys = np.pad(self.sl_values, ((0, 0), (1, 1)))
            spline = CubicSpline(xs, ys, axis=1)
            self._cache["sl_spline"] = spline
        return spline

    def eval_modes(self, points):
        """Matrix of eigenfunction values, shape (M, n_points)."""
        pts = np.asarray(points, dtype=float)
        if self.kind == "interval":
            L = self.lengths[0]
            idx = np.asarray(self.mode_index, dtype=float)
            return np.sqrt(2.0 / L) * np.sin(np.outer(idx * np.pi / L, pts))
        if self.kind == "rectangle":
            if pts.ndim != 2 or pts.shape[1] != self.dim:
                raise ValueError(f"points must have shape (n, {self.dim})")
            out = np.ones((self.M, pts.shape[0]))
            idx = np.asarray(self.mode_index, dtype=float)
            for d, L in enumerate(self.lengths):
                out *= np.sqrt(2.0 / L) * np.sin(
                    np.outer(idx[:, d] * np.pi / L, pts[:, d]))
            return out
        return self._sl_spline()(np.ravel(pts))

    def point_weights(self, x0):
        """Eigenfunction values y_m(x0) at one observation point, shape (M,).

        Raises ValueError when x0 is None, non-finite, or of a length other
        than the basis dimension.
        """
        return self.eval_modes(_observation_points(x0, self.dim)).ravel()

    def modes_at_nodes(self):
        mat = self._cache.get("modes_at_nodes")
        if mat is None:
            if self.kind == "sturm_liouville":
                mat = self.sl_values
            else:
                mat = self.eval_modes(self.nodes)
            self._cache["modes_at_nodes"] = mat
        return mat

    # -- projection / synthesis ----------------------------------------

    def values_at_nodes(self, obj):
        if isinstance(obj, SpatialField):
            return obj.evaluate(self.nodes, basis=self)
        if callable(obj):
            if self.dim == 1:
                return np.asarray(obj(self.nodes), dtype=float)
            return np.asarray(obj(*(self.nodes[:, d] for d in range(self.dim))),
                              dtype=float)
        vals = np.asarray(obj, dtype=float)
        if vals.shape[0] != self.nodes.shape[0]:
            raise ValueError("node value array has the wrong length")
        return vals

    def project(self, obj):
        vals = self.values_at_nodes(obj)
        return self.modes_at_nodes() @ (self.weights * vals)

    def synthesize(self, coeffs, points):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1] != self.M:
            raise ValueError("coefficient vector length differs from M")
        return coeffs @ self.eval_modes(points)

    def gram_matrix(self):
        mat = self.modes_at_nodes()
        return (mat * self.weights) @ mat.T

    # -- geometry --------------------------------------------------------

    def boundary_points(self):
        if self.dim == 1:
            return np.array([0.0, self.lengths[0]])
        L1, L2 = self.lengths
        s1 = np.linspace(0.0, L1, BOUNDARY_POINTS_PER_EDGE)
        s2 = np.linspace(0.0, L2, BOUNDARY_POINTS_PER_EDGE)
        pts = []
        for v in (0.0, L2):
            pts.append(np.column_stack([s1, np.full_like(s1, v)]))
        for v in (0.0, L1):
            pts.append(np.column_stack([np.full_like(s2, v), s2]))
        return np.vstack(pts)

    def interior_sample_points(self, n_total=64):
        """Deterministic interior points for sup-norm sampling."""
        if self.dim == 1:
            L = self.lengths[0]
            return np.linspace(0.0, L, n_total + 2)[1:-1]
        per_dim = max(2, int(round(n_total ** (1.0 / self.dim))))
        axes = [np.linspace(0.0, L, per_dim + 2)[1:-1] for L in self.lengths]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])


def build_dirichlet_interval_basis(length, M):
    """Sine basis on (0, length): lam_m = (m*pi/length)^2."""
    L = float(length)
    if L <= 0 or M < 1:
        raise ValueError("need positive length and at least one mode")
    idx = tuple(range(1, M + 1))
    lam = (np.array(idx, dtype=float) * np.pi / L) ** 2
    # panel count keeps products of the first 2M modes exact to ~1e-12
    nodes, weights = gauss_panel_rule(0.0, L, max(4, 2 * M))
    return EigenBasis("interval", (L,), lam, idx, nodes, weights)


def build_rectangle_basis(lengths, M):
    """Tensor-product sine basis on a rectangle, first M eigenvalues."""
    lengths = tuple(float(L) for L in lengths)
    if len(lengths) != 2:
        raise ValueError("rectangle bases are two-dimensional")
    if any(L <= 0 for L in lengths) or M < 1:
        raise ValueError("need positive lengths and at least one mode")
    cap = max(2, M)
    cand = []
    for i in range(1, cap + 1):
        for j in range(1, cap + 1):
            lam = (i * np.pi / lengths[0]) ** 2 + (j * np.pi / lengths[1]) ** 2
            cand.append((lam, (i, j)))
    cand.sort(key=lambda c: (c[0], c[1]))
    chosen = cand[:M]
    lam = np.array([c[0] for c in chosen])
    idx = tuple(c[1] for c in chosen)
    bmax = [max(ix[d] for ix in idx) for d in range(2)]
    rules = [gauss_panel_rule(0.0, lengths[d], max(4, 2 * bmax[d]))
             for d in range(2)]
    n1, w1 = rules[0]
    n2, w2 = rules[1]
    g1, g2 = np.meshgrid(n1, n2, indexing="ij")
    nodes = np.column_stack([g1.ravel(), g2.ravel()])
    weights = np.outer(w1, w2).ravel()
    return EigenBasis("rectangle", lengths, lam, idx, nodes, weights)


def build_sturm_liouville_basis(a, c, length, M, grid_n=2000):
    """First M Dirichlet eigenpairs of -(a u')' + c u on (0, length).

    The operator is assembled with the symmetric flux stencil
    (a_{i+1/2} differences) on a uniform grid of grid_n cells, so eigenvalues
    and eigenfunctions converge at second order in the cell width.
    """
    L = float(length)
    n = int(grid_n)
    if n < 8:
        raise ValueError("grid_n too small")
    if M >= n - 1:
        raise ValueError("requested more modes than interior grid points")
    h = L / n
    x_int = h * np.arange(1, n)
    x_half = h * (np.arange(n) + 0.5)

    a_expr = _as_space_expr(a)
    c_expr = _as_space_expr(c)

    def _eval(expr_or_fn, pts, default):
        if expr_or_fn is None:
            return np.full_like(pts, default)
        if isinstance(expr_or_fn, sympy.Expr):
            return expressions.evaluate(expr_or_fn, x=pts)
        return np.asarray(expr_or_fn(pts), dtype=float)

    a_half = _eval(a_expr if a_expr is not None else a, x_half, 1.0)
    c_int = _eval(c_expr if c_expr is not None else c, x_int, 0.0)
    if np.min(a_half) <= 0.0:
        raise ValueError("diffusion coefficient must be strictly positive")
    if np.min(c_int) < -1e-12:
        raise ValueError("potential must be nonnegative")

    diag = (a_half[:-1] + a_half[1:]) / h ** 2 + c_int
    off = -a_half[1:-1] / h ** 2
    from scipy.linalg import eigh_tridiagonal
    lam, vec = eigh_tridiagonal(diag, off, select="i", select_range=(0, M - 1))

    ys = vec.T / np.sqrt(h)          # discrete L2 normalization
    for row in ys:
        k = int(np.argmax(np.abs(row)))
        if row[k] < 0:
            row *= -1.0
    return EigenBasis(
        "sturm_liouville", (L,), np.asarray(lam), tuple(range(1, M + 1)),
        x_int, np.full_like(x_int, h), sl_grid=x_int, sl_values=ys,
        operator_a=a_expr if a_expr is not None else a,
        operator_c=c_expr if c_expr is not None else c)


@dataclass(eq=False)
class SpatialField:
    """A spatial function given analytically, by mode coefficients, or tabulated."""

    expr: sympy.Expr | None = None
    coeffs: np.ndarray | None = None
    basis: EigenBasis | None = None
    table: tuple | None = None          # 1-D (points, values)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        forms = [self.expr is not None, self.coeffs is not None,
                 self.table is not None]
        if sum(forms) != 1:
            raise ValueError("exactly one of expr, coeffs, table must be given")
        if self.expr is not None and not isinstance(self.expr, sympy.Expr):
            self.expr = expressions.parse(self.expr, allowed=SPACE_SYMBOLS)
        if self.coeffs is not None:
            self.coeffs = np.asarray(self.coeffs, dtype=float)
            if self.basis is None:
                raise ValueError("coefficient fields need their basis")
        if self.table is not None:
            pts, vals = self.table
            self.table = (np.asarray(pts, dtype=float),
                          np.asarray(vals, dtype=float))

    @classmethod
    def from_expr(cls, text):
        return cls(expr=expressions.parse(text, allowed=SPACE_SYMBOLS))

    def evaluate(self, points, basis=None):
        pts = np.asarray(points, dtype=float)
        if self.expr is not None:
            if pts.ndim <= 1:
                vals = {"x": pts, "x1": pts}
            else:
                vals = {f"x{d + 1}": pts[:, d] for d in range(pts.shape[1])}
            return expressions.evaluate(self.expr, **vals)
        if self.coeffs is not None:
            b = self.basis or basis
            return b.synthesize(self.coeffs, pts)
        xp, yp = self.table
        if pts.ndim > 1:
            raise ValueError("tabulated fields are one-dimensional")
        if pts.size and (pts.min() < xp[0] or pts.max() > xp[-1]):
            raise ValueError(f"tabulated field covers [{xp[0]:g}, {xp[-1]:g}]"
                             " only; it is not extrapolated")
        from scipy.interpolate import CubicSpline
        return CubicSpline(xp, yp)(pts)

    def __call__(self, points):
        return self.evaluate(points)


@dataclass(eq=False)
class SeparableAmplitude:
    """Space-time amplitude written as a sum of g_i(t) * X_i(x) terms."""

    terms: list          # of (sympy expr in t, SpatialField)

    @classmethod
    def from_expr(cls, text):
        pairs = expressions.separable_terms(text)
        return cls([(g, SpatialField(expr=xe)) for g, xe in pairs])

    @classmethod
    def from_field(cls, fld):
        return cls([(sympy.Integer(1), fld)])

    @property
    def time_invariant(self):
        return all(not g.free_symbols for g, _ in self.terms)

    def term_coefficients(self, basis):
        """Projection of each space factor, shape (n_terms, M)."""
        return np.vstack([basis.project(xf) for _, xf in self.terms])

    def time_factors(self, t):
        """Sampled time factors g_i(t), shape (n_terms,) + t.shape."""
        t = np.asarray(t, dtype=float)
        return np.stack([expressions.evaluate(g, t=t) for g, _ in self.terms])

    def mode_traces(self, basis, grid):
        """Mode amplitudes f_m(t) = sum_i c_im g_i(t) on the grid, shape (M, N)."""
        return self.term_coefficients(basis).T @ self.time_factors(grid)

    def mode_derivatives_at_start(self, basis, order=0):
        """d^order f_m / dt^order at t = 0, m = 1..M, shape (M,).

        Only the n_terms time factors are differentiated symbolically.
        """
        dg = [float(sympy.diff(g, T, order).subs(T, 0)) for g, _ in self.terms]
        return np.array(dg) @ self.term_coefficients(basis)

    def at_point(self, x0, grid):
        """Trace of the amplitude at a fixed spatial point.

        x0 is checked as in EigenBasis.point_weights, with the dimension
        taken from its own length.
        """
        pts = _observation_points(x0, np.size(x0))
        e = sympy.Integer(0)
        for g, xf in self.terms:
            e = e + sympy.Float(float(np.asarray(xf.evaluate(pts)).ravel()[0])) * g
        return TimeTrace.from_expr(sympy.expand(e), grid)

    def evaluate(self, points, t_grid):
        """Values on a (time, space) grid, shape (len(t_grid), n_points)."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros((np.size(t_grid), pts.shape[0]))
        for gv, (_, xf) in zip(self.time_factors(t_grid), self.terms):
            out += np.outer(gv, xf.evaluate(pts))
        return out


@dataclass(frozen=True)
class BoundaryTraceReport:
    """Boundary sup-values of a field and its images under the operator."""

    orders: tuple
    sup_boundary: tuple
    scales: tuple
    tol: float
    passed: bool
    note: str = ""


def _apply_operator(expr, basis, times):
    """Symbolic (positive operator)^times applied to an expression field."""
    out = expr
    for _ in range(times):
        if basis.kind == "sturm_liouville":
            a = basis.operator_a
            c = basis.operator_c
            if not isinstance(a, sympy.Expr) or (
                    c is not None and not isinstance(c, (sympy.Expr, type(None)))):
                raise ValueError("symbolic operator powers need expression "
                                 "coefficients")
            cexpr = c if isinstance(c, sympy.Expr) else sympy.Integer(0)
            out = -sympy.diff(a * sympy.diff(out, X), X) + cexpr * out
        else:
            out = -sum(sympy.diff(out, s, 2) for s in SPACE_SYMBOLS)
    return sympy.expand(out)


def check_boundary_traces(fld, basis, orders=1):
    """Report boundary values of A^j(field) for j = 0..orders.

    Each passes when its boundary sup is at most BOUNDARY_TOL times its
    interior sup (floored at 1).

    Fields in the admissible class vanish on the boundary together with their
    operator images; the report flags how well a concrete field does.
    Tabulated fields only support j = 0.
    """
    bpts = basis.boundary_points()
    sup_b, scales, done = [], [], []
    for j in range(orders + 1):
        if fld.coeffs is not None:
            scaled = fld.coeffs * basis.eigenvalues ** j
            bv = basis.synthesize(scaled, bpts)
            iv = basis.synthesize(scaled, basis.nodes)
        elif fld.expr is not None:
            try:
                ej = _apply_operator(fld.expr, basis, j)
            except ValueError:
                break
            f2 = SpatialField(expr=ej)
            bv = f2.evaluate(bpts)
            iv = f2.evaluate(basis.nodes)
        else:
            if j > 0:
                break
            bv = fld.evaluate(bpts)
            iv = fld.evaluate(basis.nodes)
        sup_b.append(float(np.max(np.abs(bv))))
        scales.append(max(1.0, float(np.max(np.abs(iv)))))
        done.append(j)
    passed = all(s <= BOUNDARY_TOL * sc for s, sc in zip(sup_b, scales))
    note = "" if len(done) == orders + 1 else \
        f"operator powers beyond {done[-1] if done else 0} unavailable for this field"
    return BoundaryTraceReport(tuple(done), tuple(sup_b), tuple(scales),
                               BOUNDARY_TOL, bool(passed), note)
