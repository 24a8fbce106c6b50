"""Dirichlet eigenbases, spatial fields, and projection/synthesis.

Supported geometries: an interval with the analytic sine basis, a rectangle
with the tensor-product sine basis (eigenvalues sorted ascending, ties broken
lexicographically by multi-index), and a 1-D Sturm-Liouville operator
-(a u')' + c u solved by Chebyshev collocation (L. N. Trefethen, Spectral
Methods in MATLAB, SIAM 2000, chs. 6, 7 and 9): its modes are polynomials
kept by their values at Chebyshev-Lobatto nodes.

Eigenvalues are those of the positive operator (minus the spatial operator of
the wave equation), so mode dynamics are cos(sqrt(lam) t) / sin(sqrt(lam) t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import sympy

from . import chebyshev, expressions
from .expressions import SPACE_SYMBOLS, X
from .quadrature import gauss_panel_rule
from .traces import Grid, TimeTrace

__all__ = [
    "EigenBasis", "SpatialField", "SeparableAmplitude", "BoundaryTraceReport",
    "build_dirichlet_interval_basis", "build_rectangle_basis",
    "build_sturm_liouville_basis", "check_boundary_traces", "panel_count",
    "separable_sum",
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
    """A Sturm-Liouville coefficient (number, string or sympy) as an
    expression in x; TypeError for anything else."""
    if isinstance(obj, (int, float)):
        return sympy.Float(float(obj))
    if isinstance(obj, (str, sympy.Expr)):
        return expressions.parse(obj, allowed=(X,))
    raise TypeError(f"a Sturm-Liouville coefficient is a number or an "
                    f"expression in x, got {type(obj).__name__}")


@dataclass(eq=False)
class EigenBasis:
    """Finite Dirichlet eigenbasis with a quadrature rule exact for mode products.

    A Sturm-Liouville basis also holds its M modes as one Chebyshev table
    over [0, L] (``sl_modes``, values zero at both ends) and the operator's
    coefficients as expressions in x.
    """

    kind: str
    lengths: tuple
    eigenvalues: np.ndarray
    mode_index: tuple
    nodes: np.ndarray
    weights: np.ndarray
    sl_modes: chebyshev.Table | None = None    # (n, M) values on [0, L]
    operator_a: sympy.Expr | None = None       # SL coefficients
    operator_c: sympy.Expr | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def M(self):
        return int(self.eigenvalues.size)

    @property
    def dim(self):
        return len(self.lengths)

    # -- eigenfunction evaluation --------------------------------------

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
        return self.sl_modes(np.ravel(pts)).T

    def point_weights(self, x0):
        """Eigenfunction values y_m(x0) at one observation point, shape (M,).

        Raises ValueError when x0 is None, non-finite, or of a length other
        than the basis dimension.
        """
        return self.eval_modes(_observation_points(x0, self.dim)).ravel()

    def _kept_modes(self, key, points):
        """eval_modes(points), formed once per basis and key; read-only."""
        mat = self._cache.get(key)
        if mat is None:
            mat = self._cache[key] = self.eval_modes(points)
            mat.setflags(write=False)
        return mat

    def modes_at_nodes(self):
        """Mode values at the quadrature nodes, shape (M, n_nodes)."""
        return self._kept_modes("nodes", self.nodes)

    def modes_at_samples(self, n_total=64):
        """Mode values at ``interior_sample_points(n_total)``, shape
        (M, n_points)."""
        return self._kept_modes(("samples", n_total),
                                self.interior_sample_points(n_total))

    # -- projection / synthesis ----------------------------------------

    def values_at_nodes(self, obj):
        """A SpatialField's values at the quadrature nodes, or an array of
        them checked for length."""
        if isinstance(obj, SpatialField):
            return obj.evaluate(self.nodes)
        vals = np.asarray(obj, dtype=float)
        if vals.shape[0] != self.nodes.shape[0]:
            raise ValueError("node value array has the wrong length")
        return vals

    def project(self, obj):
        vals = self.values_at_nodes(obj)
        return self.modes_at_nodes() @ (self.weights * vals)

    def synthesize(self, coeffs, points):
        """sum_m coeffs[..., m] y_m at the points; the basis's own nodes
        read the modes kept by ``modes_at_nodes``."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1] != self.M:
            raise ValueError("coefficient vector length differs from M")
        if points is self.nodes:
            return coeffs @ self.modes_at_nodes()
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


def panel_count(max_index):
    """Gauss panels along an axis whose modes go up to index max_index:
    enough to keep products of the first 2 max_index modes exact to ~1e-12."""
    return max(4, 2 * max_index)


def separable_sum(coeffs, factors):
    """sum_i coeffs[i, m] factors[i] for (n_terms, M) coeffs and factors of
    n_terms rows, shape (M,) + factors.shape[1:].  One term is an outer
    product: the same numbers, without numpy's slow matmul of inner size 1."""
    if len(coeffs) == 1:
        return np.multiply.outer(coeffs[0], factors[0])
    return coeffs.T @ factors


def build_dirichlet_interval_basis(length, M):
    """Sine basis on (0, length): lam_m = (m*pi/length)^2."""
    L = float(length)
    if L <= 0 or M < 1:
        raise ValueError("need positive length and at least one mode")
    idx = tuple(range(1, M + 1))
    lam = (np.array(idx, dtype=float) * np.pi / L) ** 2
    nodes, weights = gauss_panel_rule(0.0, L, panel_count(M))
    return EigenBasis("interval", (L,), lam, idx, nodes, weights)


def build_rectangle_basis(lengths, M):
    """Tensor-product sine basis on a rectangle, first M eigenvalues."""
    lengths = tuple(float(L) for L in lengths)
    if len(lengths) != 2:
        raise ValueError("rectangle bases are two-dimensional")
    if any(L <= 0 for L in lengths) or M < 1:
        raise ValueError("need positive lengths and at least one mode")
    # every (i, j) up to max(2, M) each, sorted by (lam, i, j); float_power
    # is libm's pow, so lam is bitwise that of the scalar formula
    ax = np.arange(1, max(2, M) + 1)
    i, j = (g.ravel() for g in np.meshgrid(ax, ax, indexing="ij"))
    lam = np.float_power(i * np.pi / lengths[0], 2) \
        + np.float_power(j * np.pi / lengths[1], 2)
    chosen = np.lexsort((j, i, lam))[:M]
    lam, i, j = lam[chosen], i[chosen], j[chosen]
    idx = tuple(zip(i.tolist(), j.tolist()))
    bmax = [int(i.max()), int(j.max())]
    rules = [gauss_panel_rule(0.0, lengths[d], panel_count(bmax[d]))
             for d in range(2)]
    n1, w1 = rules[0]
    n2, w2 = rules[1]
    g1, g2 = np.meshgrid(n1, n2, indexing="ij")
    nodes = np.column_stack([g1.ravel(), g2.ravel()])
    weights = np.outer(w1, w2).ravel()
    return EigenBasis("rectangle", lengths, lam, idx, nodes, weights)


def _sl_collocation(a_expr, c_expr, L, n, M):
    """The M eigenvalues of least real part of -(a u')' + c u collocated on
    the n Chebyshev-Lobatto points of [0, L], with the Dirichlet rows and
    columns removed, and their eigenvectors as (n, M) node values, zero at
    both ends.  The operator is -D diag(a) D + diag(c) with D the
    differentiation matrix, so a is sampled and never differentiated."""
    x = chebyshev.points(0.0, L, n)
    with np.errstate(all="ignore"):      # a non-finite value is refused below
        a_vals = expressions.evaluate(a_expr, x=x)
        c_vals = expressions.evaluate(c_expr, x=x[1:-1])
    if not (np.all(np.isfinite(a_vals)) and np.min(a_vals) > 0.0):
        raise ValueError("diffusion coefficient must be finite and strictly "
                         "positive")
    if not (np.all(np.isfinite(c_vals)) and np.min(c_vals) >= -1e-12):
        raise ValueError("potential must be finite and nonnegative")
    D = (2.0 / L) * chebyshev.differentiation_matrix(n)
    op = -(D[1:-1] * a_vals) @ D[:, 1:-1]
    op[np.diag_indices(n - 2)] += c_vals
    lam, vec = np.linalg.eig(op)
    keep = np.argsort(lam.real, kind="stable")[:M]
    values = np.zeros((n, M))
    values[1:-1] = vec[:, keep].real
    return lam[keep], values


def build_sturm_liouville_basis(a, c, length, M, grid_n=2000):
    """First M Dirichlet eigenpairs of -(a u')' + c u on (0, length).

    a and c are numbers or expressions in x (text or sympy); any other type
    raises TypeError.  The operator is collocated on 17, 33, 65, ...
    Chebyshev-Lobatto points of [0, length] (the first set with more than
    M interior points, then doubling).  The doubling stops at the first set
    of n points whose first M eigenvalues agree with the previous set's to
    eps n^2 relative and are real to the same floor: the rounding floor of
    collocation grows as n^2, so the rule stops where truncation meets
    rounding.  That set is kept, since its modes resolve more than the
    eigenvalues' agreement shows.  grid_n caps the node count: when no two
    sets of at most grid_n points agree, ValueError.

    Each mode is the polynomial through its node values (zero at both
    ends), with u'(0) > 0 and unit L2 norm.  The quadrature rule is
    Clenshaw-Curtis on the interior points of the 2n - 1 set, exact for
    products of two modes; the ends carry no weight, since every mode
    vanishes there.
    """
    L = float(length)
    if not L > 0 or M < 1:
        raise ValueError("need positive length and at least one mode")
    a_expr = _as_space_expr(a)
    c_expr = _as_space_expr(c)
    n = chebyshev.N_START
    while n - 2 <= M:
        n = 2 * n - 1
    coarse = None
    while n <= grid_n:
        lam, values = _sl_collocation(a_expr, c_expr, L, n, M)
        tol = np.finfo(float).eps * n * n * np.abs(lam)
        if coarse is not None and np.all(np.abs(lam - coarse) <= tol) \
                and np.all(np.abs(lam.imag) <= tol):
            break
        coarse = lam
        n = 2 * n - 1
    else:
        raise ValueError(f"the first {M} Sturm-Liouville eigenvalues do not "
                         f"converge on at most grid_n={grid_n} nodes")
    m = 2 * n - 1
    quad = chebyshev.points(0.0, L, m)[1:-1]
    weights = (0.5 * L) * chebyshev.clenshaw_curtis(m)[1:-1]
    modes = chebyshev.Table(0.0, L, values)
    # the first interior node lies before a converged mode's first zero,
    # so its sign is that of u'(0)
    modes.values *= np.sign(values[1]) / np.sqrt(weights @ modes(quad) ** 2)
    return EigenBasis(
        "sturm_liouville", (L,), lam.real, tuple(range(1, M + 1)),
        quad, weights, sl_modes=modes, operator_a=a_expr, operator_c=c_expr)


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

    def evaluate(self, points):
        pts = np.asarray(points, dtype=float)
        if self.expr is not None:
            if pts.ndim <= 1:
                vals = {"x": pts, "x1": pts}
            else:
                vals = {f"x{d + 1}": pts[:, d] for d in range(pts.shape[1])}
            return expressions.evaluate(self.expr, **vals)
        if self.coeffs is not None:
            return self.basis.synthesize(self.coeffs, pts)
        xp, yp = self.table
        if pts.ndim > 1:
            raise ValueError("tabulated fields are one-dimensional")
        if pts.size and (pts.min() < xp[0] or pts.max() > xp[-1]):
            raise ValueError(f"tabulated field covers [{xp[0]:g}, {xp[-1]:g}]"
                             " only; it is not extrapolated")
        from scipy.interpolate import CubicSpline
        return CubicSpline(xp, yp)(pts)


@dataclass(eq=False)
class SeparableAmplitude:
    """Space-time amplitude written as a sum of g_i(t) * X_i(x) terms."""

    terms: list          # of (sympy expr in t, SpatialField)
    _projections: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_expr(cls, text):
        pairs = expressions.separable_terms(text)
        return cls([(g, SpatialField(expr=xe)) for g, xe in pairs])

    @classmethod
    def from_field(cls, fld):
        return cls([(sympy.Integer(1), fld)])

    @classmethod
    def coerce(cls, f):
        """An amplitude as given, from a SpatialField or from an expression."""
        if isinstance(f, cls):
            return f
        if isinstance(f, SpatialField):
            return cls.from_field(f)
        return cls.from_expr(f)

    @property
    def time_invariant(self):
        return all(not g.free_symbols for g, _ in self.terms)

    def term_coefficients(self, basis):
        """Projection of each space factor, shape (n_terms, M): formed once
        per basis and kept on the amplitude, read-only."""
        c = self._projections.get(basis)
        if c is None:
            c = self._projections[basis] = np.vstack(
                [basis.project(xf) for _, xf in self.terms])
            c.setflags(write=False)
        return c

    def time_factors(self, t):
        """Sampled time factors g_i(t), shape (n_terms,) + t.shape."""
        t = np.asarray(t, dtype=float)
        return np.stack([expressions.evaluate(g, t=t) for g, _ in self.terms])

    def mode_traces(self, basis, grid):
        """Mode amplitudes f_m(t) = sum_i c_im g_i(t) at the times of a 1-D
        array, shape (M, N)."""
        return separable_sum(self.term_coefficients(basis),
                             self.time_factors(grid))

    def mode_derivatives_at_start(self, basis, order=0):
        """d^order f_m / dt^order at t = 0, m = 1..M, shape (M,).

        Only the n_terms time factors are differentiated symbolically, each
        once per order (``expressions.t_derivative_at``), which refuses a
        factor with no finite derivative there (1/t or t^0.5).
        """
        dg = [expressions.t_derivative_at(g, order, 0.0)
              for g, _ in self.terms]
        return np.array(dg) @ self.term_coefficients(basis)

    def at_point(self, x0, grid):
        """Trace of the amplitude at a fixed spatial point.

        The values are those of evaluate at x0, sampled through the compiled
        time factors; the expression sum_i X_i(x0) g_i(t) is attached as it
        stands, so a new x0 compiles nothing and the trace still resamples
        exactly.  x0 is checked as in EigenBasis.point_weights, with the
        dimension taken from its own length.  The grid is a ``Grid`` or its
        nodes.
        """
        pts = _observation_points(x0, np.size(x0))
        grid = Grid.of(grid)
        expr = sympy.Add(*(
            sympy.Float(float(np.ravel(xf.evaluate(pts))[0])) * g
            for g, xf in self.terms))
        return TimeTrace(grid, self.evaluate(pts, grid.nodes)[:, 0], expr=expr)

    def values_at_point(self, x0, t):
        """f(x0, t) at the times of a 1-D array t (any spacing), through the
        compiled time factors; x0 is checked as in at_point."""
        return self.evaluate(_observation_points(x0, np.size(x0)), t)[:, 0]

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
            out = -sympy.diff(basis.operator_a * sympy.diff(out, X), X) \
                + basis.operator_c * out
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
            f2 = SpatialField(expr=_apply_operator(fld.expr, basis, j))
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
