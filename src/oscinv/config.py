"""Experiment configuration: JSON in, validated dataclasses out.

A config names the basis, the drive, the frequency sweep, grid resolutions,
tolerances, observation geometry, and output destinations.  Validation is
strict: unknown keys and under-resolved time grids are rejected up front so
runs fail before any numerics start.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import (SeparableAmplitude, SpatialField,
                    build_dirichlet_interval_basis, build_rectangle_basis,
                    build_sturm_liouville_basis, panel_count)
from .forward import MIN_POINTS_PER_PERIOD, make_time_grid
from .inverse import ObservationData
from .quadrature import PANEL_NODES
from .sources import FastProfile, OscillatorySource, split_source
from .traces import (FD_ACCURACY, Grid, TimeTrace, stencil_gain,
                     uniform_grid)

__all__ = ["ConfigError", "BasisConfig", "SourceConfig", "GridConfig",
           "ObservationConfig", "OutputConfig", "ExperimentConfig",
           "load_config", "config_from_dict", "make_basis", "make_source",
           "load_observation", "parse_x0"]

DEFAULT_TOLERANCES = {
    "slope_order2_max": -2.5,
    "slope_order0_max": -0.9,
    "r0_sup": 1e-4,
    "r1_coeff": 1e-10,
    "fm_rel": 1e-10,
    "trace_bound_factor": 10.0,
}

# cap on the mode-node entries (modes x time or space nodes) one run may
# allocate; 2**26 float64 entries are 512 MB
MAX_WORK = 2 ** 26
# nodes of the stencil phi0'' takes (TimeTrace.derivative_at, order 2)
PHI0_MIN_NODES = 2 + FD_ACCURACY


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _step_ok(h):
    """True when h**2 and 1/h**2 are finite and nonzero: phi0'' divides by
    h**2, and the product rule's weights by 2 h**2."""
    h2 = h * h
    return 0 < h2 < math.inf and 1 / h2 < math.inf


def _take(d, allowed, where):
    extra = set(d) - set(allowed)
    if extra:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(extra)}")


def _number(value, name, integral=False):
    """A JSON number as a float, or as an int when integral; ConfigError
    for a bool, for a value that is no number, and for a fraction where an
    integer is wanted."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name}={value!r} must be a number")
    if not integral:
        return float(value)
    if not float(value).is_integer():
        raise ConfigError(f"{name}={value!r} must be an integer")
    return int(value)


@contextlib.contextmanager
def _bad_data(what):
    """Report a failure to convert outside data as a one-line ConfigError;
    also a decorator for functions whose whole job is that conversion.
    numpy warns of nothing inside; a finiteness check refuses overflows."""
    try:
        with np.errstate(all="ignore"):
            yield
    except ConfigError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"bad {what}: {detail}") from None


def parse_x0(x0, lengths):
    """An observation point as a float, or a tuple of floats when given as a
    list; None when absent.  lengths are the domain's, [0, L_1] x ...,
    None if unknown; a point off the domain is refused."""
    if x0 is None:
        return None
    dim = None if lengths is None else len(lengths)
    listed = isinstance(x0, (list, tuple))
    pts = tuple(_number(v, "x0") for v in (x0 if listed else [x0]))
    if not pts or not all(map(math.isfinite, pts)) \
            or dim not in (None, len(pts)):
        raise ConfigError(f"observation point x0={x0!r} must be "
                          f"{dim or 'one or more'} finite number(s)")
    if lengths is not None and not all(
            0.0 <= v <= L for v, L in zip(pts, lengths)):
        box = " x ".join(f"[0, {L:g}]" for L in lengths)
        raise ConfigError(f"observation point x0={x0!r} lies outside the "
                          f"domain {box}")
    return pts if listed else pts[0]


def _parse_t0(t0):
    """An observation time as a positive finite float; None when absent."""
    if t0 is None:
        return None
    value = _number(t0, "t0")
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"observation time t0={t0!r} must be positive "
                          "and finite")
    return value


@dataclass(frozen=True)
class BasisConfig:
    domain: str = "interval"
    lengths: tuple = (math.pi,)
    M: int = 8
    grid_n: int = 2000
    a: object = 1.0     # Sturm-Liouville coefficients: numbers or
    c: object = 0.0     # expressions in x

    @classmethod
    def from_dict(cls, d):
        _take(d, ("domain", "lengths", "M", "grid_n", "a", "c"), "basis")
        domain = d.get("domain", cls.domain)
        if domain not in ("interval", "rectangle", "sturm_liouville"):
            raise ConfigError(f"unknown domain {domain!r}")
        sl_only = sorted({"a", "c", "grid_n"} & set(d))
        if sl_only and domain != "sturm_liouville":
            raise ConfigError(f"basis key(s) {sl_only} apply only to a "
                              f"sturm_liouville domain, not {domain}")
        lengths = tuple(_number(v, "lengths")
                        for v in d.get("lengths", cls.lengths))
        dim = 2 if domain == "rectangle" else 1
        if len(lengths) != dim:
            raise ConfigError(f"basis lengths has {len(lengths)} entries; "
                              f"a {domain} domain needs {dim}")
        if not all(math.isfinite(v) and v > 0 for v in lengths):
            raise ConfigError("domain lengths must be positive and finite")
        M = _number(d.get("M", cls.M), "M", integral=True)
        if M < 1:
            raise ConfigError("M must be at least 1")
        grid_n = _number(d.get("grid_n", cls.grid_n), "grid_n", integral=True)
        return cls(domain, lengths, M, grid_n, d.get("a", cls.a),
                   d.get("c", cls.c))


@dataclass(frozen=True)
class SourceConfig:
    f: str
    r: str | None = None                 # combined r(t, tau); or r0 + r1 parts
    r0: str | None = None
    r1: tuple = ()                       # of {"harmonic","kind","coeff"}

    @classmethod
    def from_dict(cls, d):
        _take(d, ("f", "r", "r0", "r1"), "source")
        if "f" not in d:
            raise ConfigError("source needs an amplitude expression f")
        r = d.get("r")
        r0 = d.get("r0")
        r1 = d.get("r1", cls.r1)
        if r is not None and (r0 is not None or r1):
            raise ConfigError("give either a combined r or the r0/r1 split, "
                              "not both")
        if r is None and r0 is None:
            raise ConfigError("source needs r or r0")
        terms = []
        for item in r1:
            _take(item, ("harmonic", "kind", "coeff"), "source.r1 term")
            k = _number(item["harmonic"], "harmonic", integral=True)
            kind = item["kind"]
            if k < 1 or kind not in ("cos", "sin"):
                raise ConfigError(f"bad fast term {item}")
            terms.append((k, kind, str(item["coeff"])))
        return cls(str(d["f"]), r, None if r0 is None else str(r0),
                   tuple(terms))


@dataclass(frozen=True)
class GridConfig:
    T: float = 3.0
    points_per_period: int = 32
    n_out: int = 513
    trace_h: float = 1e-3

    @classmethod
    def from_dict(cls, d):
        _take(d, ("T", "points_per_period", "n_out", "trace_h"), "grid")
        T = _number(d.get("T", cls.T), "T")
        ppp = _number(d.get("points_per_period", cls.points_per_period),
                      "points_per_period", integral=True)
        trace_h = _number(d.get("trace_h", cls.trace_h), "trace_h")
        n_out = _number(d.get("n_out", cls.n_out), "n_out", integral=True)
        if not (math.isfinite(T) and T > 0):
            raise ConfigError("T must be positive and finite")
        if not (math.isfinite(trace_h) and trace_h > 0):
            raise ConfigError("trace_h must be positive and finite")
        if n_out < 2:
            raise ConfigError(f"n_out={n_out} must be at least 2")
        if ppp < MIN_POINTS_PER_PERIOD:
            raise ConfigError(
                f"points_per_period={ppp} makes the time step exceed "
                f"(2*pi/omega)/{MIN_POINTS_PER_PERIOD}")
        return cls(T, ppp, n_out, trace_h)

    def trace_grid(self):
        """The round trips' observation grid on [0, T]: T / trace_h
        intervals, rounded to an even count."""
        return uniform_grid(self.T, int(round(self.T / self.trace_h)))


@dataclass(frozen=True)
class ObservationConfig:
    x0: object = None
    t0: float | None = None

    @classmethod
    def from_dict(cls, d):
        _take(d, ("x0", "t0"), "observation")
        return cls(parse_x0(d.get("x0"), None), _parse_t0(d.get("t0")))


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "."
    prefix: str = "run"

    @classmethod
    def from_dict(cls, d):
        _take(d, ("dir", "prefix"), "output")
        return cls(str(d.get("dir", cls.dir)),
                   str(d.get("prefix", cls.prefix)))


@dataclass(frozen=True)
class ExperimentConfig:
    """A whole config; each section's defaults are its class's, and the
    tolerances' are DEFAULT_TOLERANCES."""

    basis: BasisConfig
    source: SourceConfig
    grid: GridConfig
    observation: ObservationConfig
    output: OutputConfig
    tolerances: dict
    omegas: tuple = (100.0,)
    study: str = "order"


@_bad_data("config")
def config_from_dict(d):
    _take(d, ("basis", "source", "omega", "grid", "observation", "output",
              "tolerances", "study"), "config")
    omegas = d.get("omega", ExperimentConfig.omegas)
    if np.ndim(omegas) == 0:
        omegas = [omegas]
    omegas = tuple(_number(w, "omega") for w in omegas)
    if not omegas or not all(math.isfinite(w) and w > 0 for w in omegas):
        raise ConfigError("omega values must be positive and finite")
    if any(b <= a for a, b in zip(omegas, omegas[1:])):
        raise ConfigError("omega values must be strictly increasing")
    tol = d.get("tolerances", {})
    _take(tol, DEFAULT_TOLERANCES, "tolerances")
    tol = {k: _number(v, k) for k, v in tol.items()}
    bad = sorted(k for k, v in tol.items() if not math.isfinite(v))
    if bad:
        raise ConfigError(f"tolerance(s) {bad} must be finite numbers")
    study = d.get("study", ExperimentConfig.study)
    if study not in ("order", "roundtrip1", "roundtrip2", "roundtrip3"):
        raise ConfigError(f"unknown study kind {study!r}")
    basis = BasisConfig.from_dict(d.get("basis", {}))
    grid = GridConfig.from_dict(d.get("grid", {}))
    observation = ObservationConfig.from_dict(d.get("observation", {}))
    if study in ("roundtrip1", "roundtrip3") and observation.x0 is None:
        raise ConfigError(f"{study} needs observation.x0")
    if study != "order":
        parse_x0(observation.x0, basis.lengths)
    # preflight: forward grid at the largest omega, observation trace grid,
    # and the basis's node table, all before anything is allocated.  A
    # rectangle's largest indices b1 b2 >= M give at least
    # (2 PANEL_NODES)**2 M Gauss nodes; make_basis checks the exact count.
    # A Sturm-Liouville basis on n <= grid_n collocation nodes has 2n - 3
    # quadrature nodes and solves a dense (n - 2)**2 operator.
    nodes = grid.T * omegas[-1] * grid.points_per_period / (2 * math.pi) \
        + grid.T / grid.trace_h + {
            "interval": PANEL_NODES * panel_count(basis.M),
            "rectangle": (2 * PANEL_NODES) ** 2 * basis.M,
            "sturm_liouville": 2 * basis.grid_n}[basis.domain]
    work = basis.M * nodes
    if basis.domain == "sturm_liouville":
        work += basis.grid_n ** 2
    if work > MAX_WORK:
        raise ConfigError(f"estimated work of {work:.3g} mode-node "
                          f"entries exceeds the cap of {MAX_WORK} (2**26)")
    # the order-2 expansion divides by omega**2 and round trip 3 bounds its
    # trace error by omega**-3
    try:
        omegas[0] ** -3
    except OverflowError:
        raise ConfigError(f"omega={omegas[0]:g} is too small: omega**-3 "
                          "overflows") from None
    for w in omegas:
        h = make_time_grid(grid.T, w, grid.points_per_period).h
        if not _step_ok(h):
            raise ConfigError(f"T={grid.T:g} at omega={w:g} gives a time "
                              f"step h={h:g} whose h**2 or 1/h**2 is not "
                              "finite and nonzero")
    if study != "order":
        trace = grid.trace_grid()
        if trace.n + 1 < PHI0_MIN_NODES or not _step_ok(trace.h):
            raise ConfigError(
                f"T={grid.T:g} and trace_h={grid.trace_h:g} give a trace "
                f"grid of {trace.n + 1} nodes and step {trace.h:g}; it "
                f"needs at least {PHI0_MIN_NODES} nodes (phi0'' reads "
                "that many) and a step whose h**2 and 1/h**2 are finite "
                "and nonzero")
    t0 = observation.t0
    if study in ("roundtrip2", "roundtrip3") and t0 is not None \
            and not t0 <= grid.T:
        raise ConfigError(f"observation t0={t0:g} lies past the final time "
                          f"T={grid.T:g}")
    return ExperimentConfig(
        basis=basis, source=SourceConfig.from_dict(d.get("source", {})),
        omegas=omegas, grid=grid, observation=observation,
        output=OutputConfig.from_dict(d.get("output", {})),
        tolerances=dict(DEFAULT_TOLERANCES, **tol), study=study)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)


@_bad_data("basis")
def make_basis(cfg: BasisConfig):
    """The basis, with its eigenvalues checked to be finite and positive
    and its node table (every mode at every node) checked against MAX_WORK
    before any mode is evaluated there; a Sturm-Liouville
    basis's collocation operator and node table are bounded through grid_n
    by config_from_dict's preflight."""
    if cfg.domain == "interval":
        basis = build_dirichlet_interval_basis(cfg.lengths[0], cfg.M)
    elif cfg.domain == "rectangle":
        basis = build_rectangle_basis(cfg.lengths, cfg.M)
    else:
        basis = build_sturm_liouville_basis(cfg.a, cfg.c, cfg.lengths[0],
                                            cfg.M, grid_n=cfg.grid_n)
    lam = basis.eigenvalues
    if not np.all(np.isfinite(lam) & (lam > 0)):
        raise ConfigError(f"the basis's eigenvalues must be finite and "
                          f"positive; they run from {lam.min():g} to "
                          f"{lam.max():g}")
    entries = basis.M * len(basis.nodes)
    if entries > MAX_WORK:
        raise ConfigError(f"the basis's node table has {entries} mode-node "
                          f"entries, over the cap of {MAX_WORK} (2**26)")
    return basis


def make_source(cfg: SourceConfig, grid, basis):
    """Realize (amplitude, drive) on the given time grid (a ``Grid`` or its
    nodes), ConfigError unless the forcing is finite there: the drive's
    samples, and a bound on f r and on r's first two phase derivatives,
    sum_i max_m |C[m, i]| max_t |g_i(t)| (max |r0| + sum_k k^2 max |a_k|)
    for the amplitude's projections C on the basis, its time factors g_i
    and the drive's harmonics k with coefficients a_k, times
    ``stencil_gain(2) / h**2`` for the grid's step h: what phi0'', a second
    derivative of samples on this grid, multiplies them by.  numpy warns
    of nothing on the way (``_bad_data``)."""
    grid = Grid.of(grid)
    with _bad_data("amplitude"):
        amp = SeparableAmplitude.from_expr(cfg.f)
        fmax = np.abs(amp.term_coefficients(basis)).max(axis=1) @ \
            np.abs(amp.time_factors(grid.nodes)).max(axis=1)
    with _bad_data("drive"):
        if cfg.r is not None:
            src = split_source(cfg.r, grid)
        else:
            r0 = TimeTrace.from_expr(cfg.r0, grid)
            r1 = FastProfile.from_specs(cfg.r1, grid)
            src = OscillatorySource(r0, r1)
        bound = fmax * (src.r0.max_abs + sum(
            np.float64(k) ** 2 * c.max_abs for k, _, c in src.r1.terms)) \
            * stencil_gain(2) / np.float64(grid.h) ** 2
    if not np.isfinite(bound):
        raise ConfigError(f"the forcing f*r or one of its first two phase "
                          f"derivatives, or a second time derivative of "
                          f"samples at step {grid.h:g}, is not finite on "
                          f"[{grid.start:g}, {grid.stop:g}] "
                          f"(bound {bound:g}) for f={cfg.f!r}")
    return amp, src


@_bad_data("observation data")
def load_observation(obj, basis=None):
    """Observation data from a dict or JSON path.

    Fields: x0, t0, phi0 ({"expr","T","h"} or {"grid","values"}),
    chi (list of fast terms, needs phi0's grid or an explicit {"T","h"}),
    psi ({"expr"} or {"coeffs"} or {"points","values"}).
    """
    if isinstance(obj, (str,)):
        try:
            with open(obj, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read data file: {exc}") from None
    _take(obj, ("x0", "t0", "phi0", "chi", "psi", "chi_grid"), "data")

    x0 = parse_x0(obj.get("x0"),
                  basis.lengths if basis is not None else None)
    t0 = _parse_t0(obj.get("t0"))

    def _grid_from(spec, where):
        T = spec.get("T", t0)
        if T is None:
            raise ConfigError(f"{where} needs T (or a top-level t0)")
        T = _number(T, f"{where}.T")
        h = _number(spec.get("h", 1e-3), f"{where}.h")
        for key, value in (("T", T), ("h", h)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{where}.{key}={value!r} must be positive "
                                  "and finite")
        # the grid's nodes, times the modes of every table on it
        work = T / h * (basis.M if basis is not None else 1)
        if work > MAX_WORK:
            raise ConfigError(f"{where}.h={h:g} over T={T:g} gives an "
                              f"estimated work of {work:.3g} mode-node "
                              f"entries, over the cap of {MAX_WORK} (2**26)")
        return uniform_grid(T, int(round(T / h)))

    phi0 = None
    if "phi0" in obj:
        spec = obj["phi0"]
        _take(spec, ("expr", "T", "h", "grid", "values"), "data.phi0")
        if "grid" in spec:
            nodes = np.asarray(spec["grid"], float)
            if nodes.ndim != 1 or nodes.size < PHI0_MIN_NODES \
                    or not np.all(np.isfinite(nodes)):
                raise ConfigError(f"phi0.grid must list at least "
                                  f"{PHI0_MIN_NODES} finite times")
            grid = Grid.of(nodes)
            # drive recovery starts from zero data at t = 0; phi0'' divides
            # by h**2, and its error bound multiplies by it
            if grid.start != 0 or not _step_ok(grid.h):
                raise ConfigError(f"phi0.grid must start at 0 with a step h "
                                  f"whose h**2 and 1/h**2 are finite and "
                                  f"nonzero, not {grid.start:g}, "
                                  f"h={grid.h:g}")
            phi0 = TimeTrace(grid, np.asarray(spec["values"], float))
        else:
            phi0 = TimeTrace.from_expr(spec["expr"], _grid_from(spec, "phi0"))

    chi = None
    if "chi" in obj:
        if phi0 is not None:
            cgrid = phi0.axis
        else:
            cgrid = _grid_from(obj.get("chi_grid", {}), "chi_grid")
        chi = FastProfile.from_specs(
            [(_number(term["harmonic"], "chi harmonic", integral=True),
              term["kind"], term["coeff"]) for term in obj["chi"]], cgrid)

    psi = None
    if "psi" in obj:
        spec = obj["psi"]
        _take(spec, ("expr", "coeffs", "points", "values"), "data.psi")
        if "expr" in spec:
            psi = SpatialField.from_expr(spec["expr"])
            if basis is not None and not np.all(
                    np.isfinite(psi.evaluate(basis.nodes))):
                raise ConfigError(f"psi.expr={spec['expr']!r} is not finite "
                                  "on the domain")
        elif "coeffs" in spec:
            if basis is None:
                raise ConfigError("coefficient psi needs the basis")
            coeffs = np.asarray(spec["coeffs"], float)
            if coeffs.shape != (basis.M,) or not np.all(np.isfinite(coeffs)):
                raise ConfigError(f"psi.coeffs must list M={basis.M} finite "
                                  "numbers")
            psi = SpatialField(coeffs=coeffs, basis=basis)
        else:
            if basis is not None and basis.dim != 1:
                raise ConfigError("a psi point table needs a one-dimensional "
                                  "domain")
            pts = np.asarray(spec["points"], float)
            vals = np.asarray(spec["values"], float)
            if pts.ndim != 1 or vals.shape != pts.shape or pts.size < 2 \
                    or not np.all(np.isfinite(pts) & np.isfinite(vals)) \
                    or not np.all(np.diff(pts) > 0):
                raise ConfigError("psi points and values must be equally "
                                  "long lists of at least two finite "
                                  "numbers, points strictly increasing")
            if basis is not None and not (
                    pts[0] <= 0.0 and pts[-1] >= basis.lengths[0]):
                raise ConfigError(f"psi points [{pts[0]:g}, {pts[-1]:g}] must "
                                  f"span the domain [0, {basis.lengths[0]:g}]")
            psi = SpatialField(table=(pts, vals))

    return ObservationData(phi0=phi0, chi=chi, psi=psi, x0=x0, t0=t0)
