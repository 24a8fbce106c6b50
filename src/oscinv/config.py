"""Experiment configuration: JSON in, validated dataclasses out.

A config names the basis, the drive, the frequency sweep, grid resolutions,
tolerances, observation geometry, and output destinations.  Validation is
strict: unknown keys and under-resolved time grids are rejected up front so
runs fail before any numerics start.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .basis import (SeparableAmplitude, SpatialField,
                    build_dirichlet_interval_basis, build_rectangle_basis,
                    build_sturm_liouville_basis)
from .forward import MIN_POINTS_PER_PERIOD
from .inverse import ObservationData
from .sources import FastProfile, OscillatorySource, split_source
from .traces import TimeTrace, uniform_grid

__all__ = ["ConfigError", "BasisConfig", "SourceConfig", "GridConfig",
           "ObservationConfig", "OutputConfig", "ExperimentConfig",
           "load_config", "config_from_dict", "make_basis", "make_source",
           "load_observation"]

DEFAULT_TOLERANCES = {
    "forward_rel": 1e-6,
    "slope_order2_max": -2.5,
    "slope_order0_max": -0.9,
    "scaled_residual_decreasing": True,
    "r0_sup": 1e-4,
    "r1_coeff": 1e-10,
    "fm_rel": 1e-10,
    "trace_bound_factor": 10.0,
}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _take(d, allowed, where):
    extra = set(d) - set(allowed)
    if extra:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(extra)}")


@dataclass(frozen=True)
class BasisConfig:
    domain: str = "interval"
    lengths: tuple = (math.pi,)
    M: int = 8
    grid_n: int = 2000
    a: str | None = None
    c: str | None = None

    @classmethod
    def from_dict(cls, d):
        _take(d, ("domain", "lengths", "M", "grid_n", "a", "c"), "basis")
        domain = d.get("domain", "interval")
        if domain not in ("interval", "rectangle", "sturm_liouville"):
            raise ConfigError(f"unknown domain {domain!r}")
        lengths = tuple(float(v) for v in d.get("lengths", (math.pi,)))
        if any(v <= 0 for v in lengths):
            raise ConfigError("domain lengths must be positive")
        M = int(d.get("M", 8))
        if M < 1:
            raise ConfigError("M must be at least 1")
        return cls(domain, lengths, M, int(d.get("grid_n", 2000)),
                   d.get("a"), d.get("c"))


@dataclass(frozen=True)
class SourceConfig:
    f: str = "sin(x)"
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
        r1 = d.get("r1", [])
        if r is not None and (r0 is not None or r1):
            raise ConfigError("give either a combined r or the r0/r1 split, "
                              "not both")
        if r is None and r0 is None:
            raise ConfigError("source needs r or r0")
        terms = []
        for item in r1:
            _take(item, ("harmonic", "kind", "coeff"), "source.r1 term")
            k = int(item["harmonic"])
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
    n_tau: int = 256
    trace_h: float = 1e-3

    @classmethod
    def from_dict(cls, d):
        _take(d, ("T", "points_per_period", "n_out", "n_tau", "trace_h"),
              "grid")
        T = float(d.get("T", 3.0))
        ppp = int(d.get("points_per_period", 32))
        if T <= 0:
            raise ConfigError("T must be positive")
        if ppp < MIN_POINTS_PER_PERIOD:
            raise ConfigError(
                f"points_per_period={ppp} makes the time step exceed "
                f"(2*pi/omega)/{MIN_POINTS_PER_PERIOD}")
        return cls(T, ppp, int(d.get("n_out", 513)), int(d.get("n_tau", 256)),
                   float(d.get("trace_h", 1e-3)))


@dataclass(frozen=True)
class ObservationConfig:
    x0: object = None
    t0: float | None = None

    @classmethod
    def from_dict(cls, d):
        _take(d, ("x0", "t0"), "observation")
        x0 = d.get("x0")
        if isinstance(x0, (list, tuple)):
            x0 = tuple(float(v) for v in x0)
        elif x0 is not None:
            x0 = float(x0)
        t0 = d.get("t0")
        return cls(x0, None if t0 is None else float(t0))


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "."
    prefix: str = "run"
    fmt: str = "csv"

    @classmethod
    def from_dict(cls, d):
        _take(d, ("dir", "prefix", "format"), "output")
        fmt = d.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {fmt!r}")
        return cls(str(d.get("dir", ".")), str(d.get("prefix", "run")), fmt)


@dataclass(frozen=True)
class ExperimentConfig:
    basis: BasisConfig = dc_field(default_factory=BasisConfig)
    source: SourceConfig = dc_field(default_factory=SourceConfig)
    omegas: tuple = (100.0,)
    grid: GridConfig = dc_field(default_factory=GridConfig)
    observation: ObservationConfig = dc_field(default_factory=ObservationConfig)
    output: OutputConfig = dc_field(default_factory=OutputConfig)
    tolerances: dict = dc_field(default_factory=dict)
    study: str = "order"
    seed: int = 0          # reserved; every pipeline is deterministic


def config_from_dict(d):
    _take(d, ("basis", "source", "omega", "grid", "observation", "output",
              "tolerances", "study", "seed"), "config")
    omegas = d.get("omega", [100.0])
    if np.ndim(omegas) == 0:
        omegas = [omegas]
    omegas = tuple(float(w) for w in omegas)
    if not all(math.isfinite(w) and w > 0 for w in omegas):
        raise ConfigError("omega values must be positive and finite")
    if any(b <= a for a, b in zip(omegas, omegas[1:])):
        raise ConfigError("omega values must be strictly increasing")
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(d.get("tolerances", {}))
    study = d.get("study", "order")
    if study not in ("order", "roundtrip1", "roundtrip2", "roundtrip3"):
        raise ConfigError(f"unknown study kind {study!r}")
    grid = GridConfig.from_dict(d.get("grid", {}))
    observation = ObservationConfig.from_dict(d.get("observation", {}))
    t0 = observation.t0
    if study in ("roundtrip2", "roundtrip3") and t0 is not None \
            and not t0 <= grid.T:
        raise ConfigError(f"observation t0={t0:g} lies past the final time "
                          f"T={grid.T:g}")
    return ExperimentConfig(
        basis=BasisConfig.from_dict(d.get("basis", {})),
        source=SourceConfig.from_dict(d.get("source", {})),
        omegas=omegas, grid=grid, observation=observation,
        output=OutputConfig.from_dict(d.get("output", {})),
        tolerances=tol, study=study, seed=int(d.get("seed", 0)))


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)


def make_basis(cfg: BasisConfig):
    if cfg.domain == "interval":
        return build_dirichlet_interval_basis(cfg.lengths[0], cfg.M)
    if cfg.domain == "rectangle":
        return build_rectangle_basis(cfg.lengths, cfg.M)
    a = cfg.a if cfg.a is not None else 1.0
    c = cfg.c if cfg.c is not None else 0.0
    return build_sturm_liouville_basis(a, c, cfg.lengths[0], cfg.M,
                                       grid_n=cfg.grid_n)


def make_source(cfg: SourceConfig, grid, n_tau=256):
    """Realize (amplitude, drive) on the given time grid."""
    try:
        amp = SeparableAmplitude.from_expr(cfg.f)
    except ValueError as exc:
        raise ConfigError(f"bad amplitude: {exc}") from None
    try:
        if cfg.r is not None:
            src = split_source(cfg.r, grid, n_tau=n_tau)
        else:
            r0 = TimeTrace.from_expr(cfg.r0, grid)
            r1 = FastProfile.from_specs(cfg.r1, grid)
            src = OscillatorySource(r0, r1)
    except ValueError as exc:
        raise ConfigError(f"bad drive: {exc}") from None
    return amp, src


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

    x0 = obj.get("x0")
    if isinstance(x0, (list, tuple)):
        x0 = tuple(float(v) for v in x0)
    elif x0 is not None:
        x0 = float(x0)
    t0 = obj.get("t0")
    t0 = None if t0 is None else float(t0)

    def _grid_from(spec, where):
        T = spec.get("T", t0)
        if T is None:
            raise ConfigError(f"{where} needs T (or a top-level t0)")
        h = float(spec.get("h", 1e-3))
        return uniform_grid(float(T), int(round(float(T) / h)))

    phi0 = None
    if "phi0" in obj:
        spec = obj["phi0"]
        _take(spec, ("expr", "T", "h", "grid", "values"), "data.phi0")
        if "grid" in spec:
            phi0 = TimeTrace(np.asarray(spec["grid"], float),
                             np.asarray(spec["values"], float))
        else:
            phi0 = TimeTrace.from_expr(spec["expr"], _grid_from(spec, "phi0"))

    chi = None
    if "chi" in obj:
        if phi0 is not None:
            cgrid = phi0.grid
        else:
            cgrid = _grid_from(obj.get("chi_grid", {}), "chi")
        chi = FastProfile.from_specs(
            [(term["harmonic"], term["kind"], term["coeff"])
             for term in obj["chi"]], cgrid)

    psi = None
    if "psi" in obj:
        spec = obj["psi"]
        _take(spec, ("expr", "coeffs", "points", "values"), "data.psi")
        if "expr" in spec:
            psi = SpatialField.from_expr(spec["expr"])
        elif "coeffs" in spec:
            if basis is None:
                raise ConfigError("coefficient psi needs the basis")
            psi = SpatialField(coeffs=np.asarray(spec["coeffs"], float),
                               basis=basis)
        else:
            psi = SpatialField(table=(np.asarray(spec["points"], float),
                                      np.asarray(spec["values"], float)))

    return ObservationData(phi0=phi0, chi=chi, psi=psi, x0=x0, t0=t0)
