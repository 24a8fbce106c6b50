"""Experiment drivers: frequency sweeps and forward-then-invert round trips.

Every study returns a StudyReport holding per-run rows, the named criteria
with measured values and thresholds, and wall-clock runtimes.  Reports are
emitted as CSV or JSON with deterministic bytes (sorted keys, floats printed
with 17 significant digits).
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .asymptotics import build_expansion, residual_norm
from .basis import SpatialField
from .config import ExperimentConfig, make_basis, make_source
from .forward import make_time_grid, solve_direct
from .inverse import (ObservationData, check_admissibility, ip1_build_targets,
                      ip1_recover, ip2_recover, ip3_recover)
from .quadrature import duhamel_batch
from .sources import OscillatorySource, rho0
from .traces import TimeTrace, uniform_grid

__all__ = ["CriterionResult", "StudyReport", "fit_slope",
           "run_order_study", "run_roundtrip", "emit_report",
           "format_float", "json_bytes"]


def format_float(v):
    return f"{float(v):.17g}"


def fit_slope(omegas, residuals):
    """Least-squares slope of log(residual) against log(omega)."""
    omegas = np.asarray(omegas, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if omegas.size < 3:
        raise ValueError("slope fits need at least three frequencies")
    if np.any(residuals <= 0):
        return float("-inf")      # residuals at rounding zero: decay is trivial
    return float(np.polyfit(np.log(omegas), np.log(residuals), 1)[0])


@dataclass(frozen=True)
class CriterionResult:
    name: str
    value: float
    threshold: float
    op: str                  # "<=", ">=", "<", "monotone_decreasing"
    passed: bool

    def to_dict(self):
        return {"name": self.name, "value": self.value,
                "threshold": self.threshold, "op": self.op,
                "passed": bool(self.passed)}


@dataclass(eq=False)
class StudyReport:
    kind: str
    columns: tuple = ()
    rows: tuple = ()                  # tuples aligned with columns
    criteria: tuple = ()
    runtimes: dict = dc_field(default_factory=dict)
    meta: dict = dc_field(default_factory=dict)

    @property
    def passed(self):
        return all(c.passed for c in self.criteria)

    def to_dict(self, include_runtimes=False):
        out = {
            "kind": self.kind,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
            "criteria": [c.to_dict() for c in self.criteria],
            "passed": bool(self.passed),
            "meta": self.meta,
        }
        # wall-clock numbers are reported on demand only, keeping emitted
        # bytes identical across reruns of the same configuration
        if include_runtimes:
            out["runtimes"] = self.runtimes
        return out


def _cmp(name, value, threshold, op):
    if op == "<=":
        ok = value <= threshold
    elif op == ">=":
        ok = value >= threshold
    elif op == "<":
        ok = value < threshold
    else:
        raise ValueError(f"unknown comparison {op}")
    return CriterionResult(name, float(value), float(threshold), op, bool(ok))


def run_order_study(config: ExperimentConfig):
    """Sweep the frequency list and measure expansion residual decay."""
    basis = make_basis(config.basis)
    ref_grid = make_time_grid(config.grid.T, omega=max(config.omegas),
                              points_per_period=config.grid.points_per_period)
    amp, src = make_source(config.source, ref_grid, n_tau=config.grid.n_tau)
    t_setup = time.perf_counter()
    expansion = build_expansion(basis, amp, src, ref_grid,
                                n_tau=config.grid.n_tau)
    runtimes = {"setup": time.perf_counter() - t_setup}

    rows = []
    res0, res2 = [], []
    for w in config.omegas:
        t0 = time.perf_counter()
        u = solve_direct(basis, amp, src, w, T=config.grid.T,
                         points_per_period=config.grid.points_per_period,
                         n_tau=config.grid.n_tau)
        r0n = residual_norm(u, expansion, w, order=0)
        r2n = residual_norm(u, expansion, w, order=2)
        dt = time.perf_counter() - t0
        runtimes[f"omega_{w:g}"] = dt
        res0.append(r0n)
        res2.append(r2n)
        rows.append((w, r0n, r2n))

    tol = config.tolerances
    criteria = []
    slope0 = slope2 = None
    if len(config.omegas) >= 3:
        slope0 = fit_slope(config.omegas, res0)
        slope2 = fit_slope(config.omegas, res2)
        criteria.append(_cmp("slope_order0", slope0,
                             tol["slope_order0_max"], "<="))
        criteria.append(_cmp("slope_order2", slope2,
                             tol["slope_order2_max"], "<="))
    if tol.get("scaled_residual_decreasing") and len(config.omegas) >= 2:
        scaled = np.array(config.omegas) ** 2 * np.array(res2)
        drops = np.diff(scaled)
        criteria.append(_cmp("omega2_residual_max_increase",
                             float(drops.max()), 0.0, "<"))
    full_rows = tuple(
        (w, a, b, slope0 if slope0 is not None else float("nan"),
         slope2 if slope2 is not None else float("nan"))
        for (w, a, b) in rows)
    return StudyReport(
        kind="order",
        columns=("omega", "residual_order0", "residual_order2",
                 "slope_order0", "slope_order2"),
        rows=full_rows, criteria=tuple(criteria), runtimes=runtimes,
        meta={"M": basis.M, "T": config.grid.T})


def _point_weights(basis, x0):
    x0a = np.atleast_1d(np.asarray(x0, dtype=float))
    pts = x0a.reshape(1, -1) if basis.dim > 1 else x0a[:1]
    return basis.eval_modes(pts).ravel()


def _synthesize_ip1_data(basis, amp, src, obs, grid):
    """phi0 = u0(x0, .) and chi = f(x0, .) * rho0 on the data grid."""
    expansion = build_expansion(basis, amp, src, grid)
    w = _point_weights(basis, obs.x0)
    phi0 = TimeTrace(grid, expansion.u0_on(grid).T @ w)
    f_x0 = amp.at_point(obs.x0, grid)
    chi = rho0(src.r1).resample(grid).scaled(f_x0)
    return phi0, chi


def run_roundtrip(config: ExperimentConfig, which):
    """Forward-simulate synthetic data from the config truth, then invert."""
    if which not in (1, 2, 3):
        raise ValueError("which must be 1, 2, or 3")
    basis = make_basis(config.basis)
    obs_cfg = config.observation
    T = config.grid.T
    t_obs = obs_cfg.t0 if obs_cfg.t0 is not None else T
    dgrid = uniform_grid(T, int(round(T / config.grid.trace_h)))
    amp, src = make_source(config.source, dgrid, n_tau=config.grid.n_tau)
    tol = config.tolerances
    runtimes = {}
    criteria = []
    rows = []
    meta = {"M": basis.M, "t0": t_obs}

    if which in (2, 3) and not amp.time_invariant:
        raise ValueError("amplitude recovery round trips need a "
                         "time-invariant f")
    if which in (2, 3):
        fm_flat = np.array([tr.value_at_start(0)
                            for tr in amp.mode_traces(basis, dgrid)])

    if which == 1:
        t0c = time.perf_counter()
        phi0, chi = _synthesize_ip1_data(basis, amp, src, obs_cfg, dgrid)
        data = ObservationData(phi0=phi0, chi=chi, x0=obs_cfg.x0, t0=t_obs)
        runtimes["synthesize"] = time.perf_counter() - t0c
        t0c = time.perf_counter()
        rec = ip1_recover(data, amp, basis)
        runtimes["invert"] = time.perf_counter() - t0c

        r0_err = float(np.max(np.abs(rec.r0.values - src.r0.sample(dgrid))))
        r1_err = 0.0
        keys = {(k, kind) for k, kind, _ in src.r1.terms} \
            | {(k, kind) for k, kind, _ in rec.r1.terms}
        truth = src.r1.resample(dgrid)
        for k, kind in sorted(keys):
            diff = rec.r1.coefficient(k, kind) - truth.coefficient(k, kind)
            r1_err = max(r1_err, diff.max_abs)
        criteria.append(_cmp("r0_sup_error", r0_err, tol["r0_sup"], "<="))
        criteria.append(_cmp("r1_coeff_error", r1_err, tol["r1_coeff"], "<="))
        rows = ((r0_err, r1_err),)
        columns = ("r0_sup_error", "r1_coeff_error")
        meta["admissibility"] = check_admissibility(
            f=amp, x0=obs_cfg.x0, t0=t_obs).to_dict()

    elif which == 2:
        i_obs = int(round(t_obs / (dgrid[1] - dgrid[0])))
        lamv = duhamel_batch(src.r0.values, basis.eigenvalues, dgrid)[:, i_obs]
        psi = SpatialField(coeffs=fm_flat * lamv, basis=basis)
        t0c = time.perf_counter()
        fld = ip2_recover(psi, src.r0, t_obs, basis)
        runtimes["invert"] = time.perf_counter() - t0c
        scale = max(1.0, float(np.max(np.abs(fm_flat))))
        fm_err = float(np.max(np.abs(fld.coeffs - fm_flat))) / scale
        criteria.append(_cmp("fm_rel_error", fm_err, tol["fm_rel"], "<="))
        boundary = fld.meta["boundary_report"]
        criteria.append(_cmp("boundary_trace_sup",
                             max(boundary.sup_boundary), boundary.tol, "<="))
        rows = ((fm_err,),)
        columns = ("fm_rel_error",)
        meta["admissibility"] = check_admissibility(
            r0=src.r0, t0=t_obs, basis=basis, f=amp, x0=obs_cfg.x0).to_dict()

    else:
        i_obs = int(round(t_obs / (dgrid[1] - dgrid[0])))
        lam_traces = duhamel_batch(src.r0.values, basis.eigenvalues, dgrid)
        psi = SpatialField(coeffs=fm_flat * lam_traces[:, i_obs], basis=basis)
        w = _point_weights(basis, obs_cfg.x0)
        phi0 = TimeTrace(dgrid, (fm_flat * w) @ lam_traces)
        f_x0 = float(fm_flat @ w)
        chi = rho0(src.r1).resample(dgrid).scaled(f_x0)
        data = ObservationData(phi0=phi0, chi=chi, psi=psi,
                               x0=obs_cfg.x0, t0=t_obs)
        t0c = time.perf_counter()
        fld, r1_rec = ip3_recover(data, src.r0, basis)
        runtimes["invert"] = time.perf_counter() - t0c

        scale = max(1.0, float(np.max(np.abs(fm_flat))))
        fm_err = float(np.max(np.abs(fld.coeffs - fm_flat))) / scale
        r1_err = 0.0
        truth = src.r1.resample(dgrid)
        keys = {(k, kind) for k, kind, _ in truth.terms} \
            | {(k, kind) for k, kind, _ in r1_rec.terms}
        for k, kind in sorted(keys):
            diff = r1_rec.coefficient(k, kind) - truth.coefficient(k, kind)
            r1_err = max(r1_err, diff.max_abs)
        criteria.append(_cmp("fm_rel_error", fm_err, tol["fm_rel"], "<="))
        criteria.append(_cmp("r1_coeff_error", r1_err, tol["r1_coeff"], "<="))
        meta["phi0_consistency"] = fld.meta.get("phi0_consistency")

        # re-simulate with the recovered pieces and compare the composite
        # trace prediction at each frequency
        rec_amp = type(amp).from_field(fld)
        rec_src = OscillatorySource(src.r0, r1_rec)
        phi1, phi2 = ip1_build_targets(data.chi, rec_amp, obs_cfg.x0, basis)
        trace_errs = []
        psi_errs = []
        pts = basis.interior_sample_points(64)
        psi_pts = psi.evaluate(pts)
        for omega in config.omegas:
            t0c = time.perf_counter()
            u = solve_direct(basis, rec_amp, rec_src, omega, T=t_obs,
                             points_per_period=config.grid.points_per_period,
                             n_tau=config.grid.n_tau)
            runtimes[f"forward_omega_{omega:g}"] = time.perf_counter() - t0c
            fine = u.grid
            lam_fine = duhamel_batch(src.r0.sample(fine), basis.eigenvalues,
                                     fine)
            phi0_fine = (fld.coeffs * w) @ lam_fine
            chi_fine = data.chi.resample(fine)
            composite = (phi0_fine + phi1.sample(fine) / omega
                         + (phi2.sample(fine)
                            + chi_fine.evaluate(fine, omega * fine)) / omega ** 2)
            trace = u.trace_at(obs_cfg.x0).values
            err = float(np.max(np.abs(trace - composite)))
            trace_errs.append(err)
            scale_u = float(np.max(np.abs(trace)))
            rows += ((omega, err, scale_u),)
            psi_errs.append(float(np.max(np.abs(
                u.evaluate(pts)[-1] - psi_pts))))
        columns = ("omega", "trace_error", "trace_scale")
        w_last = config.omegas[-1]
        bound = tol["trace_bound_factor"] * w_last ** -3 * max(
            1e-30, float(np.max(np.abs(rows[-1][2]))))
        criteria.append(_cmp("trace_expansion_error", trace_errs[-1],
                             bound, "<="))
        if len(psi_errs) >= 2:
            criteria.append(_cmp("final_time_error_at_max_omega",
                                 psi_errs[-1], psi_errs[0], "<="))
        meta["psi_errors"] = psi_errs
        meta["admissibility"] = check_admissibility(
            r0=src.r0, t0=t_obs, basis=basis, f=amp, x0=obs_cfg.x0).to_dict()

    return StudyReport(kind=f"roundtrip{which}", columns=columns,
                       rows=tuple(rows), criteria=tuple(criteria),
                       runtimes=runtimes, meta=meta)


# -- deterministic emission -------------------------------------------------


def _emit_json(obj, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for k in sorted(obj):
            parts.append(f"{inner}{json.dumps(str(k))}: "
                         f"{_emit_json(obj[k], indent + 1)}")
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = list(obj)
        if not items:
            return "[]"
        parts = [f"{inner}{_emit_json(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)):
        if np.isnan(obj) or np.isinf(obj):
            return json.dumps(str(obj))
        return format_float(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return json.dumps(str(obj))


def json_bytes(obj):
    """Deterministic JSON bytes: sorted keys, floats at 17 significant digits."""
    return (_emit_json(obj, 0) + "\n").encode()


def emit_report(report: StudyReport, path, fmt=None):
    """Write a report as CSV or JSON (from the file suffix when fmt is None)."""
    if fmt is None:
        fmt = "json" if str(path).endswith(".json") else "csv"
    if fmt == "json":
        payload = json_bytes(report.to_dict())
    else:
        buf = io.StringIO()
        buf.write(",".join(report.columns) + "\n")
        for row in report.rows:
            buf.write(",".join(
                format_float(v) if isinstance(v, (float, np.floating))
                else str(v) for v in row) + "\n")
        payload = buf.getvalue().encode()
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(payload)
    return path
