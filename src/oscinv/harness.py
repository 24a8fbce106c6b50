"""Experiment drivers: frequency sweeps and forward-then-invert round trips.

Every study returns a StudyReport holding per-run rows and the named
criteria with measured values and thresholds.  Reports are emitted as CSV or
JSON with deterministic bytes (sorted keys, floats printed with 17
significant digits).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .asymptotics import build_expansion, residual_norm
from .basis import SpatialField
from .config import ConfigError, ExperimentConfig, make_basis, make_source
from .forward import make_time_grid, solve_direct
from .inverse import (ObservationData, check_admissibility, ip1_recover,
                      ip2_recover, ip3_recover)
from .sources import OscillatorySource

__all__ = ["CriterionResult", "StudyReport", "fit_slope",
           "run_order_study", "run_roundtrip", "emit_report",
           "format_float", "json_bytes", "write_bytes", "write_csv"]


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
    op: str                  # "<=" or "<"
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
    meta: dict = dc_field(default_factory=dict)

    @property
    def passed(self):
        return all(c.passed for c in self.criteria)

    def to_dict(self):
        return {
            "kind": self.kind,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
            "criteria": [c.to_dict() for c in self.criteria],
            "passed": bool(self.passed),
            "meta": self.meta,
        }


def _cmp(name, value, threshold, op):
    if op == "<=":
        ok = value <= threshold
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
    amp, src = make_source(config.source, ref_grid, basis)
    expansion = build_expansion(basis, amp, src, ref_grid)

    rows = []
    res0, res2 = [], []
    for w in config.omegas:
        u = solve_direct(basis, amp, src, w, T=config.grid.T,
                         points_per_period=config.grid.points_per_period)
        r0n = residual_norm(u, expansion, w, order=0)
        r2n = residual_norm(u, expansion, w, order=2)
        res0.append(r0n)
        res2.append(r2n)
        rows.append((w, r0n, r2n))

    tol = config.tolerances
    criteria = []
    columns = ("omega", "residual_order0", "residual_order2")
    # a slope needs three frequencies: with fewer, no slope column is
    # written and no slope criterion judged
    if len(config.omegas) >= 3:
        slope0 = fit_slope(config.omegas, res0)
        slope2 = fit_slope(config.omegas, res2)
        criteria.append(_cmp("slope_order0", slope0,
                             tol["slope_order0_max"], "<="))
        criteria.append(_cmp("slope_order2", slope2,
                             tol["slope_order2_max"], "<="))
        columns += ("slope_order0", "slope_order2")
        rows = [row + (slope0, slope2) for row in rows]
    if tol.get("scaled_residual_decreasing") and len(config.omegas) >= 2:
        scaled = np.array(config.omegas) ** 2 * np.array(res2)
        drops = np.diff(scaled)
        criteria.append(_cmp("omega2_residual_max_increase",
                             float(drops.max()), 0.0, "<"))
    return StudyReport(
        kind="order", columns=columns, rows=tuple(rows),
        criteria=tuple(criteria),
        meta={"M": basis.M, "T": config.grid.T})


def _r1_coeff_error(rec, truth):
    """Sup error over every fast coefficient present in either profile."""
    keys = {(k, kind) for k, kind, _ in truth.terms} \
        | {(k, kind) for k, kind, _ in rec.terms}
    return max(((rec.coefficient(k, kind) - truth.coefficient(k, kind)).max_abs
                for k, kind in sorted(keys)), default=0.0)


def _fm_rel_error(coeffs, fm_flat):
    scale = max(1.0, float(np.max(np.abs(fm_flat))))
    return float(np.max(np.abs(coeffs - fm_flat))) / scale


def _synthetic_data(basis, amp, src, dgrid, x0=None, t0=None):
    """Observations of the config truth on the trace grid, read off its
    expansion: phi0 = u0(x0, .) and chi = f(x0, .) * rho0 at x0 when x0 is
    given (``observed_traces``), psi = u0(., t0) when t0 is.  t0 must be a
    node of the grid."""
    if t0 is not None:
        try:
            t_node = dgrid.nodes[dgrid.index(t0)]
        except ValueError:
            raise ConfigError(f"observation t0={t0!r} is not a node of the "
                              f"trace grid of step {dgrid.h:.6g}; choose a "
                              "multiple of it") from None
    truth = build_expansion(basis, amp, src, dgrid)
    data = ObservationData(x0=x0, t0=t0)
    if x0 is not None:
        data.phi0, data.chi = truth.observed_traces(x0, dgrid)
    if t0 is not None:
        data.psi = SpatialField(coeffs=truth.u0_table(dgrid).at(t_node),
                                basis=basis)
    return data


def run_roundtrip(config: ExperimentConfig, which):
    """Forward-simulate synthetic data from the config truth, then invert."""
    if which not in (1, 2, 3):
        raise ValueError("which must be 1, 2, or 3")
    basis = make_basis(config.basis)
    obs_cfg = config.observation
    t_obs = obs_cfg.t0 if obs_cfg.t0 is not None else config.grid.T
    dgrid = config.grid.trace_grid()
    amp, src = make_source(config.source, dgrid, basis)
    tol = config.tolerances
    criteria = []
    rows = []
    meta = {"M": basis.M, "t0": t_obs}

    if which in (2, 3):
        if not amp.time_invariant:
            raise ConfigError("amplitude recovery round trips need a "
                              "time-invariant f")
        fm_flat = amp.mode_derivatives_at_start(basis)
    data = _synthetic_data(basis, amp, src, dgrid,
                           x0=obs_cfg.x0 if which != 2 else None,
                           t0=t_obs if which != 1 else None)

    if which == 1:
        rec = ip1_recover(data, amp, basis)

        r0_err = float(np.max(np.abs(rec.r0.values - src.r0.sample(dgrid))))
        r1_err = _r1_coeff_error(rec.r1, src.r1.resample(dgrid))
        criteria.append(_cmp("r0_sup_error", r0_err, tol["r0_sup"], "<="))
        criteria.append(_cmp("r1_coeff_error", r1_err, tol["r1_coeff"], "<="))
        rows = ((r0_err, r1_err),)
        columns = ("r0_sup_error", "r1_coeff_error")

    elif which == 2:
        fld = ip2_recover(data.psi, src.r0, t_obs, basis)
        fm_err = _fm_rel_error(fld.coeffs, fm_flat)
        criteria.append(_cmp("fm_rel_error", fm_err, tol["fm_rel"], "<="))
        boundary = fld.meta["boundary_report"]
        criteria.append(_cmp("boundary_trace_sup",
                             max(boundary.sup_boundary), boundary.tol, "<="))
        rows = ((fm_err,),)
        columns = ("fm_rel_error",)

    else:
        fld, r1_rec = ip3_recover(data, src.r0, basis)

        fm_err = _fm_rel_error(fld.coeffs, fm_flat)
        r1_err = _r1_coeff_error(r1_rec, src.r1.resample(dgrid))
        criteria.append(_cmp("fm_rel_error", fm_err, tol["fm_rel"], "<="))
        criteria.append(_cmp("r1_coeff_error", r1_err, tol["r1_coeff"], "<="))
        meta["phi0_consistency"] = fld.meta.get("phi0_consistency")

        # re-simulate with the recovered pieces and compare the trace with
        # the order-2 composite the recovered expansion predicts
        rec_amp = type(amp).from_field(fld)
        rec_src = OscillatorySource(src.r0, r1_rec)
        rec_exp = build_expansion(basis, rec_amp, rec_src, dgrid)
        psi_errs = []
        modes = basis.modes_at_samples(64)
        psi_pts = data.psi.coeffs @ modes
        for omega in config.omegas:
            u = solve_direct(basis, rec_amp, rec_src, omega, T=t_obs,
                             points_per_period=config.grid.points_per_period)
            composite = rec_exp.evaluate(omega, [obs_cfg.x0], u.axis)[:, 0]
            trace = u.trace_at(obs_cfg.x0).values
            err = float(np.max(np.abs(trace - composite)))
            scale_u = float(np.max(np.abs(trace)))
            rows += ((omega, err, scale_u),)
            psi_errs.append(float(np.max(np.abs(
                u.coeffs[:, -1] @ modes - psi_pts))))
        columns = ("omega", "trace_error", "trace_scale")
        w_last = config.omegas[-1]
        bound = tol["trace_bound_factor"] * w_last ** -3 * max(
            1e-30, rows[-1][2])
        criteria.append(_cmp("trace_expansion_error", rows[-1][1],
                             bound, "<="))
        if len(psi_errs) >= 2:
            criteria.append(_cmp("final_time_error_at_max_omega",
                                 psi_errs[-1], psi_errs[0], "<="))
        meta["psi_errors"] = psi_errs

    # round trip 1 recovers r0, so only the amplitude floor applies to it;
    # the amplitude recoveries hold Lambda_m(t0) of the true r0 already
    if which == 1:
        rep = check_admissibility(t0=t_obs, f=amp, x0=obs_cfg.x0)
    else:
        rep = check_admissibility(src.r0, t_obs, basis, amp, obs_cfg.x0,
                                  lambda_values=fld.meta["lambda_values"])
    meta["admissibility"] = rep.to_dict()
    return StudyReport(kind=f"roundtrip{which}", columns=columns,
                       rows=tuple(rows), criteria=tuple(criteria),
                       meta=meta)


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


def write_bytes(path, payload):
    """Write payload to path, creating its directory; returns the path."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(payload)
    return path


def write_csv(path, columns, rows):
    """Write a header line and one line per row, floats at 17 digits."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(
            format_float(v) if isinstance(v, (float, np.floating))
            else str(v) for v in row))
    return write_bytes(path, ("\n".join(lines) + "\n").encode())


def emit_report(report: StudyReport, path):
    """Write a report as JSON when path ends in .json, else as CSV."""
    if str(path).endswith(".json"):
        return write_bytes(path, json_bytes(report.to_dict()))
    return write_csv(path, report.columns, report.rows)
