"""Command-line entry points.

Subcommands: forward, asymptotics, invert1, invert2, invert3, study, selftest.
Exit codes: 0 success (all criteria pass), 1 a study criterion failed,
2 invalid configuration, data, or admissibility.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .basis import SpatialField
from .config import (ConfigError, _parse_x0, load_config, load_observation,
                     make_basis, make_source)
from .expressions import ExpressionError
from .forward import UnderResolvedError, make_time_grid, solve_direct
from .harness import (_write_bytes, _write_csv, emit_report, json_bytes,
                      run_order_study, run_roundtrip)
from .inverse import (AdmissibilityError, _admissibility, check_admissibility,
                      ip1_recover, ip2_recover, ip3_recover)
from .selftest import run_selftest
from .traces import uniform_grid

__all__ = ["main"]

_USAGE_ERRORS = (ConfigError, AdmissibilityError, UnderResolvedError,
                 ExpressionError, FileNotFoundError)


def _out_path(cfg, stem, ext):
    return os.path.join(cfg.output.dir, f"{cfg.output.prefix}_{stem}.{ext}")


def _write_recovered_r1(cfg, r1):
    cols = ["t"] + [f"{kind}{k}" for k, kind, _ in r1.terms]
    arrays = [r1.grid] + [tr.values for _, _, tr in r1.terms]
    _write_csv(_out_path(cfg, "recovered_r1", "csv"), cols,
               np.column_stack(arrays))


def _point_label(p):
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    if arr.size == 1:
        return f"u@{arr[0]:.6g}"
    return "u@(" + ";".join(f"{v:.6g}" for v in arr) + ")"


def _cmd_forward(cfg):
    basis = make_basis(cfg.basis)
    for omega in cfg.omegas:
        grid = make_time_grid(cfg.grid.T, omega=omega,
                              points_per_period=cfg.grid.points_per_period)
        amp, src = make_source(cfg.source, grid)
        u = solve_direct(basis, amp, src, omega, grid=grid)
        coarse = u.subsample(cfg.grid.n_out)
        pts = basis.interior_sample_points(9)
        vals = coarse.evaluate(pts)
        columns = ["t"] + [_point_label(p) for p in pts]
        arrays = [coarse.grid] + [vals[:, j] for j in range(vals.shape[1])]
        path = _out_path(cfg, f"forward_omega{omega:g}", "csv")
        _write_csv(path, columns, np.column_stack(arrays))
        print(f"wrote {path} (mode tail ratio "
              f"{u.meta['mode_tail_ratio']:.2e})")
    return 0


def _cmd_invert(cfg, which, data_path):
    if data_path is None:
        raise ConfigError(f"invert{which} needs --data")
    basis = make_basis(cfg.basis)
    probe = uniform_grid(cfg.grid.T, 64)
    amp, src = make_source(cfg.source, probe)
    data = load_observation(data_path, basis=basis)
    if data.t0 is None:
        data.t0 = cfg.observation.t0
    if data.x0 is None:
        data.x0 = _parse_x0(cfg.observation.x0, basis.dim)
    t0, x0 = data.t0, data.x0
    for name, value, needed_by in (("x0", x0, (1, 3)), ("t0", t0, (2, 3))):
        if value is None and which in needed_by:
            raise ConfigError(f"invert{which} needs {name} in --data or in "
                              f"the config's observation")

    if which == 1:
        if data.phi0 is None:
            raise ConfigError("invert1 data needs phi0")
        if t0 is not None and t0 > data.phi0.t_end:
            raise ConfigError(f"observation t0={t0:g} lies past the end "
                              f"{data.phi0.t_end:g} of phi0's grid")
        rec = ip1_recover(data, amp, basis)
        _write_csv(_out_path(cfg, "recovered_r0", "csv"), ["t", "r0"],
                   np.column_stack([rec.r0.grid, rec.r0.values]))
        _write_recovered_r1(cfg, rec.r1)
        rep = check_admissibility(r0=rec.r0, t0=t0 or rec.r0.t_end,
                                  basis=basis, f=amp, x0=x0)
        _write_bytes(_out_path(cfg, "admissibility", "json"),
                     json_bytes(rep.to_dict()))
        print(f"recovered r0 on [0, {rec.r0.t_end:g}] and "
              f"{len(rec.r1.terms)} fast term(s)")
        return 0

    # r0 carries its expression, so each use samples it exactly
    r0 = src.r0
    if which == 2:
        if data.psi is None:
            raise ConfigError("invert2 data needs psi")
        fld = ip2_recover(data.psi, r0, t0, basis)
    else:
        fld, r1 = ip3_recover(data, r0, basis)
        _write_recovered_r1(cfg, r1)
    _write_csv(_out_path(cfg, "recovered_f", "csv"),
               ["mode", "lambda", "coeff"], np.column_stack(
                   [np.arange(1, basis.M + 1), basis.eigenvalues, fld.coeffs]))
    rep = _admissibility(fld.meta["lambda_values"], r0, t0, basis,
                         SpatialField(coeffs=fld.coeffs, basis=basis), x0)
    if which == 2:
        breport = fld.meta["boundary_report"]
        _write_bytes(_out_path(cfg, "admissibility", "json"), json_bytes({
            "admissibility": rep.to_dict(),
            "boundary_trace": {
                "orders": list(breport.orders),
                "sup_boundary": list(breport.sup_boundary),
                "passed": breport.passed},
            "mode_index": [str(i) for i in basis.mode_index]}))
        print(f"recovered {basis.M} amplitude coefficients")
        return 0

    payload = {"admissibility": rep.to_dict()}
    if "phi0_consistency" in fld.meta:
        payload["phi0_consistency"] = fld.meta["phi0_consistency"]
    _write_bytes(_out_path(cfg, "consistency", "json"), json_bytes(payload))
    print(f"recovered {basis.M} amplitude coefficients and "
          f"{len(r1.terms)} fast term(s)")
    return 0


def _cmd_study(cfg, study):
    if study == "order":
        report, stem = run_order_study(cfg), "order_study"
    else:
        report, stem = run_roundtrip(cfg, int(study[-1])), study
    csv_path = emit_report(report, _out_path(cfg, stem, "csv"))
    json_path = emit_report(report, _out_path(cfg, stem, "json"))
    for crit in report.criteria:
        status = "PASS" if crit.passed else "FAIL"
        print(f"{status} {crit.name}: {crit.value:.6g} "
              f"(threshold {crit.threshold:.6g}, {crit.op})")
    print(f"wrote {csv_path} and {json_path}")
    return 0 if report.passed else 1


def _cmd_selftest(names):
    try:
        results = run_selftest(names=names)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="oscinv",
        description="Forward, asymptotic, and inverse solvers for hyperbolic "
                    "problems with rapidly oscillating drives")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("forward", "asymptotics", "invert1", "invert2", "invert3",
                 "study"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name.startswith("invert"):
            p.add_argument("--data", default=None)
        p.add_argument("--output-dir", default=None)
    p = sub.add_parser("selftest")
    p.add_argument("--only", nargs="*", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            return _cmd_selftest(args.only)
        cfg = load_config(args.config)
        if args.output_dir is not None:
            cfg = replace(cfg, output=replace(cfg.output, dir=args.output_dir))
        if args.command == "forward":
            return _cmd_forward(cfg)
        if args.command == "asymptotics":
            return _cmd_study(cfg, "order")
        if args.command == "study":
            return _cmd_study(cfg, cfg.study)
        return _cmd_invert(cfg, int(args.command[-1]), args.data)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
