import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oscinv
from oscinv import inverse
from oscinv.asymptotics import build_expansion
from oscinv.cli import main
from oscinv.basis import build_dirichlet_interval_basis
from oscinv.quadrature import duhamel_batch
from oscinv.traces import uniform_grid

PI = math.pi


def _write_config(tmp_path, name="cfg.json", **overrides):
    d = {
        "basis": {"domain": "interval", "lengths": [PI], "M": 1},
        "source": {"f": "sin(x)", "r": "cos(tau)"},
        "omega": [100.0],
        "grid": {"T": 3.0, "points_per_period": 32},
        "output": {"dir": str(tmp_path / "out"), "prefix": "run"},
    }
    d.update(overrides)
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return p


def _read_csv(path):
    lines = pathlib.Path(path).read_text().splitlines()
    header = lines[0].split(",")
    body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, body


def test_forward_writes_point_traces(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["forward", "--config", str(cfg)]) == 0
    header, body = _read_csv(tmp_path / "out" / "run_forward_omega100.csv")
    assert header[0] == "t"
    assert len(header) == 10           # 9 interior sample points
    # subsampling keeps exact solver nodes, so at least n_out rows come back
    assert 513 <= body.shape[0] < 1600
    assert "mode tail ratio" in capsys.readouterr().out


def test_study_single_omega_passes(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["study", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "run_order_study.csv").exists()
    assert (tmp_path / "out" / "run_order_study.json").exists()


def test_asymptotics_alias(tmp_path, capsys):
    cfg = _write_config(tmp_path, omega=[50.0, 100.0, 200.0])
    assert main(["asymptotics", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PASS slope_order2" in out


def test_study_criterion_failure_exits_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, omega=[50.0, 100.0, 200.0],
                        tolerances={"slope_order2_max": -10.0})
    assert main(["study", "--config", str(cfg)]) == 1
    assert "FAIL slope_order2" in capsys.readouterr().out


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, grid={"T": 3.0, "points_per_period": 4})
    assert main(["study", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert main(["study", "--config", str(tmp_path / "nope.json")]) == 2


def _roundtrip_config(tmp_path, study, **overrides):
    d = dict(basis={"domain": "interval", "lengths": [PI], "M": 4},
             source={"f": "sin(x) + 0.3*sin(3*x)", "r0": "1 + t"},
             grid={"T": 3.0, "trace_h": 1e-3},
             observation={"x0": PI / 2, "t0": 3.0}, study=study)
    d.update(overrides)
    return _write_config(tmp_path, name=f"{study}.json", **d)


@pytest.mark.parametrize("command, study", [("forward", "order"),
                                            ("study", "roundtrip2")])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_omega_exits_2(tmp_path, capsys, command, study, bad):
    cfg = _roundtrip_config(tmp_path, study, omega=[bad])
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert len(err.strip().splitlines()) == 1


# grids too small or too coarse for the study: each exits 0, 1 or 2
_GRID_EXTREMES = {
    "roundtrip1_trace_h_3": ("roundtrip1",
                             dict(grid={"T": 3.0, "trace_h": 3})),
    "roundtrip1_trace_h_1e9": ("roundtrip1",
                               dict(grid={"T": 3.0, "trace_h": 1e9})),
    "roundtrip1_T_1e-9": ("roundtrip1", dict(grid={"T": 1e-9})),
    "roundtrip1_T_1e-300": ("roundtrip1", dict(grid={"T": 1e-300})),
    "order_omega_1e-300": ("order", dict(omega=[1e-300])),
    "order_T_1e-300": ("order", dict(grid={"T": 1e-300})),
    "order_omega_1e-3": ("order", dict(omega=[1e-3])),
    "roundtrip3_omega_1e-300": ("roundtrip3", dict(omega=[1e-300])),
}


@pytest.mark.parametrize("case", sorted(_GRID_EXTREMES))
def test_grid_extremes_exit_by_the_contract(tmp_path, capsys, case):
    study, overrides = _GRID_EXTREMES[case]
    source = _DRIVE_SOURCE if study == "roundtrip1" else dict(
        _AMPLITUDE_SOURCE, r1=_DRIVE_SOURCE["r1"])
    cfg = _roundtrip_config(tmp_path, study, source=source, **overrides)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["study", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "out")])
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
    else:
        assert err == ""


_CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

# a sample config with one leaf replaced: (command, config, leaf path, value)
_NONFINITE_SAMPLES = {
    "f_nan": ("study", "roundtrip_drive", ("source", "f"), math.nan),
    "f_1e308": ("study", "roundtrip_drive", ("source", "f"), 1e308),
    # finite samples whose second derivative on the trace grid overflows
    "f_1e307": ("study", "roundtrip_drive", ("source", "f"), "1e307*sin(x)"),
    "f_exp_1000t": ("study", "roundtrip_drive", ("source", "f"),
                    "exp(1000*t)"),
    "f_one_over_t": ("study", "roundtrip_drive", ("source", "f"), "1/t"),
    "f_sqrt_t": ("study", "roundtrip_drive", ("source", "f"),
                 "t^0.5*sin(x)"),
    "harmonic_1e308": ("study", "roundtrip_drive",
                       ("source", "r1", 0, "harmonic"), 1e308),
    "length_1e308": ("study", "roundtrip_drive", ("basis", "lengths", 0),
                     1e308),
    "forward_f_exp_1000t": ("forward", "forward_closed_form",
                            ("source", "f"), "exp(1000*t)"),
}


@pytest.mark.parametrize("case", sorted(_NONFINITE_SAMPLES))
def test_nonfinite_samples_exit_2(tmp_path, capsys, case):
    # f, r and the basis are refused where their samples are made (a
    # t-derivative of f at 0 where it is taken), before any solver warns
    command, name, path, value = _NONFINITE_SAMPLES[case]
    d = json.loads((_CONFIGS / f"{name}.json").read_text())
    leaf = d
    for key in path[:-1]:
        leaf = leaf[key]
    leaf[path[-1]] = value
    d["output"]["dir"] = str(tmp_path / "out")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(cfg)])
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("study", ["roundtrip2", "roundtrip3"])
def test_observation_after_final_time_exits_2(tmp_path, capsys, study):
    cfg = _roundtrip_config(tmp_path, study,
                            observation={"x0": PI / 2, "t0": 5.0})
    assert main(["study", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t0=5" in err
    assert len(err.strip().splitlines()) == 1


_DRIVE_SOURCE = {"f": "exp(-t)*sin(x)", "r0": "1 + t",
                 "r1": [{"harmonic": 1, "kind": "cos", "coeff": 1.0}]}
_AMPLITUDE_SOURCE = {"f": "sin(x) + 0.3*sin(3*x)", "r0": "1 + t"}



def _phi0_data(h):
    """invert1 data whose phi0 is sampled from an expression at step h."""
    return {"x0": PI / 2, "phi0": {"expr": "t^2", "T": 3.0, "h": h},
            "chi": [{"harmonic": 1, "kind": "cos", "coeff": -1.0}]}


def _phi0_samples(grid):
    """invert1 data whose phi0 is a sample table on the given grid."""
    return {"x0": PI / 2,
            "phi0": {"grid": grid, "values": [0.0] * len(grid)},
            "chi": [{"harmonic": 1, "kind": "cos", "coeff": -1.0}]}


# (command, config overrides, observation data or None)
_EXIT_2_INPUTS = {
    "sl_grid_n_4": ("study", dict(basis={
        "domain": "sturm_liouville", "lengths": [PI], "M": 1, "grid_n": 4}),
        None),
    "rectangle_one_length": ("study", dict(basis={
        "domain": "rectangle", "lengths": [PI], "M": 2}), None),
    "sl_nonpositive_a": ("study", dict(basis={
        "domain": "sturm_liouville", "lengths": [PI], "M": 1, "grid_n": 64,
        "a": "x - 1"}), None),
    "sl_a_is_a_list": ("study", dict(basis={
        "domain": "sturm_liouville", "lengths": [PI], "M": 1, "grid_n": 64,
        "a": [1.0, 2.0]}), None),
    "sl_c_is_an_object": ("study", dict(basis={
        "domain": "sturm_liouville", "lengths": [PI], "M": 1, "grid_n": 64,
        "c": {"x": 1}}), None),
    "roundtrip2_time_varying_f": ("study", dict(
        study="roundtrip2", source={"f": "exp(-t)*sin(x)", "r0": "1 + t"},
        observation={"x0": PI / 2, "t0": 3.0}), None),
    "roundtrip1_without_x0": ("study", dict(
        study="roundtrip1", source=_DRIVE_SOURCE), None),
    "roundtrip3_without_x0": ("study", dict(
        study="roundtrip3", source=_DRIVE_SOURCE,
        observation={"t0": 3.0}), None),
    "roundtrip1_x0_of_two_numbers": ("study", dict(
        study="roundtrip1", source=_DRIVE_SOURCE,
        observation={"x0": [PI / 2, 1.0]}), None),
    "roundtrip1_nan_x0": ("study", dict(
        study="roundtrip1", source=_DRIVE_SOURCE,
        observation={"x0": math.nan}), None),
    **{f"roundtrip1_x0_{x0:g}_off_domain": ("study", dict(
        study="roundtrip1", source=_DRIVE_SOURCE,
        observation={"x0": x0}), None) for x0 in (5.0, -2.0)},
    "roundtrip3_x0_off_rectangle": ("study", dict(
        study="roundtrip3",
        basis={"domain": "rectangle", "lengths": [PI, 1.0], "M": 2},
        source={"f": "sin(x1)*sin(pi*x2)", "r0": "1 + t"},
        observation={"x0": [1.0, 1.5], "t0": 3.0}), None),
    "invert1_config_x0_off_domain": ("invert1", dict(
        source=_DRIVE_SOURCE, observation={"x0": 5.0}),
        {"phi0": {"expr": "t^2", "T": 1.0},
         "chi": [{"harmonic": 1, "kind": "cos", "coeff": -1.0}]}),
    "data_x0_off_domain": ("invert1", dict(source=_DRIVE_SOURCE),
                           dict(_phi0_data(1e-3), x0=-2.0)),
    "invert1_without_x0": ("invert1", dict(source=_DRIVE_SOURCE),
                           {"phi0": {"expr": "t^2", "T": 1.0},
                            "chi": [{"harmonic": 1, "kind": "cos",
                                     "coeff": -1.0}]}),
    "invert3_without_x0": ("invert3", dict(source={"f": "sin(x)",
                                                   "r0": "1 + t"}),
                           {"t0": 3.0, "psi": {"expr": "sin(x)"},
                            "chi": [{"harmonic": 1, "kind": "cos",
                                     "coeff": -1.0}]}),
    "invert2_without_t0": ("invert2", dict(source={"f": "sin(x)",
                                                   "r0": "1 + t"}),
                           {"psi": {"expr": "sin(x)"}}),
    "data_x0_of_two_numbers": ("invert2", dict(source={"f": "sin(x)",
                                                       "r0": "1 + t"}),
                               {"x0": [1.0, 1.0], "t0": 3.0,
                                "psi": {"expr": "sin(x)"}}),
    "tolerance_name_typo": ("study", dict(
        tolerances={"slope_order2_mx": -99}), None),
    "tolerance_not_a_number": ("study", dict(
        tolerances={"slope_order2_max": "abc"}), None),
    "removed_output_format": ("study", dict(output={"format": "json"}), None),
    "removed_seed": ("study", dict(seed=0), None),
    "roundtrip2_trace_h_zero": ("study", dict(
        study="roundtrip2", source=_AMPLITUDE_SOURCE,
        grid={"T": 3.0, "trace_h": 0}, observation={"x0": PI / 2}), None),
    "roundtrip2_negative_t0": ("study", dict(
        study="roundtrip2", source=_AMPLITUDE_SOURCE,
        observation={"x0": PI / 2, "t0": -1}), None),
    "invert2_negative_t0": ("invert2", dict(
        source=_AMPLITUDE_SOURCE, observation={"x0": PI / 2, "t0": -1}),
        {"psi": {"expr": "sin(x)"}}),
    "data_nan_t0": ("invert2", dict(source=_AMPLITUDE_SOURCE),
                    {"t0": math.nan, "psi": {"expr": "sin(x)"}}),
    "drive_exp_of_phase": ("forward", dict(
        source={"f": "sin(x)", "r": "exp(sin(tau))"}), None),
    "drive_fractional_power_of_phase": ("forward", dict(
        source={"f": "sin(x)", "r": "cos(tau)^0.5"}), None),
    "drive_rational_in_phase": ("forward", dict(
        source={"f": "sin(x)", "r": "1/(2+cos(tau))"}), None),
    "removed_n_tau": ("forward", dict(grid={"T": 3.0, "n_tau": 64}), None),
    "omega_over_work_cap": ("forward", dict(omega=[1e7]), None),
    "forward_n_out_zero": ("forward", dict(grid={"T": 3.0, "n_out": 0}), None),
    "forward_n_out_negative": ("forward", dict(grid={"T": 3.0, "n_out": -3}),
                               None),
    "data_psi_table_lengths_differ": ("invert2", dict(
        source=_AMPLITUDE_SOURCE, observation={"t0": 3.0}),
        {"psi": {"points": [0.5, 1.5, 2.5], "values": [1.0, 0.5]}}),
    "data_psi_table_not_increasing": ("invert2", dict(
        source=_AMPLITUDE_SOURCE, observation={"t0": 3.0}),
        {"psi": {"points": [0.5, 2.5, 1.5], "values": [1.0, 0.5, 0.2]}}),
    "data_psi_table_on_rectangle": ("invert2", dict(
        basis={"domain": "rectangle", "lengths": [PI, 1.0], "M": 2},
        source={"f": "sin(x1)*sin(pi*x2)", "r0": "1 + t"},
        observation={"t0": 3.0}),
        {"psi": {"points": [0.5, 1.5, 2.5], "values": [1.0, 0.5, 0.2]}}),
    "data_psi_table_short_of_domain": ("invert2", dict(
        source=_AMPLITUDE_SOURCE, observation={"t0": 3.0}),
        {"psi": {"points": np.linspace(1.0, 2.0, 11).tolist(),
                 "values": np.sin(np.linspace(1.0, 2.0, 11)).tolist()}}),
    "data_psi_coeffs_not_m": ("invert2", dict(
        source=_AMPLITUDE_SOURCE, observation={"t0": 3.0}),
        {"psi": {"coeffs": [1.0, 0.5]}}),
    "invert1_t0_past_phi0": ("invert1", dict(source=_DRIVE_SOURCE),
                             {"x0": PI / 2, "t0": 2.0,
                              "phi0": {"expr": "t^2", "T": 1.0},
                              "chi": [{"harmonic": 1, "kind": "cos",
                                       "coeff": -1.0}]}),
    "roundtrip2_t0_off_trace_grid": ("study", dict(
        study="roundtrip2", source=_AMPLITUDE_SOURCE,
        grid={"T": 3.0, "trace_h": 1e-3},
        observation={"x0": PI / 2, "t0": 2.0004}), None),
    "data_phi0_h_zero": ("invert1", dict(source=_DRIVE_SOURCE),
                         _phi0_data(0)),
    "data_phi0_h_negative": ("invert1", dict(source=_DRIVE_SOURCE),
                             _phi0_data(-0.001)),
    "data_phi0_h_over_work_cap": ("invert1", dict(source=_DRIVE_SOURCE),
                                  _phi0_data(1e-9)),
    **{f"data_phi0_grid_of_{n}_nodes": (
        "invert1", dict(source=_DRIVE_SOURCE),
        _phi0_samples(np.linspace(0.0, 3.0, n).tolist()))
       for n in (2, 3, 4, 5)},
    "data_phi0_grid_to_inf": ("invert1", dict(source=_DRIVE_SOURCE),
                              _phi0_samples([0.0, math.inf])),
    "data_phi0_grid_not_from_0": ("invert1", dict(source=_DRIVE_SOURCE), {
        "x0": PI / 2,
        "phi0": {"grid": np.linspace(0.5, 3.5, 31).tolist(),
                 "values": ((np.linspace(0.5, 3.5, 31) - 0.5) ** 2).tolist()},
        "chi": [{"harmonic": 1, "kind": "cos", "coeff": -1.0}]}),
    "data_phi0_step_squared_overflows": (
        "invert1", dict(source=_DRIVE_SOURCE),
        _phi0_samples([1e200 * i for i in range(6)])),
    "data_phi0_step_squared_underflows": (
        "invert1", dict(source=_DRIVE_SOURCE),
        _phi0_samples([1e-200 * i for i in range(6)])),
    "interval_table_over_work_cap": ("study", dict(
        basis={"domain": "interval", "lengths": [PI], "M": 200000},
        grid={"T": 0.001, "trace_h": 1}), None),
    "data_chi_grid_h_zero": ("invert3", dict(
        source=_AMPLITUDE_SOURCE, observation={"x0": PI / 2, "t0": 3.0}),
        {"psi": {"expr": "sin(x)"},
         "chi": [{"harmonic": 1, "kind": "cos", "coeff": -1.0}],
         "chi_grid": {"T": 3.0, "h": 0}}),
    "interval_with_sl_keys": ("forward", dict(basis={
        "domain": "interval", "lengths": [1, 7], "M": 1, "a": "5 + x",
        "grid_n": 3}), None),
    "interval_with_a": ("forward", dict(basis={
        "domain": "interval", "lengths": [PI], "M": 1, "a": "5 + x"}), None),
    "interval_with_c": ("forward", dict(basis={
        "domain": "interval", "lengths": [PI], "M": 1, "c": "1"}), None),
    "rectangle_with_grid_n": ("forward", dict(
        basis={"domain": "rectangle", "lengths": [PI, 1.0], "M": 1,
               "grid_n": 64},
        source={"f": "sin(x1)*sin(pi*x2)", "r": "cos(tau)"}), None),
    "interval_two_lengths": ("forward", dict(basis={
        "domain": "interval", "lengths": [1, 7], "M": 1}), None),
    "rectangle_three_lengths": ("forward", dict(
        basis={"domain": "rectangle", "lengths": [PI, 1.0, 2.0], "M": 1},
        source={"f": "sin(x1)*sin(pi*x2)", "r": "cos(tau)"}), None),
    "sturm_liouville_two_lengths": ("forward", dict(basis={
        "domain": "sturm_liouville", "lengths": [PI, 1.0], "M": 1,
        "grid_n": 64}), None),
}

# the cases whose message must name the offending key
_EXIT_2_NAMES = {"roundtrip2_trace_h_zero": "trace_h",
                 "roundtrip2_negative_t0": "t0", "invert2_negative_t0": "t0",
                 "data_nan_t0": "t0", "removed_n_tau": "n_tau",
                 "omega_over_work_cap": "cap", "forward_n_out_zero": "n_out",
                 "forward_n_out_negative": "n_out",
                 "data_psi_table_lengths_differ": "psi",
                 "data_psi_table_not_increasing": "psi",
                 "data_psi_table_on_rectangle": "psi",
                 "data_psi_table_short_of_domain": "psi",
                 "data_psi_coeffs_not_m": "psi.coeffs",
                 "invert1_t0_past_phi0": "t0",
                 "roundtrip2_t0_off_trace_grid": "t0=2.0004",
                 "roundtrip1_x0_5_off_domain": "x0=5.0",
                 "roundtrip1_x0_-2_off_domain": "x0=-2.0",
                 "roundtrip3_x0_off_rectangle": "outside the domain",
                 "invert1_config_x0_off_domain": "x0=5.0",
                 "data_x0_off_domain": "x0=-2.0",
                 "data_phi0_h_zero": "phi0.h", "data_phi0_h_negative": "phi0.h",
                 "data_phi0_h_over_work_cap": "phi0.h",
                 "data_chi_grid_h_zero": "chi_grid.h",
                 "data_phi0_grid_of_2_nodes": "phi0.grid",
                 "data_phi0_grid_of_3_nodes": "phi0.grid",
                 "data_phi0_grid_of_4_nodes": "phi0.grid",
                 "data_phi0_grid_of_5_nodes": "phi0.grid",
                 "data_phi0_grid_to_inf": "phi0.grid",
                 "data_phi0_grid_not_from_0": "phi0.grid",
                 "data_phi0_step_squared_overflows": "phi0.grid",
                 "data_phi0_step_squared_underflows": "phi0.grid",
                 "interval_table_over_work_cap": "cap",
                 "interval_with_sl_keys": "'a', 'grid_n'",
                 "interval_with_a": "'a'", "interval_with_c": "'c'",
                 "rectangle_with_grid_n": "'grid_n'",
                 "interval_two_lengths": "lengths",
                 "rectangle_three_lengths": "lengths",
                 "sturm_liouville_two_lengths": "lengths"}


@pytest.mark.parametrize("case", sorted(_EXIT_2_INPUTS))
def test_invalid_input_exits_2_with_one_line(tmp_path, capsys, case):
    command, overrides, data = _EXIT_2_INPUTS[case]
    cfg = _write_config(tmp_path, **overrides)
    argv = [command, "--config", str(cfg),
            "--output-dir", str(tmp_path / "out")]
    if data is not None:
        dpath = tmp_path / "data.json"
        dpath.write_text(json.dumps(data))
        argv += ["--data", str(dpath)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert _EXIT_2_NAMES.get(case, "") in err


def test_forward_accepts_slow_trig_times_phase_harmonic(tmp_path):
    cfg = _write_config(tmp_path, source={"f": "sin(x)",
                                          "r": "cos(t)*cos(tau)"})
    assert main(["forward", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "run_forward_omega100.csv").exists()


def test_output_dir_override(tmp_path):
    cfg = _write_config(tmp_path)
    alt = tmp_path / "alt"
    assert main(["study", "--config", str(cfg),
                 "--output-dir", str(alt)]) == 0
    assert (alt / "run_order_study.csv").exists()


def test_invert_requires_data(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["invert1", "--config", str(cfg)]) == 2


# -- inversion CLI round trips -------------------------------------------------


@pytest.fixture()
def ip1_files(tmp_path):
    basis = build_dirichlet_interval_basis(PI, 1)
    grid = uniform_grid(3.0, 600).nodes
    exp = build_expansion(basis, "exp(-t)*sin(x)",
                          "1 + t + (1 + t/2)*cos(tau)", grid)
    phi0, _, _, _ = exp.trace_components(PI / 2, grid)
    data = {
        "x0": PI / 2,
        "phi0": {"grid": list(grid), "values": list(phi0.values)},
        "chi": [{"harmonic": 1, "kind": "cos",
                 "coeff": "-(1 + t/2)*exp(-t)"}],
    }
    dpath = tmp_path / "data.json"
    dpath.write_text(json.dumps(data))
    cfg = _write_config(tmp_path, source={"f": "exp(-t)*sin(x)",
                                          "r0": "1 + t"},
                        observation={"x0": PI / 2})
    return cfg, dpath


def test_invert1_cli_roundtrip(tmp_path, ip1_files):
    cfg, dpath = ip1_files
    assert main(["invert1", "--config", str(cfg), "--data", str(dpath)]) == 0
    _, r0_tab = _read_csv(tmp_path / "out" / "run_recovered_r0.csv")
    err = np.max(np.abs(r0_tab[:, 1] - (1 + r0_tab[:, 0])))
    # the Nystrom recovery errs 2.76e-9 on these data; phi0 scaled by
    # (1 + 2.2e-16 N(0, 1)) moved it between 9.6e-10 and 8.7e-9 over 1000
    # draws, so 1e-7 is more than ten times the widest draw
    assert err < 1e-7
    header, r1_tab = _read_csv(tmp_path / "out" / "run_recovered_r1.csv")
    assert header == ["t", "cos1"]
    np.testing.assert_allclose(r1_tab[:, 1], 1 + r1_tab[:, 0] / 2, atol=1e-9)
    adm = json.loads((tmp_path / "out" / "run_admissibility.json").read_text())
    assert adm["passed"] is True


def test_invert1_cli_on_expression_phi0(tmp_path):
    # phi0 = u0(x0, t) of r0 = 1 + t for mode 1: phi0'' is exact, so the
    # recovery has no differencing noise
    data = {"x0": PI / 2,
            "phi0": {"expr": "1 + t - cos(t) - sin(t)", "T": 3.0, "h": 1e-3},
            "chi": [{"harmonic": 1, "kind": "cos", "coeff": -1.0}]}
    dpath = tmp_path / "data.json"
    dpath.write_text(json.dumps(data))
    cfg = _write_config(tmp_path, source={"f": "sin(x)", "r0": "1 + t"},
                        observation={"x0": PI / 2})
    assert main(["invert1", "--config", str(cfg), "--data", str(dpath)]) == 0
    _, r0_tab = _read_csv(tmp_path / "out" / "run_recovered_r0.csv")
    assert np.max(np.abs(r0_tab[:, 1] - (1 + r0_tab[:, 0]))) < 1e-12


@pytest.fixture()
def ip2_files(tmp_path):
    basis = build_dirichlet_interval_basis(PI, 4)
    grid = uniform_grid(3.0, 4096).nodes
    fm = np.array([np.sqrt(PI / 2), 0.0, 0.3 * np.sqrt(PI / 2), 0.0])
    lamv = np.array([duhamel_batch(1 + grid, [lam], grid)[0, -1]
                     for lam in basis.eigenvalues])
    data = {"x0": PI / 2, "t0": 3.0, "psi": {"coeffs": list(fm * lamv)}}
    dpath = tmp_path / "data2.json"
    dpath.write_text(json.dumps(data))
    cfg = _write_config(tmp_path,
                        basis={"domain": "interval", "lengths": [PI], "M": 4},
                        source={"f": "sin(x) + 0.3*sin(3*x)", "r0": "1 + t"},
                        observation={"x0": PI / 2, "t0": 3.0})
    return cfg, dpath, fm


def test_invert2_cli_roundtrip(tmp_path, ip2_files):
    cfg, dpath, fm = ip2_files
    assert main(["invert2", "--config", str(cfg), "--data", str(dpath)]) == 0
    _, tab = _read_csv(tmp_path / "out" / "run_recovered_f.csv")
    np.testing.assert_allclose(tab[:, 2], fm, atol=1e-9)
    payload = json.loads(
        (tmp_path / "out" / "run_admissibility.json").read_text())
    assert payload["admissibility"]["passed"] is True
    assert payload["boundary_trace"]["passed"] is True


def test_invert2_computes_mode_responses_once(tmp_path, ip2_files,
                                             monkeypatch):
    calls = []
    real = inverse.slow_responses
    monkeypatch.setattr(inverse, "slow_responses",
                        lambda *a: calls.append(1) or real(*a))
    cfg, dpath, _ = ip2_files
    assert main(["invert2", "--config", str(cfg), "--data", str(dpath)]) == 0
    assert len(calls) == 1


def test_invert2_rejects_resonant_time(tmp_path, ip2_files):
    cfg, dpath, fm = ip2_files
    # constant drive observed after whole periods: every mode response is 0
    bad_data = json.loads(dpath.read_text())
    bad_data["t0"] = 2 * PI
    bpath = tmp_path / "bad_data.json"
    bpath.write_text(json.dumps(bad_data))
    bad_cfg = _write_config(tmp_path, name="bad.json",
                            basis={"domain": "interval", "lengths": [PI],
                                   "M": 4},
                            source={"f": "sin(x)", "r0": "1"},
                            observation={"x0": PI / 2})
    assert main(["invert2", "--config", str(bad_cfg),
                 "--data", str(bpath)]) == 2


def test_invert3_cli_roundtrip(tmp_path, ip2_files):
    cfg, dpath, fm = ip2_files
    # extend the psi-only data with the fast-phase observation
    data = json.loads(dpath.read_text())
    fx0 = float(fm[0] * np.sqrt(2 / PI) - fm[2] * np.sqrt(2 / PI))
    data["chi"] = [{"harmonic": 1, "kind": "cos",
                    "coeff": f"-({fx0})*(1 + t/2)"}]
    data["chi_grid"] = {"T": 3.0, "h": 1e-3}
    dpath.write_text(json.dumps(data))
    assert main(["invert3", "--config", str(cfg), "--data", str(dpath)]) == 0
    _, tab = _read_csv(tmp_path / "out" / "run_recovered_f.csv")
    np.testing.assert_allclose(tab[:, 2], fm, atol=1e-9)
    header, r1_tab = _read_csv(tmp_path / "out" / "run_recovered_r1.csv")
    np.testing.assert_allclose(r1_tab[:, 1], 1 + r1_tab[:, 0] / 2, atol=1e-8)
    assert (tmp_path / "out" / "run_consistency.json").exists()


def test_selftest_subset(capsys):
    assert main(["selftest", "--only", "corner_values_example",
                 "oscillatory_rule_exact"]) == 0
    out = capsys.readouterr().out
    assert "2/2 checks passed" in out


def _child_env():
    # the child finds the package under test even from an uninstalled checkout
    pkg_root = os.path.dirname(os.path.dirname(oscinv.__file__))
    path = os.pathsep.join(filter(None, [pkg_root,
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "oscinv.cli", "selftest", "--only",
         "corner_values_example"],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0


_NO_SCIPY_SCRIPT = """
import json, sys
def scipy_loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)
import oscinv
assert not scipy_loaded(), "import oscinv loaded scipy"
from oscinv.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0
    assert not scipy_loaded(), f"{argv} loaded scipy"
"""


def _assert_no_scipy(commands):
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(commands)],
        capture_output=True, text=True, timeout=300, env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_interval_studies_never_import_scipy(tmp_path):
    # scipy serves only tabulated psi fields; every sample config is on an
    # interval
    configs = sorted(str(p) for p in (pathlib.Path(__file__).resolve()
                                      .parents[1] / "configs").glob("*.json"))
    assert configs
    _assert_no_scipy([["study", "--config", c, "--output-dir", str(tmp_path)]
                      for c in configs])


def test_sturm_liouville_study_never_imports_scipy(tmp_path):
    # the Sturm-Liouville basis is Chebyshev collocation in numpy: no
    # eigensolver or spline from scipy
    cfg = _write_config(
        tmp_path, basis={"domain": "sturm_liouville", "lengths": [PI],
                         "M": 4, "a": "1 + x/2", "c": "x"},
        source={"f": "exp(-t)*sin(x)", "r0": "1 + t",
                "r1": [{"harmonic": 1, "kind": "cos", "coeff": "1 + t/2"}]},
        omega=[50.0, 100.0], grid={"T": 1.0}, study="order")
    _assert_no_scipy([["study", "--config", str(cfg)]])


def test_selftest_never_imports_scipy():
    # volterra_residual integrates by its own Simpson rule
    _assert_no_scipy([["selftest"]])


def test_invert1_on_sampled_data_never_imports_scipy(ip1_files):
    # the recovered r0 keeps its Chebyshev table, so the admissibility
    # report reads r0(0), r0(t0) and Lambda_m(t0) with no spline
    cfg, dpath = ip1_files
    _assert_no_scipy([["invert1", "--config", str(cfg), "--data", str(dpath)]])
