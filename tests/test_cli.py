import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oscinv
from oscinv.asymptotics import build_expansion, lambda_profile
from oscinv.cli import main
from oscinv.basis import build_dirichlet_interval_basis
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
    lines = open(path).read().splitlines()
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


@pytest.mark.parametrize("study", ["roundtrip2", "roundtrip3"])
def test_observation_after_final_time_exits_2(tmp_path, capsys, study):
    cfg = _roundtrip_config(tmp_path, study,
                            observation={"x0": PI / 2, "t0": 5.0})
    assert main(["study", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t0=5" in err
    assert len(err.strip().splitlines()) == 1


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
    grid = uniform_grid(3.0, 600)
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
    assert err < 1e-3                  # order-2 budget at h = 5e-3
    header, r1_tab = _read_csv(tmp_path / "out" / "run_recovered_r1.csv")
    assert header == ["t", "cos1"]
    np.testing.assert_allclose(r1_tab[:, 1], 1 + r1_tab[:, 0] / 2, atol=1e-9)
    adm = json.loads(open(tmp_path / "out" / "run_admissibility.json").read())
    assert adm["passed"] is True


@pytest.fixture()
def ip2_files(tmp_path):
    basis = build_dirichlet_interval_basis(PI, 4)
    grid = uniform_grid(3.0, 4096)
    fm = np.array([np.sqrt(PI / 2), 0.0, 0.3 * np.sqrt(PI / 2), 0.0])
    lamv = np.array([lambda_profile(1 + grid, lam, grid).values[-1]
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
    payload = json.loads(open(tmp_path / "out" / "run_admissibility.json").read())
    assert payload["admissibility"]["passed"] is True
    assert payload["boundary_trace"]["passed"] is True


def test_invert2_rejects_resonant_time(tmp_path, ip2_files):
    cfg, dpath, fm = ip2_files
    # constant drive observed after whole periods: every mode response is 0
    bad_data = json.loads(open(dpath).read())
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
    data = json.loads(open(dpath).read())
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


def test_console_script_runs():
    # the child finds the package under test even from an uninstalled checkout
    pkg_root = os.path.dirname(os.path.dirname(oscinv.__file__))
    path = os.pathsep.join(filter(None, [pkg_root,
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "oscinv.cli", "selftest", "--only",
         "corner_values_example"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
