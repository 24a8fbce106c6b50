import json

import numpy as np
import pytest

from oscinv.config import (ConfigError, DEFAULT_TOLERANCES, config_from_dict,
                           load_config, load_observation, make_basis,
                           make_source)
from oscinv.traces import uniform_grid

PI = np.pi

GOOD = {
    "basis": {"domain": "interval", "lengths": [PI], "M": 3},
    "source": {"f": "sin(x)", "r": "1 + t + cos(tau)"},
    "omega": [50.0, 100.0],
    "grid": {"T": 3.0, "points_per_period": 32},
    "observation": {"x0": PI / 2, "t0": 3.0},
    "output": {"dir": "out", "prefix": "demo", "format": "json"},
    "study": "order",
}


def test_good_config_roundtrip():
    cfg = config_from_dict(GOOD)
    assert cfg.basis.M == 3
    assert cfg.omegas == (50.0, 100.0)
    assert cfg.observation.x0 == pytest.approx(PI / 2)
    assert cfg.output.fmt == "json"
    assert cfg.tolerances["slope_order2_max"] == DEFAULT_TOLERANCES["slope_order2_max"]


def test_tolerance_override_merges():
    d = dict(GOOD, tolerances={"r0_sup": 1e-3})
    cfg = config_from_dict(d)
    assert cfg.tolerances["r0_sup"] == 1e-3
    assert cfg.tolerances["fm_rel"] == DEFAULT_TOLERANCES["fm_rel"]


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(dict(GOOD, omga=[50.0]))


def test_unknown_section_key_rejected():
    bad = dict(GOOD, basis={"domain": "interval", "modes": 3})
    with pytest.raises(ConfigError):
        config_from_dict(bad)


def test_omega_must_increase():
    with pytest.raises(ConfigError):
        config_from_dict(dict(GOOD, omega=[100.0, 50.0]))
    with pytest.raises(ConfigError):
        config_from_dict(dict(GOOD, omega=[50.0, 50.0]))


def test_omega_must_be_positive():
    with pytest.raises(ConfigError):
        config_from_dict(dict(GOOD, omega=[-10.0, 50.0]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_omega_must_be_finite(bad):
    with pytest.raises(ConfigError, match="finite"):
        config_from_dict(dict(GOOD, omega=[50.0, bad]))


@pytest.mark.parametrize("study", ["roundtrip2", "roundtrip3"])
def test_observation_time_within_horizon(study):
    late = {"x0": PI / 2, "t0": 3.5}
    with pytest.raises(ConfigError, match="final time"):
        config_from_dict(dict(GOOD, study=study, observation=late))
    cfg = config_from_dict(dict(GOOD, study=study))
    assert cfg.observation.t0 == cfg.grid.T


def test_scalar_omega_promoted():
    cfg = config_from_dict(dict(GOOD, omega=100.0))
    assert cfg.omegas == (100.0,)


def test_under_resolution_rejected():
    bad = dict(GOOD, grid={"T": 3.0, "points_per_period": 8})
    with pytest.raises(ConfigError):
        config_from_dict(bad)


def test_source_split_exclusivity():
    both = dict(GOOD, source={"f": "sin(x)", "r": "1 + cos(tau)",
                              "r0": "1"})
    with pytest.raises(ConfigError):
        config_from_dict(both)
    neither = dict(GOOD, source={"f": "sin(x)"})
    with pytest.raises(ConfigError):
        config_from_dict(neither)


def test_fast_term_validation():
    bad = dict(GOOD, source={"f": "sin(x)", "r0": "1",
                             "r1": [{"harmonic": 0, "kind": "cos",
                                     "coeff": 1.0}]})
    with pytest.raises(ConfigError):
        config_from_dict(bad)
    bad = dict(GOOD, source={"f": "sin(x)", "r0": "1",
                             "r1": [{"harmonic": 1, "kind": "tan",
                                     "coeff": 1.0}]})
    with pytest.raises(ConfigError):
        config_from_dict(bad)


def test_unknown_study_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(dict(GOOD, study="sweep"))


def test_unknown_domain_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(dict(GOOD, basis={"domain": "disk"}))


def test_bad_amplitude_expression_rejected():
    bad = dict(GOOD, source={"f": "sin(x*t)", "r0": "1"})
    cfg = config_from_dict(bad)
    with pytest.raises(ConfigError):
        make_source(cfg.source, uniform_grid(1.0, 10))


def test_load_config_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(GOOD))
    cfg = load_config(p)
    assert cfg.output.prefix == "demo"


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


def test_make_basis_variants():
    b1 = make_basis(config_from_dict(GOOD).basis)
    assert b1.kind == "interval" and b1.M == 3
    rect = config_from_dict(dict(GOOD, basis={"domain": "rectangle",
                                              "lengths": [PI, PI], "M": 4}))
    b2 = make_basis(rect.basis)
    assert b2.kind == "rectangle" and b2.dim == 2
    sl = config_from_dict(dict(GOOD, basis={"domain": "sturm_liouville",
                                            "lengths": [PI], "M": 2,
                                            "a": "1", "c": "0",
                                            "grid_n": 800}))
    b3 = make_basis(sl.basis)
    np.testing.assert_allclose(b3.eigenvalues, [1.0, 4.0], rtol=1e-4)


def test_make_source_split_form():
    cfg = config_from_dict(dict(GOOD, source={
        "f": "sin(x)", "r0": "1 + t",
        "r1": [{"harmonic": 1, "kind": "cos", "coeff": "1 + t/2"}]}))
    grid = uniform_grid(3.0, 100)
    amp, src = make_source(cfg.source, grid)
    np.testing.assert_allclose(src.r0.values, 1 + grid, atol=1e-14)
    np.testing.assert_allclose(src.r1.coefficient(1, "cos").values,
                               1 + grid / 2, atol=1e-14)


# -- observation data files ---------------------------------------------------


def test_load_observation_expr_trace():
    data = load_observation({
        "x0": 1.5, "t0": 3.0,
        "phi0": {"expr": "t^2*exp(-t)", "T": 3.0, "h": 1e-2},
        "chi": [{"harmonic": 1, "kind": "cos", "coeff": "-1 - t/2"}],
    })
    assert data.phi0.grid[-1] == 3.0
    assert data.chi.coefficient(1, "cos").values[0] == pytest.approx(-1.0)
    assert data.psi is None


def test_load_observation_tabulated_trace():
    g = uniform_grid(2.0, 50)
    data = load_observation({
        "x0": 1.0,
        "phi0": {"grid": list(g), "values": list(np.sin(g))},
    })
    np.testing.assert_allclose(data.phi0.values, np.sin(g), atol=1e-14)


def test_load_observation_psi_coeffs(interval_basis):
    data = load_observation({
        "x0": 1.0, "t0": 3.0,
        "psi": {"coeffs": [1.0] + [0.0] * 7},
    }, basis=interval_basis)
    assert data.psi.coeffs[0] == 1.0


def test_load_observation_psi_needs_basis():
    with pytest.raises(ConfigError):
        load_observation({"x0": 1.0, "psi": {"coeffs": [1.0]}})


def test_load_observation_from_file(tmp_path):
    p = tmp_path / "data.json"
    p.write_text(json.dumps({
        "x0": 1.0, "t0": 2.0,
        "phi0": {"expr": "t^2", "T": 2.0, "h": 0.1},
    }))
    data = load_observation(str(p))
    assert data.t0 == 2.0


def test_load_observation_unknown_key():
    with pytest.raises(ConfigError):
        load_observation({"x0": 1.0, "phi": {}})
