import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscinv.basis import build_dirichlet_interval_basis, build_rectangle_basis
from oscinv.config import (ConfigError, DEFAULT_TOLERANCES, MAX_WORK,
                           config_from_dict, load_config, load_observation,
                           make_basis, make_source)
from oscinv.expressions import ExpressionError
from oscinv.traces import uniform_grid

PI = np.pi

GOOD = {
    "basis": {"domain": "interval", "lengths": [PI], "M": 3},
    "source": {"f": "sin(x)", "r": "1 + t + cos(tau)"},
    "omega": [50.0, 100.0],
    "grid": {"T": 3.0, "points_per_period": 32},
    "observation": {"x0": PI / 2, "t0": 3.0},
    "output": {"dir": "out", "prefix": "demo"},
    "study": "order",
}


def test_good_config_roundtrip():
    cfg = config_from_dict(GOOD)
    assert cfg.basis.M == 3
    assert cfg.omegas == (50.0, 100.0)
    assert cfg.observation.x0 == pytest.approx(PI / 2)
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


# largest single omega that keeps M=1, T=3, 32 points per period and the
# default trace_h (3000 trace nodes) at or under the work cap
_OMEGA_AT_CAP = (MAX_WORK - 3000) * 2 * math.pi / (3.0 * 32)


@pytest.mark.parametrize("factor, ok", [(0.999, True), (1.001, False)])
def test_work_cap_counts_forward_and_trace_nodes(factor, ok):
    d = dict(GOOD, basis={"M": 1}, omega=[_OMEGA_AT_CAP * factor])
    if ok:
        config_from_dict(d)
    else:
        with pytest.raises(ConfigError, match=f"cap of {MAX_WORK}"):
            config_from_dict(d)


@pytest.mark.parametrize("override", [
    {"grid": {"T": 3.0, "trace_h": 1e-8}},
    {"basis": {"domain": "sturm_liouville", "M": 64, "grid_n": 2 ** 20}},
    # one mode, but a dense collocation operator of up to 9000**2 entries
    {"basis": {"domain": "sturm_liouville", "M": 1, "grid_n": 9000}},
    {"basis": {"M": 10 ** 5}},
    # the basis's Gauss-node table: 2000 modes at 64,000 nodes
    {"basis": {"M": 2000}},
    # at least 1024 M Gauss nodes, checked before the candidate loop
    {"basis": {"domain": "rectangle", "lengths": [PI, 1.0], "M": 300}},
])
def test_work_cap_rejects_before_allocation(override):
    with pytest.raises(ConfigError, match="estimated work of .* exceeds"):
        config_from_dict(dict(GOOD, **override))


def test_make_basis_checks_the_exact_node_table():
    # passes the rectangle's lower bound, but its Gauss nodes number 327,680
    cfg = config_from_dict(dict(GOOD, basis={
        "domain": "rectangle", "lengths": [PI, 1.0], "M": 250}))
    with pytest.raises(ConfigError, match="81920000 mode-node entries"):
        make_basis(cfg.basis)


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
    grid = uniform_grid(3.0, 100).nodes
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
    g = uniform_grid(2.0, 50).nodes
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


# -- exit-code fuzz -------------------------------------------------------------

_NUM = st.one_of(st.floats(-4.0, 4.0),
                 st.sampled_from([0.0, math.nan, math.inf, -math.inf]))
_SPACE_EXPR = st.sampled_from(["1", "x - 1", "1 + x/2", "exp(x)", "sin(x)",
                               "-1", "y", "t", "1/x", "sin(", 0, 2.0, -1.0])
# JSON values of the wrong type for whatever key they land on
_JUNK = st.sampled_from([None, "abc", [], {}, [1.0], 2.5, True])
_X0 = st.one_of(st.none(), _NUM, st.lists(_NUM, max_size=3), _JUNK)
_BASIS = st.fixed_dictionaries({}, optional={
    "domain": st.sampled_from(["interval", "rectangle", "sturm_liouville",
                               "disk"]),
    "lengths": st.one_of(st.lists(_NUM, max_size=3), _JUNK),
    "M": st.one_of(st.integers(-1, 8), _JUNK),
    "grid_n": st.one_of(st.integers(-2, 64), _JUNK),
    "a": st.one_of(_SPACE_EXPR, _JUNK), "c": _SPACE_EXPR})
_CONFIG = st.fixed_dictionaries({
    "source": st.one_of(st.just({"f": "sin(x)", "r0": "1 + t"}),
                        st.fixed_dictionaries({"f": _JUNK, "r": _JUNK})),
    "basis": st.one_of(_BASIS, _JUNK),
}, optional={
    "study": st.sampled_from(["order", "roundtrip1", "roundtrip2",
                              "roundtrip3", "sweep"]),
    "observation": st.fixed_dictionaries(
        {}, optional={"x0": _X0, "t0": st.one_of(_NUM, _JUNK)}),
    "omega": st.one_of(st.lists(_NUM, max_size=3), _JUNK),
    "tolerances": st.dictionaries(
        st.sampled_from(sorted(DEFAULT_TOLERANCES)
                        + ["slope_order2_mx", "forward_rel"]),
        st.one_of(_NUM, st.booleans(), st.just("abc")), max_size=3),
    "grid": st.fixed_dictionaries({}, optional={
        "T": st.one_of(_NUM, _JUNK), "points_per_period": _JUNK}),
})
_OBSERVATION = st.fixed_dictionaries({}, optional={
    "x0": _X0,
    "t0": st.one_of(_NUM, _JUNK),
    "phi0": st.one_of(
        st.fixed_dictionaries(
            {"expr": st.sampled_from(["t^2", "t^2*exp(-t)", "x", "t^"])},
            optional={"T": st.sampled_from([1.0, 2.0]),
                      "h": st.sampled_from([0.1, 0.25])}),
        st.fixed_dictionaries({"grid": st.lists(_NUM, max_size=4)},
                              optional={"values": st.lists(_NUM, max_size=4)}),
        _JUNK),
    "chi": st.one_of(st.lists(st.fixed_dictionaries({}, optional={
        "harmonic": st.one_of(st.integers(0, 2), _JUNK),
        "kind": st.sampled_from(["cos", "sin", "tan"]),
        "coeff": st.sampled_from([1.0, "1 + t/2", "x", "t^"])}), max_size=2),
        _JUNK),
    "chi_grid": st.fixed_dictionaries({}, optional={
        "T": st.sampled_from([1.0, 2.0]), "h": st.sampled_from([0.1, 0.25])}),
    "psi": st.one_of(
        st.fixed_dictionaries({"expr": st.sampled_from(
            ["sin(x)", "sin(x1)*sin(x2)", "q"])}),
        st.fixed_dictionaries({"coeffs": st.lists(_NUM, max_size=8)}),
        st.fixed_dictionaries(
            {"points": st.one_of(st.lists(_NUM, max_size=4), _JUNK)},
            optional={"values": st.one_of(st.lists(_NUM, max_size=4),
                                          _JUNK)}),
        _JUNK),
})
_DOMAINS = {"interval": build_dirichlet_interval_basis(PI, 3),
            "rectangle": build_rectangle_basis((PI, 1.0), 3)}


@settings(max_examples=200, deadline=None)
@given(d=_CONFIG)
def test_config_fuzz_raises_only_config_errors(d):
    # small M and grid_n keep every basis that does get built tiny
    try:
        make_basis(config_from_dict(d).basis)
    except (ConfigError, ExpressionError):
        pass


@settings(max_examples=200, deadline=None)
@given(d=_OBSERVATION, domain=st.sampled_from(sorted(_DOMAINS) + [None]))
def test_observation_fuzz_raises_only_config_errors(d, domain):
    try:
        load_observation(d, basis=_DOMAINS.get(domain))
    except (ConfigError, ExpressionError):
        pass
