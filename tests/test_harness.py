import math
import sys
from pathlib import Path

import numpy as np
import pytest

from oscinv import harness, inverse
from oscinv.asymptotics import build_expansion
from oscinv.basis import build_dirichlet_interval_basis
from oscinv.config import config_from_dict, make_source
from oscinv.harness import (StudyReport, _synthetic_data, emit_report,
                            fit_slope, format_float, json_bytes,
                            run_order_study, run_roundtrip)
from oscinv.traces import uniform_grid

PI = math.pi


def _order_config(omegas=(100.0,), **overrides):
    d = {
        "basis": {"domain": "interval", "lengths": [PI], "M": 1},
        "source": {"f": "sin(x)", "r": "cos(tau)"},
        "omega": list(omegas),
        "grid": {"T": 3.0, "points_per_period": 32},
    }
    d.update(overrides)
    return config_from_dict(d)


def test_fit_slope_recovers_power_law():
    w = [50.0, 100.0, 200.0]
    res = [v ** -2.0 for v in w]
    assert fit_slope(w, res) == pytest.approx(-2.0, abs=1e-12)


def test_fit_slope_requires_three_points():
    with pytest.raises(ValueError):
        fit_slope([50.0, 100.0], [1.0, 0.5])


def test_fit_slope_zero_residuals():
    assert fit_slope([1.0, 2.0, 4.0], [0.0, 0.0, 0.0]) == -math.inf


def test_single_frequency_study_row(tmp_path):
    # pure fast drive at omega=100: the order-2 expansion residual is tiny
    rep = run_order_study(_order_config())
    assert rep.columns[:3] == ("omega", "residual_order0", "residual_order2")
    (row,) = rep.rows
    assert row[0] == 100.0
    assert row[2] <= 1e-6
    assert rep.passed          # no slope criteria with fewer than 3 omegas
    path = emit_report(rep, str(tmp_path / "study.csv"))
    text = Path(path).read_text().splitlines()
    assert text[0].startswith("omega,")
    assert text[1].startswith("100,")


def test_three_frequency_study_has_criteria():
    rep = run_order_study(_order_config(omegas=(50.0, 100.0, 200.0)))
    names = {c.name for c in rep.criteria}
    assert names == {"slope_order0", "slope_order2",
                     "omega2_residual_max_increase"}
    assert rep.passed


def test_report_bytes_deterministic():
    cfg = _order_config(omegas=(50.0, 100.0))
    a = json_bytes(run_order_study(cfg).to_dict())
    b = json_bytes(run_order_study(cfg).to_dict())
    assert a == b


def test_empty_report_emits_header_only(tmp_path):
    rep = StudyReport(kind="order",
                      columns=("omega", "residual_order0", "residual_order2"))
    path = emit_report(rep, str(tmp_path / "empty.csv"))
    assert Path(path).read_text() == "omega,residual_order0,residual_order2\n"


def test_json_report_suffix_dispatch(tmp_path):
    rep = run_order_study(_order_config())
    path = emit_report(rep, str(tmp_path / "study.json"))
    raw = Path(path).read_bytes()
    assert raw.startswith(b"{")
    assert b'"kind": "order"' in raw
    assert b"runtimes" not in raw     # wall-clock excluded from stable bytes


def test_float_formatting_17_digits():
    assert format_float(1 / 3) == "0.33333333333333331"
    assert format_float(100.0) == "100"


def test_json_bytes_sorted_and_special_values():
    raw = json_bytes({"b": 1.5, "a": float("nan"), "c": [True, None]})
    text = raw.decode()
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert '"nan"' in text and "true" in text and "null" in text


def test_roundtrip1_driver():
    cfg = config_from_dict({
        "basis": {"domain": "interval", "lengths": [PI], "M": 1},
        "source": {"f": "exp(-t)*sin(x)", "r0": "1 + t",
                   "r1": [{"harmonic": 1, "kind": "cos", "coeff": "1 + t/2"}]},
        "omega": [100.0],
        "grid": {"T": 3.0, "trace_h": 2e-3},
        "observation": {"x0": PI / 2},
        "study": "roundtrip1",
        "tolerances": {"r0_sup": 5e-4},
    })
    rep = run_roundtrip(cfg, 1)
    assert rep.kind == "roundtrip1"
    assert rep.passed
    assert rep.meta["admissibility"]["f_floor_ok"] is True


def test_roundtrip2_driver():
    cfg = config_from_dict({
        "basis": {"domain": "interval", "lengths": [PI], "M": 4},
        "source": {"f": "sin(x) + 0.3*sin(3*x)", "r0": "1 + t"},
        "omega": [100.0],
        "grid": {"T": 3.0, "trace_h": 2e-3},
        "observation": {"x0": PI / 2, "t0": 3.0},
        "study": "roundtrip2",
    })
    rep = run_roundtrip(cfg, 2)
    assert rep.passed
    assert {c.name for c in rep.criteria} == {"fm_rel_error",
                                              "boundary_trace_sup"}


@pytest.mark.parametrize("which", [2, 3])
def test_rectangle_roundtrips(which):
    # boundary_points and interior_sample_points of a two-dimensional basis
    source = {"f": "sin(x1)*sin(1.5707963267948966*x2)", "r0": "1 + t"}
    if which == 3:
        source["r1"] = [{"harmonic": 1, "kind": "cos", "coeff": "1 + t/2"}]
    cfg = config_from_dict({
        "basis": {"domain": "rectangle", "lengths": [PI, 2.0], "M": 6},
        "source": source,
        "omega": [100.0, 400.0] if which == 3 else [100.0],
        "grid": {"T": 3.0, "trace_h": 1e-3},
        "observation": {"x0": [PI / 2, 1.0], "t0": 3.0},
        "study": f"roundtrip{which}",
    })
    rep = run_roundtrip(cfg, which)
    assert rep.passed
    values = {c.name: c.value for c in rep.criteria}
    assert values["fm_rel_error"] < 1e-13
    if which == 2:
        assert values["boundary_trace_sup"] < 1e-14
    else:
        assert values["r1_coeff_error"] < 1e-13
        assert 0 < values["trace_expansion_error"] < 1e-7


def test_roundtrip2_computes_mode_responses_once(monkeypatch):
    # ip2_recover's Lambda_m(t0) also feeds the admissibility report
    calls = []
    real = inverse.slow_responses
    monkeypatch.setattr(inverse, "slow_responses",
                        lambda *a: calls.append(1) or real(*a))
    cfg = config_from_dict({
        "basis": {"domain": "interval", "lengths": [PI], "M": 4},
        "source": {"f": "sin(x) + 0.3*sin(3*x)", "r0": "1 + t"},
        "omega": [100.0],
        "grid": {"T": 3.0, "trace_h": 2e-3},
        "observation": {"x0": PI / 2, "t0": 3.0},
        "study": "roundtrip2",
    })
    rep = run_roundtrip(cfg, 2)
    assert len(calls) == 1
    assert rep.meta["admissibility"]["m0_empty"] is True


@pytest.fixture(scope="module")
def truth32():
    basis = build_dirichlet_interval_basis(PI, 32)
    dgrid = uniform_grid(3.0, 6000)
    amp, src = make_source(config_from_dict({
        "basis": {"domain": "interval", "lengths": [PI], "M": 32},
        "source": {"f": "exp(-t/2)*(sin(x) + 0.3*sin(3*x))", "r0": "1 + t",
                   "r1": [{"harmonic": 1, "kind": "cos", "coeff": "1 + t/2"}]},
        "omega": [100.0]}).source, dgrid)
    return basis, dgrid, amp, src


def test_synthetic_data_with_expression_r0_runs_no_filon_pass(truth32,
                                                              monkeypatch):
    basis, dgrid, amp, src = truth32
    calls = []
    for name, mod in list(sys.modules.items()):
        if name.startswith("oscinv") and hasattr(mod, "duhamel_batch"):
            real = mod.duhamel_batch
            monkeypatch.setattr(
                mod, "duhamel_batch",
                lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    data = _synthetic_data(basis, amp, src, dgrid, x0=1.2, t0=2.0)
    assert calls == []
    assert data.phi0 is not None and data.psi is not None


def test_synthetic_data_matches_the_expansion(truth32):
    # the round trips observe the truth's expansion, here with a
    # time-varying amplitude and t0 inside the trace grid
    basis, dgrid, amp, src = truth32
    data = _synthetic_data(basis, amp, src, dgrid, x0=1.2, t0=2.0)
    exp2 = build_expansion(basis, amp, src, dgrid)
    phi0, chi = exp2.observed_traces(1.2, dgrid)
    assert np.array_equal(data.phi0.values, phi0.values)
    u0 = exp2.u0_table(dgrid)
    assert np.array_equal(data.psi.coeffs, u0.at(dgrid.nodes[4000]))
    # the table read at t0 against the table interpolated onto the grid
    u0_grid = u0.row(np.eye(basis.M), dgrid.nodes)
    assert np.max(np.abs(data.psi.coeffs - u0_grid[4000])) <= \
        1e-13 * np.max(np.abs(u0_grid))
    assert len(data.chi.terms) == len(chi.terms)
    for (k, kind, c), (k2, kind2, c2) in zip(data.chi.terms, chi.terms):
        assert (k, kind) == (k2, kind2)
        assert np.array_equal(c.values, c2.values)


def test_roundtrip3_builds_one_recovered_expansion(monkeypatch):
    # one expansion of the truth for the observations and one of the
    # recovered pieces, evaluated on every re-simulation grid
    calls = []
    real = harness.build_expansion
    monkeypatch.setattr(harness, "build_expansion",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    cfg = config_from_dict({
        "basis": {"domain": "interval", "lengths": [PI], "M": 4},
        "source": {"f": "sin(x) + 0.3*sin(3*x)", "r0": "1 + t",
                   "r1": [{"harmonic": 1, "kind": "cos", "coeff": "1 + t/2"}]},
        "omega": [100.0, 200.0, 400.0],
        "grid": {"T": 3.0, "points_per_period": 32, "trace_h": 2e-3},
        "observation": {"x0": PI / 2, "t0": 3.0},
        "study": "roundtrip3",
    })
    rep = run_roundtrip(cfg, 3)
    assert len(rep.rows) == 3
    assert len(calls) == 2


def test_roundtrip_amplitude_must_be_time_invariant_for_2_and_3():
    cfg = config_from_dict({
        "basis": {"domain": "interval", "lengths": [PI], "M": 2},
        "source": {"f": "exp(-t)*sin(x)", "r0": "1 + t"},
        "omega": [100.0],
        "grid": {"T": 3.0, "trace_h": 2e-3},
        "observation": {"x0": PI / 2, "t0": 3.0},
    })
    with pytest.raises(ValueError):
        run_roundtrip(cfg, 2)


def test_roundtrip_which_validated():
    with pytest.raises(ValueError):
        run_roundtrip(_order_config(), 4)
