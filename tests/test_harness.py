import math
from pathlib import Path

import numpy as np
import pytest

from oscinv import inverse
from oscinv.config import config_from_dict
from oscinv.harness import (StudyReport, emit_report, fit_slope, format_float,
                            json_bytes, run_order_study, run_roundtrip)

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


def test_roundtrip2_computes_mode_responses_once(monkeypatch):
    # ip2_recover's Lambda_m(t0) also feeds the admissibility report
    calls = []
    real = inverse._mode_responses
    monkeypatch.setattr(inverse, "_mode_responses",
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
