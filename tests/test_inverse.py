import json
import pathlib

import numpy as np
import pytest

from oscinv import inverse, quadrature
from oscinv.asymptotics import build_expansion
from oscinv.basis import (SeparableAmplitude, SpatialField,
                          build_dirichlet_interval_basis)
from oscinv.config import config_from_dict, make_basis, make_source
from oscinv.harness import _synthetic_data, run_roundtrip
from oscinv.inverse import (AdmissibilityError, ObservationData,
                            check_admissibility, ip1_recover, ip2_recover,
                            ip3_recover)
from oscinv.quadrature import duhamel_batch
from oscinv.sources import FastProfile, rho0, split_source
from oscinv.traces import TimeTrace, uniform_grid
from oscinv.volterra import build_kernel, solve_second_kind

PI = np.pi
ROOT = pathlib.Path(__file__).resolve().parents[1]


# -- observation validation --------------------------------------------------


def test_validate_accepts_zero_data_trace(grid3):
    phi0 = TimeTrace.from_expr("t^2*exp(-t)", grid3)
    ObservationData(phi0=phi0, x0=1.0).validate()


def test_validate_rejects_nonzero_start(grid3):
    phi0 = TimeTrace.from_expr("1 + t", grid3)
    with pytest.raises(AdmissibilityError):
        ObservationData(phi0=phi0, x0=1.0).validate()


def test_validate_rejects_nonzero_initial_velocity(grid3):
    phi0 = TimeTrace.from_expr("t", grid3)
    with pytest.raises(AdmissibilityError):
        ObservationData(phi0=phi0, x0=1.0).validate()


def test_validate_rejects_nonpositive_t0(grid3):
    with pytest.raises(AdmissibilityError):
        ObservationData(t0=-1.0).validate()


# -- admissibility -----------------------------------------------------------


def test_admissibility_standard_setup(interval_basis):
    rep = check_admissibility(r0="1 + t", t0=3.0, basis=interval_basis,
                              f="sin(x)", x0=PI / 2)
    assert rep.contrast_ok and rep.m0_empty and rep.f_floor_ok
    assert rep.passed
    assert rep.c0_empirical > 1.0
    assert rep.c0_lower_estimate == pytest.approx(3.0, abs=1e-12)


def test_admissibility_contrast_failure(interval_basis):
    rep = check_admissibility(r0="exp(-t)", t0=3.0, basis=interval_basis)
    assert not rep.contrast_ok
    assert not rep.passed


def test_admissibility_resonant_observation_time():
    # constant drive observed after whole periods: every mode response is
    # (1 - cos(m t0))/m^2 = 0 at t0 = 2 pi
    basis = build_dirichlet_interval_basis(PI, 4)
    rep = check_admissibility(r0="1", t0=2 * PI, basis=basis)
    assert not rep.m0_empty
    assert rep.m0_modes == (1, 2, 3, 4)
    assert rep.min_response < 1e-8


def test_admissibility_amplitude_node():
    rep = check_admissibility(f="sin(2*x)", x0=PI / 2)
    assert not rep.f_floor_ok
    assert rep.f_abs_at_x0 < 1e-12


@pytest.mark.parametrize("M, backed", [(8, "samples"), (64, "expression")])
def test_lambda_fallbacks_are_the_filon_rule_bitwise(M, backed):
    # a sample-backed r0 (as invert1 recovers it), or a basis past the
    # Chebyshev node cap, gives Lambda_m(t0) off the uniform grid of
    # FALLBACK_INTERVALS by the Filon rule, as before the Chebyshev table
    basis = build_dirichlet_interval_basis(PI, M)
    coarse = uniform_grid(3.0, 300).nodes
    r0 = TimeTrace(coarse, 1.0 + coarse) if backed == "samples" else \
        TimeTrace.from_expr("1 + t", coarse)
    grid = uniform_grid(3.0, inverse.FALLBACK_INTERVALS).nodes
    want = duhamel_batch(r0.sample(grid), basis.eigenvalues, grid)[:, -1]
    fld = ip2_recover(SpatialField(coeffs=want, basis=basis), r0, 3.0, basis)
    assert np.array_equal(fld.meta["lambda_values"], want)
    rep = check_admissibility(r0=r0, t0=3.0, basis=basis)
    assert rep.min_response == np.min(np.abs(want))
    assert rep.c0_empirical == np.min(basis.eigenvalues * np.abs(want))


@pytest.mark.parametrize("backed", ["expression", "samples"])
def test_admissibility_with_held_responses_is_the_plain_report(
        interval_basis, backed):
    # the Lambda_m(t0) an amplitude recovery keeps give the report the
    # check computes itself
    coarse = uniform_grid(3.0, 300).nodes
    r0 = TimeTrace(coarse, 1.0 + coarse) if backed == "samples" else \
        TimeTrace.from_expr("1 + t", coarse)
    psi = SpatialField.from_expr("sin(x)")
    lamv = ip2_recover(psi, r0, 3.0, interval_basis).meta["lambda_values"]
    plain = check_admissibility(r0, 3.0, interval_basis, "sin(x)", 1.2)
    held = check_admissibility(r0, 3.0, interval_basis, "sin(x)", 1.2,
                               lambda_values=lamv)
    assert held.to_dict() == plain.to_dict()


def test_ip2_with_held_responses_divides_by_them_bitwise(interval_basis,
                                                         monkeypatch):
    psi = SpatialField.from_expr("sin(x) + 0.3*sin(3*x)")
    plain = ip2_recover(psi, "1 + t", 3.0, interval_basis)
    monkeypatch.setattr(inverse, "slow_responses", None)
    held = ip2_recover(psi, "1 + t", 3.0, interval_basis,
                       lambda_values=plain.meta["lambda_values"])
    assert np.array_equal(held.coeffs, plain.coeffs)
    assert np.array_equal(held.meta["lambda_values"],
                          plain.meta["lambda_values"])


def test_admissibility_report_serializes(interval_basis):
    rep = check_admissibility(r0="1 + t", t0=3.0, basis=interval_basis)
    d = rep.to_dict()
    assert d["passed"] is True
    assert isinstance(d["m0_modes"], list)


# -- drive recovery (known amplitude) -----------------------------------------


@pytest.fixture(scope="module")
def ip1_setup():
    basis = build_dirichlet_interval_basis(PI, 1)
    grid = uniform_grid(3.0, 1500).nodes
    fexpr = "exp(-t)*sin(x)"
    rexpr = "1 + t + (1 + t/2)*cos(tau)"
    exp = build_expansion(basis, fexpr, rexpr, grid)
    phi0, _, _, chi = exp.trace_components(PI / 2, grid)
    data = ObservationData(phi0=phi0, chi=chi, x0=PI / 2)
    return basis, grid, fexpr, data


def test_ip1_recovers_slow_drive(ip1_setup):
    basis, grid, fexpr, data = ip1_setup
    rec = ip1_recover(data, fexpr, basis)
    assert np.max(np.abs(rec.r0.values - (1 + grid))) < 1e-4


def test_ip1_recovers_fast_drive_exactly(ip1_setup):
    basis, grid, fexpr, data = ip1_setup
    rec = ip1_recover(data, fexpr, basis)
    np.testing.assert_allclose(rec.r1.coefficient(1, "cos").values,
                               1 + grid / 2, atol=1e-10)


def test_ip1_r0_keeps_its_table_for_the_admissibility_report(ip1_setup,
                                                              monkeypatch):
    # the report reads r0(0), r0(t0) and Lambda_m(t0) off the Nystrom
    # nodes, so it needs no spline and takes no Filon fallback
    basis, grid, fexpr, data = ip1_setup
    rec = ip1_recover(data, fexpr, basis)
    table = rec.r0.table
    assert table.a == grid[0] and table.b == grid[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("slow_responses fell back to duhamel_batch")

    monkeypatch.setattr(quadrature, "duhamel_batch", refuse)
    rep = check_admissibility(rec.r0, 2.0, basis)
    assert rep.r0_at_0 == table.values[0]
    assert rep.r0_at_t0 == pytest.approx(3.0, abs=1e-6)
    # Lambda_1(t) = t + 1 - cos t - sin t for r0 = 1 + t and lam_1 = 1
    assert rep.min_response == pytest.approx(3.0 - np.cos(2.0) - np.sin(2.0),
                                             rel=1e-6)


def test_ip1_needs_both_observations(ip1_setup):
    basis, grid, fexpr, data = ip1_setup
    with pytest.raises(AdmissibilityError):
        ip1_recover(ObservationData(phi0=data.phi0, x0=data.x0), fexpr, basis)


def test_ip1_rejects_amplitude_node(ip1_setup):
    basis, grid, _, data = ip1_setup
    with pytest.raises(AdmissibilityError):
        ip1_recover(data, "sin(2*x)", basis)


def test_ip1_refuses_an_observation_point_where_every_mode_vanishes():
    # x0 on the boundary of [0, pi/2]: the trace carries nothing, while
    # the amplitude exp(-t)*sin(x) is 1 there and passes its own floor
    basis = build_dirichlet_interval_basis(PI / 2, 3)
    grid = uniform_grid(3.0, 600)
    fexpr = "exp(-t)*sin(x)"
    exp = build_expansion(basis, fexpr, "1 + t + cos(tau)", grid)
    phi0, chi = exp.observed_traces(PI / 2, grid)
    data = ObservationData(phi0=phi0, chi=chi, x0=PI / 2)
    with pytest.raises(AdmissibilityError, match="every eigenfunction"):
        ip1_recover(data, fexpr, basis)


def _spy(monkeypatch, name):
    """Record the results of every call of inverse.<name>."""
    results = []
    real = getattr(inverse, name)
    monkeypatch.setattr(inverse, name,
                        lambda *a: results.append(real(*a)) or results[-1])
    return results


def _drive_config(**overrides):
    cfg = json.loads((ROOT / "configs" / "roundtrip_drive.json").read_text())
    for key, value in overrides.items():
        cfg[key].update(value)
    return config_from_dict(cfg)


def test_ip1_falls_back_to_the_march_past_the_largest_table(monkeypatch):
    # an r0 of rate 120 over a span of 3 (57 periods) needs more than
    # chebyshev.N_MAX nodes: drive recovery is then the march, unchanged
    cfg = _drive_config(source={"r0": "2 + cos(120*t)"})
    basis = make_basis(cfg.basis)
    grid = uniform_grid(3.0, 3000)
    amp, src = make_source(cfg.source, grid, basis)
    data = _synthetic_data(basis, amp, src, grid, x0=cfg.observation.x0)
    nodal = _spy(monkeypatch, "solve_chebyshev")
    marched = _spy(monkeypatch, "solve_second_kind")
    rec = ip1_recover(data, amp, basis)
    assert nodal == [None] and len(marched) == 1
    want = solve_second_kind(amp.at_point(PI / 2, grid),
                             build_kernel(basis, amp, PI / 2),
                             data.phi0.derivative(2))
    assert np.array_equal(rec.r0.values, want.values)


# round trip 1 of perfbench's roundtrip_cli at the corners of its draws:
# the weight c of sin(3x) in [0.2, 0.4] and x0 in pi/2 +- 0.1
_RT1_CLI = [dict(basis={"M": 32},
                 source={"f": f"exp(-t)*(sin(x) + {c!r}*sin(3*x))",
                         "r1": [{"harmonic": 1, "kind": "cos",
                                 "coeff": "1 + 0.5*t"}]},
                 grid={"trace_h": 1e-4},
                 observation={"x0": PI / 2 + dx})
            for c in (0.2, 0.4) for dx in (-0.1, 0.1)]


@pytest.mark.parametrize("overrides", [{}] + _RT1_CLI)
def test_ip1_solves_sample_roundtrips_without_the_march(monkeypatch,
                                                        overrides):
    nodal = _spy(monkeypatch, "solve_chebyshev")
    marched = _spy(monkeypatch, "solve_second_kind")
    assert run_roundtrip(_drive_config(**overrides), 1).passed
    assert len(nodal) == 1 and nodal[0] is not None and not marched


def test_phase_data_inverts_to_chi(grid3):
    # the second phase derivative then double antiderivative is the identity
    # on zero-mean trig profiles, which is what makes chi usable directly
    chi = FastProfile.from_specs([(1, "cos", "1 - t/4"), (3, "sin", 0.2)],
                                 grid3)
    back = rho0(chi.tau_derivative(2))
    assert (back - chi).max_abs < 1e-12


def test_ip1_targets_single_mode_geometry(grid3):
    # the order-1 and order-2 targets of the ip1/ip3 composite trace
    basis = build_dirichlet_interval_basis(PI, 1)
    _, phi1, phi2, _ = build_expansion(
        basis, "sin(x)", "(1 + t/2)*cos(tau)", grid3).trace_components(
            PI / 2, grid3)
    # corners rho0(0,0) = -1, rho0_tau(0,0) = 0, rho0_t(0,0) = -0.5, with
    # fm(0) = sqrt(pi/2), fm'(0) = 0, y1(x0) = sqrt(2/pi)
    np.testing.assert_allclose(phi1.values, 0.0, atol=1e-12)
    expect = np.cos(grid3) - 0.5 * np.sin(grid3)
    np.testing.assert_allclose(phi2.values, expect, atol=1e-12)


# -- amplitude recovery (known slow drive) -------------------------------------


def test_ip2_identity_roundtrip(interval_basis, grid3):
    fm = np.array([1.0, -0.4, 0.3, 0.0, 0.05, 0.0, 0.0, 0.01])
    lamv = np.array([duhamel_batch(1 + grid3, [lam], grid3)[0, -1]
                     for lam in interval_basis.eigenvalues])
    psi = SpatialField(coeffs=fm * lamv, basis=interval_basis)
    fld = ip2_recover(psi, TimeTrace.from_expr("1 + t", grid3), 3.0,
                      interval_basis)
    np.testing.assert_allclose(fld.coeffs, fm, atol=1e-10)
    assert fld.meta["boundary_report"].passed


def test_ip2_aborts_on_resonant_time(interval_basis):
    psi = SpatialField(coeffs=np.ones(8), basis=interval_basis)
    with pytest.raises(AdmissibilityError):
        ip2_recover(psi, "1", 2 * PI, interval_basis)


# -- combined recovery ---------------------------------------------------------


@pytest.fixture(scope="module")
def ip3_setup():
    basis = build_dirichlet_interval_basis(PI, 6)
    grid = uniform_grid(3.0, 1500).nodes
    r0 = TimeTrace.from_expr("1 + t", grid)
    fm = np.zeros(6)
    fm[0], fm[2] = np.sqrt(PI / 2), 0.3 * np.sqrt(PI / 2)
    lam_traces = np.vstack([duhamel_batch(r0.values, [lam], grid)[0]
                            for lam in basis.eigenvalues])
    psi = SpatialField(coeffs=fm * lam_traces[:, -1], basis=basis)
    w = basis.eval_modes(np.array([PI / 2]))[:, 0]
    phi0 = TimeTrace(grid, (fm * w) @ lam_traces)
    fx0 = float(fm @ w)
    chi = rho0(FastProfile.from_specs([(1, "cos", "1 + t/2")], grid)) \
        .scaled(TimeTrace.constant(fx0, grid))
    data = ObservationData(phi0=phi0, chi=chi, psi=psi, x0=PI / 2, t0=3.0)
    return basis, grid, r0, fm, data


def test_ip3_recovers_both_unknowns(ip3_setup):
    basis, grid, r0, fm, data = ip3_setup
    fld, r1 = ip3_recover(data, r0, basis)
    np.testing.assert_allclose(fld.coeffs, fm, atol=1e-10)
    np.testing.assert_allclose(r1.coefficient(1, "cos").values, 1 + grid / 2,
                               atol=1e-10)


def test_ip3_reports_trace_consistency(ip3_setup):
    basis, grid, r0, fm, data = ip3_setup
    fld, _ = ip3_recover(data, r0, basis)
    assert fld.meta["phi0_consistency"] < 1e-9
    derived = fld.meta["phi0_derived"]
    np.testing.assert_allclose(derived.values, data.phi0.values, atol=1e-9)


def test_ip3_works_without_phi0(ip3_setup):
    basis, grid, r0, fm, data = ip3_setup
    trimmed = ObservationData(chi=data.chi, psi=data.psi, x0=data.x0, t0=3.0)
    fld, r1 = ip3_recover(trimmed, r0, basis)
    np.testing.assert_allclose(fld.coeffs, fm, atol=1e-10)
    assert "phi0_consistency" not in fld.meta


def test_ip3_without_phi0_computes_lambda_profiles_once(ip3_setup,
                                                        monkeypatch):
    # only the amplitude division needs Lambda_m; no trace is derived
    basis, grid, r0, fm, data = ip3_setup
    calls = []
    real = inverse.slow_responses
    monkeypatch.setattr(inverse, "slow_responses",
                        lambda *a: calls.append(1) or real(*a))
    trimmed = ObservationData(chi=data.chi, psi=data.psi, x0=data.x0, t0=3.0)
    fld, _ = ip3_recover(trimmed, r0, basis)
    assert len(calls) == 1
    assert "phi0_derived" not in fld.meta


def test_ip3_with_phi0_to_t0_computes_lambda_profiles_once(ip3_setup,
                                                          monkeypatch):
    # phi0's grid spans [0, t0], so its Chebyshev table is the one the
    # amplitude division needs
    basis, grid, r0, fm, data = ip3_setup
    assert grid[0] == 0.0 and grid[-1] == data.t0
    want = ip2_recover(data.psi, r0, data.t0, basis)
    calls = []
    real = inverse.slow_responses
    monkeypatch.setattr(inverse, "slow_responses",
                        lambda *a: calls.append(1) or real(*a))
    fld, _ = ip3_recover(data, r0, basis)
    assert len(calls) == 1
    assert np.array_equal(fld.meta["lambda_values"],
                          want.meta["lambda_values"])
    assert np.array_equal(fld.coeffs, want.coeffs)
    assert fld.meta["phi0_consistency"] < 1e-9


def test_ip3_requires_final_time_data(ip3_setup):
    basis, grid, r0, fm, data = ip3_setup
    with pytest.raises(AdmissibilityError):
        ip3_recover(ObservationData(chi=data.chi, x0=data.x0, t0=3.0), r0,
                    basis)
