import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oscinv.basis import (SeparableAmplitude, SpatialField,
                          build_dirichlet_interval_basis,
                          build_rectangle_basis, build_sturm_liouville_basis,
                          check_boundary_traces, separable_sum)
from oscinv import expressions
from oscinv.expressions import ExpressionError
from oscinv.traces import uniform_grid

PI = np.pi


# -- interval ----------------------------------------------------------------


def test_interval_eigenvalues_and_indexing(interval_basis):
    np.testing.assert_allclose(interval_basis.eigenvalues,
                               np.arange(1, 9) ** 2, atol=1e-14)
    assert interval_basis.mode_index == tuple(range(1, 9))


def test_interval_modes_normalized(interval_basis):
    G = interval_basis.gram_matrix()
    np.testing.assert_allclose(G, np.eye(8), atol=1e-12)


def test_first_mode_coefficient_of_sine():
    basis = build_dirichlet_interval_basis(PI, 3)
    f = SpatialField.from_expr("sin(x)")
    c = basis.project(f.evaluate(basis.nodes))
    assert c[0] == pytest.approx(np.sqrt(PI / 2), abs=1e-13)
    np.testing.assert_allclose(c[1:], 0.0, atol=1e-13)


def test_interval_length_scaling():
    basis = build_dirichlet_interval_basis(2.0, 2)
    np.testing.assert_allclose(basis.eigenvalues,
                               [(PI / 2) ** 2, PI ** 2], atol=1e-12)


# -- rectangle ---------------------------------------------------------------


def test_rectangle_ordering_and_eigenvalues():
    basis = build_rectangle_basis((PI, PI), 4)
    np.testing.assert_allclose(basis.eigenvalues, [2.0, 5.0, 5.0, 8.0],
                               atol=1e-13)
    # the degenerate pair is broken lexicographically
    assert basis.mode_index == ((1, 1), (1, 2), (2, 1), (2, 2))


@pytest.mark.parametrize("lengths", [(PI, PI), (PI, 2.0), (1.0, 3.7),
                                     (0.1, 10.0)])
@pytest.mark.parametrize("M", [1, 2, 5, 16, 50])
def test_rectangle_modes_are_the_explicit_enumeration(lengths, M):
    # every (i, j) up to max(2, M), in Python floats, sorted by (lam, i, j);
    # a square ties lam for (i, j) and (j, i)
    cap = max(2, M)
    cand = sorted(((i * math.pi / lengths[0]) ** 2
                   + (j * math.pi / lengths[1]) ** 2, i, j)
                  for i in range(1, cap + 1) for j in range(1, cap + 1))[:M]
    basis = build_rectangle_basis(lengths, M)
    assert basis.mode_index == tuple((i, j) for _, i, j in cand)
    assert basis.eigenvalues.tolist() == [lam for lam, _, _ in cand]


def test_rectangle_gram_identity():
    basis = build_rectangle_basis((PI, 2.0), 6)
    G = basis.gram_matrix()
    np.testing.assert_allclose(G, np.eye(6), atol=1e-11)


def test_rectangle_projection_roundtrip():
    basis = build_rectangle_basis((PI, PI), 5)
    coeffs = np.array([0.3, -1.0, 2.0, 0.0, 0.7])
    vals = basis.modes_at_nodes().T @ coeffs
    rec = basis.project(vals)
    np.testing.assert_allclose(rec, coeffs, atol=1e-11)


def test_rectangle_points_shape_enforced():
    basis = build_rectangle_basis((PI, PI), 2)
    with pytest.raises(ValueError):
        basis.eval_modes(np.array([0.5, 0.5, 0.5]))


# -- Sturm-Liouville ---------------------------------------------------------


def test_sturm_liouville_recovers_laplacian():
    basis = build_sturm_liouville_basis(1.0, 0.0, PI, 4, grid_n=4000)
    np.testing.assert_allclose(basis.eigenvalues, [1.0, 4.0, 9.0, 16.0],
                               rtol=1e-12)


def test_sturm_liouville_constant_shift():
    # adding c shifts the whole spectrum by c
    basis = build_sturm_liouville_basis(1.0, 3.0, PI, 3, grid_n=4000)
    np.testing.assert_allclose(basis.eigenvalues, [4.0, 7.0, 12.0],
                               rtol=1e-12)


def test_sturm_liouville_orthonormal_modes():
    basis = build_sturm_liouville_basis("1 + x/4", "x", 2.0, 5, grid_n=3000)
    G = basis.gram_matrix()
    np.testing.assert_allclose(G, np.eye(5), atol=1e-12)
    assert np.all(np.diff(basis.eigenvalues) > 0)


def test_sturm_liouville_laplacian_modes_off_nodes_are_the_sines():
    L = 2.0
    basis = build_sturm_liouville_basis(1.0, 0.0, L, 8)
    pts = (np.arange(64) + 0.37) * (L / 64)
    assert not np.isin(pts, basis.sl_modes.nodes).any()
    k = np.arange(1, 9)
    sines = np.sqrt(2.0 / L) * np.sin(np.outer(k * PI / L, pts))
    np.testing.assert_allclose(basis.eval_modes(pts), sines, rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(basis.eigenvalues, (k * PI / L) ** 2,
                               rtol=1e-12)
    assert basis.eval_modes(1.1).shape == (8, 1)


def test_sturm_liouville_modes_agree_with_twice_the_nodes():
    # M = 8 stops on 65 nodes and M = 16 on 129; the first eight modes of
    # both agree off the nodes
    coarse = build_sturm_liouville_basis("1 + x/2", "x", PI, 8)
    fine = build_sturm_liouville_basis("1 + x/2", "x", PI, 16)
    assert fine.sl_modes.n == 2 * coarse.sl_modes.n - 1
    np.testing.assert_allclose(fine.eigenvalues[:8], coarse.eigenvalues,
                               rtol=1e-12)
    pts = (np.arange(64) + 0.37) * (PI / 64)
    np.testing.assert_allclose(fine.eval_modes(pts)[:8],
                               coarse.eval_modes(pts), rtol=0, atol=1e-12)


def test_sturm_liouville_grid_n_caps_the_collocation_nodes():
    # the first 32 modes of (1 + x/2, x) need 257 nodes
    free = build_sturm_liouville_basis("1 + x/2", "x", PI, 32, grid_n=8000)
    assert free.sl_modes.n == 257
    capped = build_sturm_liouville_basis("1 + x/2", "x", PI, 32, grid_n=257)
    np.testing.assert_array_equal(capped.eigenvalues, free.eigenvalues)
    with pytest.raises(ValueError, match="grid_n=256"):
        build_sturm_liouville_basis("1 + x/2", "x", PI, 32, grid_n=256)


@pytest.mark.parametrize("a, c", [(lambda x: 1 + x, 0.0), (1.0, None),
                                  (1.0, np.zeros(3))])
def test_sturm_liouville_coefficients_are_numbers_or_expressions(a, c):
    with pytest.raises(TypeError):
        build_sturm_liouville_basis(a, c, 2.0, 3, grid_n=64)


def test_sturm_liouville_rejects_degenerate_coefficient():
    with pytest.raises(ValueError):
        build_sturm_liouville_basis("x - 1", 0.0, 2.0, 3)
    with pytest.raises(ValueError):
        build_sturm_liouville_basis(1.0, -5.0, 2.0, 3)
    with pytest.raises(ValueError, match="finite"):
        build_sturm_liouville_basis("1/x", 0.0, 2.0, 3)


# -- fields ------------------------------------------------------------------


def test_field_requires_exactly_one_description(interval_basis):
    with pytest.raises(ValueError):
        SpatialField()
    with pytest.raises(ValueError):
        SpatialField(expr="sin(x)", coeffs=np.ones(3), basis=interval_basis)


def test_field_table_evaluation():
    pts = np.linspace(0, PI, 200)
    f = SpatialField(table=(pts, np.sin(pts)))
    q = np.linspace(0.3, 2.8, 50)
    np.testing.assert_allclose(f.evaluate(q), np.sin(q), atol=1e-8)


def test_field_table_refuses_extrapolation():
    pts = np.linspace(1.0, 2.0, 11)
    f = SpatialField(table=(pts, np.sin(pts)))
    np.testing.assert_allclose(f.evaluate([1.0, 2.0]), np.sin([1.0, 2.0]))
    for q in ([0.5, 1.5], [1.5, 2.5]):
        with pytest.raises(ValueError, match="not extrapolated"):
            f.evaluate(q)


def test_field_expr_accepts_x_and_x1():
    f = SpatialField.from_expr("x*(3.14159 - x)")
    g = SpatialField.from_expr("x1*(3.14159 - x1)")
    pts = np.linspace(0, 3.0, 7)
    np.testing.assert_allclose(f.evaluate(pts), g.evaluate(pts), atol=1e-14)


def test_project_synthesize_inverse_on_span(interval_basis):
    coeffs = np.array([1.0, -0.5, 0.25, 0.0, 0.0, 0.1, 0.0, 2.0])
    pts = np.linspace(0.2, 3.0, 40)
    vals = interval_basis.synthesize(coeffs, pts)
    fld = SpatialField(coeffs=coeffs, basis=interval_basis)
    np.testing.assert_allclose(fld.evaluate(pts), vals, atol=1e-13)
    rec = interval_basis.project(fld)
    np.testing.assert_allclose(rec, coeffs, atol=1e-12)


@pytest.mark.parametrize("kind", ["interval", "rectangle",
                                  "sturm_liouville"])
def test_synthesis_at_the_nodes_reads_the_kept_mode_table(kind, monkeypatch):
    basis = {"interval": lambda: build_dirichlet_interval_basis(PI, 6),
             "rectangle": lambda: build_rectangle_basis((PI, 2.0), 5),
             "sturm_liouville": lambda: build_sturm_liouville_basis(
                 "1 + x/4", "x", 2.0, 4, grid_n=3000)}[kind]()
    coeffs = np.linspace(1.0, -0.5, basis.M)
    fresh = coeffs @ basis.eval_modes(basis.nodes)
    kept = basis.modes_at_nodes()
    assert not kept.flags.writeable
    monkeypatch.setattr(basis, "eval_modes", None)   # no table is rebuilt
    np.testing.assert_array_equal(basis.synthesize(coeffs, basis.nodes),
                                  fresh)
    fld = SpatialField(coeffs=coeffs, basis=basis)
    np.testing.assert_array_equal(basis.values_at_nodes(fld), fresh)
    assert basis.modes_at_nodes() is kept


def test_modes_at_samples_are_formed_once_per_count(interval_basis):
    kept = interval_basis.modes_at_samples(64)
    np.testing.assert_array_equal(
        kept, interval_basis.eval_modes(
            interval_basis.interior_sample_points(64)))
    assert interval_basis.modes_at_samples(64) is kept
    assert not kept.flags.writeable
    assert interval_basis.modes_at_samples(9).shape == (8, 9)


@settings(max_examples=25, deadline=None)
@given(coeffs=hnp.arrays(np.float64, 8, elements=st.floats(-10, 10)))
def test_projection_identity_property(coeffs, interval_basis):
    rec = interval_basis.project(interval_basis.modes_at_nodes().T @ coeffs)
    np.testing.assert_allclose(rec, coeffs, atol=1e-10 * (1 + np.max(np.abs(coeffs))))


# -- boundary traces ---------------------------------------------------------


def test_boundary_traces_pass_for_eigen_sum(interval_basis):
    f = SpatialField.from_expr("sin(x) + 0.3*sin(3*x)")
    rep = check_boundary_traces(f, interval_basis, orders=2)
    assert rep.passed
    assert max(rep.sup_boundary) < 1e-8


def test_boundary_traces_flag_nonvanishing_operator_image(interval_basis):
    # x(pi-x) vanishes on the boundary but its second derivative does not
    f = SpatialField.from_expr("x*(pi - x)")
    rep0 = check_boundary_traces(f, interval_basis, orders=0)
    rep1 = check_boundary_traces(f, interval_basis, orders=1)
    assert rep0.passed
    assert not rep1.passed


def test_boundary_traces_coefficient_fields(interval_basis):
    fld = SpatialField(coeffs=np.ones(8), basis=interval_basis)
    rep = check_boundary_traces(fld, interval_basis, orders=3)
    assert rep.passed


def test_boundary_traces_apply_the_sturm_liouville_operator():
    # A sin = -((1 + x/2) cos x)' + x sin x = -cos(x)/2 + (1 + 3x/2) sin x,
    # which is -1/2 at 0 and 1/2 at pi
    basis = build_sturm_liouville_basis("1 + x/2", "x", PI, 4, grid_n=400)
    rep = check_boundary_traces(SpatialField.from_expr("sin(x)"), basis,
                                orders=1)
    assert rep.orders == (0, 1) and rep.note == ""
    assert rep.sup_boundary[0] < 1e-15
    assert rep.sup_boundary[1] == pytest.approx(0.5, abs=1e-15)
    assert not rep.passed


def test_boundary_traces_table_limited_to_order_zero():
    pts = np.linspace(0, PI, 300)
    fld = SpatialField(table=(pts, np.sin(pts)))
    basis = build_dirichlet_interval_basis(PI, 2)
    rep = check_boundary_traces(fld, basis, orders=2)
    assert rep.orders == (0,)
    assert rep.note


# -- separable amplitudes ----------------------------------------------------


def test_amplitude_mode_traces_match_projection(interval_basis, grid3):
    amp = SeparableAmplitude.from_expr("exp(-t)*(sin(x) + 0.3*sin(3*x))")
    traces = amp.mode_traces(interval_basis, grid3)
    c = np.sqrt(PI / 2)
    np.testing.assert_allclose(traces[0], c * np.exp(-grid3), atol=1e-12)
    np.testing.assert_allclose(traces[2], 0.3 * c * np.exp(-grid3),
                               atol=1e-12)
    np.testing.assert_allclose(traces[1], 0.0, atol=1e-12)


def test_amplitude_at_point(grid3):
    amp = SeparableAmplitude.from_expr("exp(-t)*sin(x)")
    tr = amp.at_point(PI / 2, grid3)
    np.testing.assert_allclose(tr.values, np.exp(-grid3), atol=1e-13)


def test_amplitude_at_point_compiles_nothing_at_a_new_point():
    # the values come from the compiled time factors; the attached
    # expression sum_i X_i(x0) g_i(t) still resamples the trace exactly
    amp = SeparableAmplitude.from_expr("exp(-t)*sin(x) + (1 + t^2/4)*sin(2*x)")
    grid = uniform_grid(2.0, 600).nodes
    amp.at_point(0.7, grid)            # compiles the time and space factors
    compiled = list(expressions._LAMBDIFY_CACHE)
    tr = amp.at_point(1.1, grid)
    assert [k for k in expressions._LAMBDIFY_CACHE if k not in compiled] == []
    np.testing.assert_array_equal(tr.values, amp.evaluate([1.1], grid)[:, 0])
    fine = uniform_grid(2.0, 1000).nodes
    moved = tr.resample(fine)
    assert moved.expr is tr.expr
    np.testing.assert_allclose(moved.values, amp.evaluate([1.1], fine)[:, 0],
                               rtol=0, atol=1e-14)


def test_amplitude_time_invariance_flag():
    assert SeparableAmplitude.from_expr("sin(x)").time_invariant
    assert not SeparableAmplitude.from_expr("t*sin(x)").time_invariant


def test_amplitude_evaluate_grid():
    amp = SeparableAmplitude.from_expr("(1 + t)*sin(x)")
    pts = np.array([0.5, 1.0])
    tg = np.array([0.0, 2.0])
    vals = amp.evaluate(pts, tg)
    expect = np.outer(1 + tg, np.sin(pts))
    np.testing.assert_allclose(vals, expect, atol=1e-14)


def test_amplitude_from_field_roundtrip(interval_basis):
    fld = SpatialField(coeffs=np.arange(1.0, 9.0), basis=interval_basis)
    amp = SeparableAmplitude.from_field(fld)
    assert amp.time_invariant
    c = amp.term_coefficients(interval_basis)
    np.testing.assert_allclose(c.sum(axis=0), np.arange(1.0, 9.0), atol=1e-12)


@pytest.mark.parametrize("x0", [None, float("nan"), float("inf"), [1.0, 2.0],
                                [], "mid"])
def test_point_weights_reject_bad_points(interval_basis, x0):
    with pytest.raises(ValueError):
        interval_basis.point_weights(x0)


def test_point_weights_are_modes_at_the_point(interval_basis):
    np.testing.assert_array_equal(interval_basis.point_weights(1.0),
                                  interval_basis.eval_modes([1.0])[:, 0])
    rect = build_rectangle_basis((PI, 1.0), 4)
    np.testing.assert_array_equal(rect.point_weights((1.0, 0.5)),
                                  rect.eval_modes([[1.0, 0.5]])[:, 0])
    with pytest.raises(ValueError):
        rect.point_weights(1.0)


def test_mode_traces_compile_per_term_not_per_mode():
    from oscinv import expressions

    basis = build_dirichlet_interval_basis(PI, 64)
    grid = uniform_grid(1.0, 200).nodes
    # time factors no other test uses, so their compiles are not cached yet
    amp = SeparableAmplitude.from_expr(
        "exp(-0.8125*t)*sin(x) + (1 + 0.4375*t^2)*sin(3*x)")
    coeffs = amp.term_coefficients(basis)     # compiles the space factors
    before = len(expressions._LAMBDIFY_CACHE)
    fm = amp.mode_traces(basis, grid)
    assert len(expressions._LAMBDIFY_CACHE) - before <= len(amp.terms)
    fm1 = amp.mode_derivatives_at_start(basis, 1)
    g = np.vstack([np.exp(-0.8125 * grid), 1 + 0.4375 * grid ** 2])
    np.testing.assert_allclose(fm, coeffs.T @ g, rtol=0, atol=1e-14)
    np.testing.assert_allclose(fm1, -0.8125 * coeffs[0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("n_terms", [1, 2, 3])
def test_separable_sum_is_the_matrix_product(n_terms):
    # an outer product for one term, the same numbers bit for bit
    rng = np.random.default_rng(n_terms)
    coeffs = rng.standard_normal((n_terms, 64))
    factors = rng.standard_normal((n_terms, 301))
    assert np.array_equal(separable_sum(coeffs, factors), coeffs.T @ factors)
    assert np.array_equal(separable_sum(coeffs, factors[:, 7]),
                          coeffs.T @ factors[:, 7])


def test_mode_derivatives_at_start_differentiate_each_factor_once(
        monkeypatch):
    basis = build_dirichlet_interval_basis(math.pi, 4)
    # a time factor no other test uses, so its derivatives are not kept yet
    amp = SeparableAmplitude.from_expr("exp(-0.6875*t)*sin(2*x)")
    calls = []
    diff = sympy.diff
    monkeypatch.setattr(sympy, "diff",
                        lambda *a: calls.append(a) or diff(*a))
    first = amp.mode_derivatives_at_start(basis, 1)
    again = amp.mode_derivatives_at_start(basis, 1)
    assert len(calls) == 1
    assert np.array_equal(first, again)
    np.testing.assert_allclose(first, [0.0, -0.6875 * math.sqrt(math.pi / 2),
                                       0.0, 0.0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("f, order", [("sin(x)/t", 0), ("t^0.5*sin(x)", 1),
                                      ("sin(t)/t*sin(x)", 0)])
def test_mode_derivatives_at_start_refuse_a_nonfinite_value(f, order):
    basis = build_dirichlet_interval_basis(math.pi, 2)
    amp = SeparableAmplitude.from_expr(f)
    with pytest.raises(ExpressionError, match="no finite") as info:
        amp.mode_derivatives_at_start(basis, order)
    assert "\n" not in str(info.value)


def test_term_coefficients_are_projected_once_per_basis(interval_basis,
                                                        single_mode_basis):
    amp = SeparableAmplitude.from_expr("exp(-t)*sin(x) + t*sin(2*x)")
    c = amp.term_coefficients(interval_basis)
    assert amp.term_coefficients(interval_basis) is c
    assert not c.flags.writeable
    np.testing.assert_array_equal(
        c, np.vstack([interval_basis.project(xf) for _, xf in amp.terms]))
    one = amp.term_coefficients(single_mode_basis)
    assert one.shape == (2, 1)
    # a new amplitude of the same text projects afresh
    again = SeparableAmplitude.from_expr("exp(-t)*sin(x) + t*sin(2*x)")
    assert again.term_coefficients(interval_basis) is not c
