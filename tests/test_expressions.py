from collections import OrderedDict

import numpy as np
import pytest
import sympy

from oscinv import expressions
from oscinv.expressions import (ExpressionError, T, TAU, X, evaluate,
                                lambdify_cached, parse, separable_terms)
from oscinv.sources import _harmonic_table


def test_parse_basic_arithmetic():
    e = parse("2*t + t^2", allowed=("t",))
    assert evaluate(e, t=3.0) == pytest.approx(15.0)


def test_caret_is_power_not_xor():
    e = parse("t^3", allowed=("t",))
    assert evaluate(e, t=2.0) == pytest.approx(8.0)


def test_whitelisted_functions_only():
    parse("sin(t) + cos(t) + exp(-t)", allowed=("t",))
    with pytest.raises(ExpressionError):
        parse("tan(t)", allowed=("t",))
    with pytest.raises(ExpressionError):
        parse("log(t)", allowed=("t",))


def test_symbol_whitelist():
    with pytest.raises(ExpressionError):
        parse("t + y", allowed=("t",))
    with pytest.raises(ExpressionError):
        parse("sin(x)", allowed=("t",))
    # tau only where declared
    parse("cos(tau)", allowed=("t", "tau"))
    with pytest.raises(ExpressionError):
        parse("cos(tau)", allowed=("t", "x"))


def test_malformed_input():
    with pytest.raises(ExpressionError):
        parse("2*", allowed=("t",))
    with pytest.raises(ExpressionError):
        parse("", allowed=("t",))


def test_parsed_symbols_are_canonical():
    e = parse("sin(x)*exp(-t)", allowed=("t", "x"))
    assert e.free_symbols == {T, X}


def test_evaluate_broadcasts():
    e = parse("t*x", allowed=("t", "x"))
    tv = np.array([1.0, 2.0])
    out = evaluate(e, t=tv, x=3.0)
    np.testing.assert_allclose(out, [3.0, 6.0])


def test_evaluate_constant_expression_gives_scalar():
    # a scalar for scalar values, broadcast to the shape of array values
    e = parse("2 + 3", allowed=("t",))
    out = evaluate(e, t=0.0)
    assert isinstance(out, float) and out == 5.0
    out = evaluate(e, t=np.zeros(5))
    assert out.shape == (5,) and np.all(out == 5.0)


def _assert_sums_to(terms, e):
    assert sympy.expand(sum(g * xp for g, xp in terms) - e) == 0


def test_separable_terms_splits_products():
    # one time factor: the two space factors share exp(-t)
    e = parse("exp(-t)*(sin(x) + 0.3*sin(3*x))", allowed=("t", "x"))
    terms = separable_terms(e)
    assert len(terms) == 1
    assert terms[0][0] == sympy.exp(-T)
    _assert_sums_to(terms, e)


@pytest.mark.parametrize("text, count", [
    ("exp(-t)*sin(x) + t*sin(2*x)", 2),
    ("exp(-t)*sin(x) + exp(-2*t)*sin(2*x)", 2),
    ("exp(-t)*sin(x) - 0.5*exp(-t)*sin(2*x) + t*sin(3*x)", 2),
    ("(1 + t/2)*sin(x) - (2 + t)*sin(2*x)", 1),
    ("exp(-t)*sin(x)/3", 1),
    ("cos(7*t)*(sin(x) + x*(pi - x))", 1),
    ("sin(x) + t + 2", 2),
])
def test_separable_terms_merge_time_factors_equal_up_to_a_number(text, count):
    e = parse(text, allowed=("t", "x"))
    terms = separable_terms(e)
    assert len(terms) == count
    assert len({sympy.srepr(g) for g, _ in terms}) == count
    _assert_sums_to(terms, e)


def test_separable_terms_merges_common_spatial_factor():
    e = parse("t*sin(x) + sin(x)", allowed=("t", "x"))
    terms = separable_terms(e)
    assert len(terms) == 1
    tpart, xpart = terms[0]
    assert sympy.simplify(tpart - (T + 1)) == 0
    assert sympy.simplify(xpart - sympy.sin(X)) == 0


def test_separable_terms_pure_space():
    e = parse("sin(x) + 0.3*sin(3*x)", allowed=("x",))
    terms = separable_terms(e)
    assert len(terms) == 1
    assert not terms[0][0].free_symbols
    _assert_sums_to(terms, e)


def test_separable_terms_rejects_mixed_factor():
    e = parse("sin(x*t)", allowed=("t", "x"))
    with pytest.raises(ExpressionError):
        separable_terms(e)


def test_separable_terms_rejects_tau():
    e = parse("sin(x)*cos(tau)", allowed=("t", "x", "tau"))
    with pytest.raises(ExpressionError):
        separable_terms(e)


def test_lambdify_cache_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(expressions, "_LAMBDIFY_CACHE", OrderedDict())
    cap = expressions._LAMBDIFY_CAP
    first = lambdify_cached(T + 1, ["t"])
    for k in range(2, cap + 20):
        lambdify_cached(T + k, ["t"])
        # a repeated expression is a hit, and being used keeps it cached
        assert lambdify_cached(T + 1, ["t"]) is first
        assert len(expressions._LAMBDIFY_CACHE) <= cap
    assert len(expressions._LAMBDIFY_CACHE) == cap
    assert (T + 2, ("t",)) not in expressions._LAMBDIFY_CACHE


def test_parse_memo_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(expressions, "_MEMO", OrderedDict())
    cap = expressions._MEMO_CAP
    first = parse("t + 1")
    for k in range(2, cap + 20):
        parse(f"t + {k}")
        # a repeated text is a hit, and being used keeps it cached
        assert parse("t + 1") is first
        assert len(expressions._MEMO) <= cap
    assert len(expressions._MEMO) == cap
    assert ("parse", "t + 2") not in expressions._MEMO


def test_parse_memo_keeps_no_failure_and_checks_every_call(monkeypatch):
    monkeypatch.setattr(expressions, "_MEMO", OrderedDict())
    for _ in range(2):
        with pytest.raises(ExpressionError):
            parse("2*")
        with pytest.raises(ExpressionError):
            parse("t < 1")
    assert len(expressions._MEMO) == 0
    e = parse("exp(-t)*sin(x)", allowed=("t", "x"))
    assert parse("exp(-t)*sin(x)", allowed=("t", "x")) is e
    with pytest.raises(ExpressionError):
        parse("exp(-t)*sin(x)", allowed=("x",))
    mixed = parse("sin(x*t)", allowed=("t", "x"))
    for _ in range(2):
        # the grammar's function check runs on the cached parse
        with pytest.raises(ExpressionError):
            parse("tan(t)", allowed=("t",))
        with pytest.raises(ExpressionError):
            separable_terms(mixed)
    assert ("separable", mixed) not in expressions._MEMO


def test_memoised_splits_are_not_shared_with_callers():
    e = parse("exp(-t)*(sin(x) + 0.3*sin(3*x))", allowed=("t", "x"))
    terms = separable_terms(e)
    terms.append(None)
    assert len(separable_terms(e)) == 1
    r = "1 + t + (1 + t/2)*cos(tau) + 0.4*sin(2*tau)"
    mean, table = _harmonic_table(r)
    want = dict(table)
    table.clear()
    table[(5, "cos")] = T
    assert _harmonic_table(r) == (mean, want)


def test_t_derivative_at_is_a_memoised_finite_float():
    e = parse("exp(-0.8125*t)*(1 + t)", allowed=("t",))
    assert expressions.t_derivative(e, 0) is e
    assert expressions.t_derivative(e, 2) == sympy.diff(e, T, 2)
    value = expressions.t_derivative_at(e, 1, 0.0)
    assert type(value) is float and value == pytest.approx(0.1875, abs=1e-15)
    assert ("t_derivative_at", e, 1, 0.0) in expressions._MEMO


@pytest.mark.parametrize("text, order", [("1/t", 0), ("t^0.5", 1),
                                         ("sin(t)/t", 0)])
def test_t_derivative_at_refuses_a_nonfinite_value(text, order):
    e = parse(text, allowed=("t",))
    with pytest.raises(ExpressionError, match="no finite") as info:
        expressions.t_derivative_at(e, order, 0.0)
    assert "\n" not in str(info.value)
    assert ("t_derivative_at", e, order, 0.0) not in expressions._MEMO
