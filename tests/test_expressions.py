from collections import OrderedDict

import numpy as np
import pytest
import sympy

from oscinv import expressions
from oscinv.expressions import (ExpressionError, T, TAU, X, evaluate,
                                lambdify_cached, parse, separable_terms)


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


def test_separable_terms_splits_products():
    e = parse("exp(-t)*(sin(x) + 0.3*sin(3*x))", allowed=("t", "x"))
    terms = separable_terms(e)
    assert len(terms) == 2
    xparts = {sympy.srepr(xp) for _, xp in terms}
    assert sympy.srepr(sympy.sin(X)) in xparts


def test_separable_terms_merges_common_spatial_factor():
    e = parse("t*sin(x) + sin(x)", allowed=("t", "x"))
    terms = separable_terms(e)
    assert len(terms) == 1
    tpart, xpart = terms[0]
    assert sympy.simplify(tpart - (T + 1)) == 0
    assert sympy.simplify(xpart - sympy.sin(X)) == 0


def test_separable_terms_pure_space():
    terms = separable_terms(parse("sin(x) + 0.3*sin(3*x)", allowed=("x",)))
    assert len(terms) == 2
    for tpart, _ in terms:
        assert not tpart.free_symbols


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
