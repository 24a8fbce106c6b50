"""Restricted symbolic expression grammar for configs and analytic descriptors.

Expressions are plain text over the variables ``t`` (slow time), ``x`` or
``x1``/``x2``/``x3`` (space), and ``tau`` (fast phase), combined with
``+ - * / ^`` (or ``**``), the functions ``sin``/``cos``/``exp``, and the
constant ``pi``.  Everything is parsed into sympy so derivatives stay exact.
"""

from __future__ import annotations

import builtins
from collections import OrderedDict

import numpy as np
import sympy
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)
from sympy.printing.numpy import NumPyPrinter

__all__ = [
    "T", "X", "X1", "X2", "X3", "TAU",
    "SPACE_SYMBOLS", "ExpressionError", "t_derivative", "t_derivative_at",
    "parse", "memo", "lambdify_cached", "evaluate", "separable_terms",
]

T = sympy.Symbol("t", real=True)
X = sympy.Symbol("x", real=True)
X1 = sympy.Symbol("x1", real=True)
X2 = sympy.Symbol("x2", real=True)
X3 = sympy.Symbol("x3", real=True)
TAU = sympy.Symbol("tau", real=True)

SPACE_SYMBOLS = (X, X1, X2, X3)

_LOCALS = {s.name: s for s in (T, X, X1, X2, X3, TAU)}
_ALLOWED_FUNCS = (sympy.sin, sympy.cos, sympy.exp)
_TRANSFORMS = standard_transformations + (convert_xor,)


class ExpressionError(ValueError):
    """Raised when an expression falls outside the supported grammar."""


def _parse_text(text):
    try:
        expr = parse_expr(text, local_dict=_LOCALS, transformations=_TRANSFORMS)
    except Exception as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from None
    if not isinstance(expr, sympy.Expr):
        raise ExpressionError(f"{text!r} is not a scalar expression")
    return expr


def parse(text, allowed=None):
    """Parse ``text`` into a sympy expression.

    ``allowed`` restricts the permitted variables (an iterable of symbols or
    names); by default any of t, x, x1, x2, x3, tau may appear.  Parsed
    texts are memoised (``memo``), and so is each (expression, allowed)
    pair that passes the variable and function checks; a failing check is
    not kept, so it fails again on every call.
    """
    if isinstance(text, sympy.Expr):
        expr = text
    else:
        text = str(text)
        expr = memo(("parse", text), lambda: _parse_text(text))
    allowed = None if allowed is None else tuple(allowed)
    return memo(("checked", expr, allowed), lambda: _check(expr, allowed))


def _check(expr, allowed):
    """expr when its variables are allowed and its functions are those of
    the grammar, else ExpressionError."""
    if allowed is None:
        allowed_syms = set(_LOCALS.values())
    else:
        allowed_syms = {_LOCALS[a] if isinstance(a, str) else a for a in allowed}
    stray = expr.free_symbols - allowed_syms
    if stray:
        names = ", ".join(sorted(s.name for s in stray))
        raise ExpressionError(f"unknown or disallowed variable(s): {names}")

    for fn in expr.atoms(sympy.Function):
        if not isinstance(fn, _ALLOWED_FUNCS):
            raise ExpressionError(f"function {fn.func} is not in the grammar "
                                  "(only sin, cos, exp)")
    return expr


def _lru(cache, cap, key, make):
    """cache[key], from make() on a miss, in an LRU of at most cap entries.

    A hit moves the key to the back; past cap the front entry goes.  When
    make raises, nothing is cached.
    """
    value = cache.get(key)
    if value is None:
        value = make()
        cache[key] = value
        if len(cache) > cap:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return value


# most recently used texts, passed checks, variable names, splits,
# t-derivatives and callable drive tables kept.  A sample config's run adds
# 11 to 23 entries (order_study the most), and the benchmark's callable
# order study 15, one of them its drive's table, so an eviction never falls
# inside one run
_MEMO_CAP = 256
_MEMO: OrderedDict = OrderedDict()


def memo(key, make):
    """make() for a hashable key, kept with the parsed texts in one LRU of
    ``_MEMO_CAP`` entries.  make must return an immutable value (sympy
    expressions, tuples, tables of read-only values), since every caller
    with the key shares it."""
    return _lru(_MEMO, _MEMO_CAP, key, make)


# most recently used compiles kept; one CLI round trip makes about a dozen,
# so an eviction never falls inside one run
_LAMBDIFY_CAP = 256
_LAMBDIFY_CACHE: OrderedDict = OrderedDict()

# the globals of every compiled expression: numpy's names, shared, not
# copied per function as sympy.lambdify copies them
_NAMESPACE = dict(np.__dict__, builtins=builtins, range=range)


def _source(expr, varnames):
    """The source sympy.lambdify(syms, expr, modules=[numpy]) prints for
    the named variables.  Every name it calls is one of numpy's."""
    printer = NumPyPrinter({"fully_qualified_modules": False, "inline": True,
                            "allow_unknown_functions": True,
                            "user_functions": {}})
    body = printer.doprint(expr)
    if "\n" in body:
        body = f"({body})"
    return f"def _lambdifygenerated({', '.join(varnames)}):\n" \
        f"    return {body}\n"


def _compile(expr, varnames):
    stray = set(varnames) - _LOCALS.keys()
    if stray:
        raise ExpressionError("unknown variable(s): "
                              + ", ".join(sorted(stray)))
    made = {}
    exec(compile(_source(expr, varnames), "<oscinv expression>", "exec"),
         _NAMESPACE, made)
    return made["_lambdifygenerated"]


def lambdify_cached(expr, varnames):
    """Vectorized numpy callable for ``expr`` over the named variables.

    The code is the one sympy.lambdify generates with modules=[numpy],
    compiled directly and run in one namespace shared by every expression,
    so the values are bit for bit those of sympy.lambdify's function.
    Compiles are cached up to ``_LAMBDIFY_CAP`` entries, least recently used
    first out, so a long process that keeps building new expressions stays
    bounded.
    """
    return _lru(_LAMBDIFY_CACHE, _LAMBDIFY_CAP, (expr, tuple(varnames)),
                lambda: _compile(expr, varnames))


def evaluate(expr, **values):
    """Evaluate ``expr`` on numpy arrays keyed by variable name.

    Extra keys are ignored; missing ones raise.  The result is broadcast to
    the common shape of the used arguments, or of all given values when the
    expression is constant (a float if that shape is empty).
    """
    names = memo(("names", expr),
                 lambda: tuple(sorted(s.name for s in expr.free_symbols)))
    missing = [name for name in names if name not in values]
    if missing:
        raise ExpressionError(f"no value supplied for {', '.join(missing)}")
    if names:
        args = [np.asarray(values[name], dtype=float) for name in names]
        out = lambdify_cached(expr, names)(*args)
        shape = np.broadcast_shapes(*(a.shape for a in args))
    else:
        out = float(expr)
        shape = np.broadcast_shapes(*(np.shape(v) for v in values.values()))
    if shape == ():
        return float(out)
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


def t_derivative(expr, order):
    """d^order expr / dt^order, memoised (``memo``); order 0 is expr."""
    return expr if order == 0 else memo(("t_derivative", expr, order),
                                        lambda: sympy.diff(expr, T, order))


def t_derivative_at(expr, order, t):
    """d^order expr / dt^order at the time t, a finite float, memoised
    (``memo``); ExpressionError when it is not finite there (1/t or t^0.5
    at 0)."""
    return memo(("t_derivative_at", expr, order, t),
                lambda: _finite_value(expr, order, float(t)))


def _finite_value(expr, order, t):
    try:
        value = float(t_derivative(expr, order).subs(T, t))
    except TypeError:           # complex infinity, or not real
        value = np.nan
    if not np.isfinite(value):
        raise ExpressionError(f"{expr} has no finite t-derivative of order "
                              f"{order} at t = {t:g}")
    return value


def separable_terms(expr):
    """Split a space-time expression into a sum of (time factor, space factor).

    Each additive term after expansion must factor as g(t) * X(space); factors
    mixing t with a space variable (such as sin(x*t)) are rejected.  Terms
    sharing the same space factor are merged, and then terms whose time
    factors are equal up to a number, the number moving into the space
    factor: exp(-t)*(sin(x) + 0.3*sin(3*x)) is the one term
    (exp(-t), sin(x) + 0.3*sin(3*x)).  Returns a new list of
    ``(t_expr, x_expr)`` pairs; the split is memoised (``memo``).
    """
    expr = parse(expr) if not isinstance(expr, sympy.Expr) else expr
    return list(memo(("separable", expr), lambda: _separable(expr)))


def _separable(expr):
    space = set(SPACE_SYMBOLS)
    by_space: dict = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        tpart = sympy.Integer(1)
        xpart = sympy.Integer(1)
        for fac in sympy.Mul.make_args(term):
            syms = fac.free_symbols
            if TAU in syms:
                raise ExpressionError("the fast phase tau cannot appear in a "
                                      "space-time amplitude")
            if syms <= {T}:
                tpart *= fac
            elif syms <= space:
                xpart *= fac
            else:
                raise ExpressionError(
                    f"term factor {fac} mixes time and space; only sums of "
                    "separable products g(t)*X(x) are supported")
        key = sympy.srepr(xpart)
        tsum = by_space[key][0] + tpart if key in by_space else tpart
        by_space[key] = (tsum, xpart)
    by_time: dict = {}
    for tpart, xpart in by_space.values():
        content, tpart = tpart.as_content_primitive()
        number, tpart = tpart.as_independent(T, as_Add=False)
        if tpart.could_extract_minus_sign():
            number, tpart = -number, -tpart
        key = sympy.srepr(tpart)
        xsum = content * number * xpart
        by_time[key] = (tpart, by_time[key][1] + xsum if key in by_time
                        else xsum)
    return tuple(by_time.values())
