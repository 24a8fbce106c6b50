"""Restricted symbolic expression grammar for configs and analytic descriptors.

Expressions are plain text over the variables ``t`` (slow time), ``x`` or
``x1``/``x2``/``x3`` (space), and ``tau`` (fast phase), combined with
``+ - * / ^`` (or ``**``), the functions ``sin``/``cos``/``exp``, and the
constant ``pi``.  Everything is parsed into sympy so derivatives stay exact.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import sympy
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)

__all__ = [
    "T", "X", "X1", "X2", "X3", "TAU",
    "SPACE_SYMBOLS", "ExpressionError",
    "parse", "lambdify_cached", "evaluate", "separable_terms",
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


def parse(text, allowed=None):
    """Parse ``text`` into a sympy expression.

    ``allowed`` restricts the permitted variables (an iterable of symbols or
    names); by default any of t, x, x1, x2, x3, tau may appear.
    """
    if isinstance(text, sympy.Expr):
        expr = text
    else:
        try:
            expr = parse_expr(str(text), local_dict=_LOCALS,
                              transformations=_TRANSFORMS)
        except Exception as exc:
            raise ExpressionError(f"cannot parse {text!r}: {exc}") from None
    if not isinstance(expr, sympy.Expr):
        raise ExpressionError(f"{text!r} is not a scalar expression")

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


# most recently used compiles kept; one CLI round trip makes about a dozen,
# so an eviction never falls inside one run
_LAMBDIFY_CAP = 256
_LAMBDIFY_CACHE: OrderedDict = OrderedDict()


def lambdify_cached(expr, varnames):
    """Vectorized numpy callable for ``expr`` over the named variables.

    Compiles are cached up to ``_LAMBDIFY_CAP`` entries, least recently used
    first out, so a long process that keeps building new expressions stays
    bounded.
    """
    key = (expr, tuple(varnames))
    fn = _LAMBDIFY_CACHE.get(key)
    if fn is not None:
        _LAMBDIFY_CACHE.move_to_end(key)
        return fn
    syms = [_LOCALS[v] for v in varnames]
    # the module, not the name "numpy": the same generated code, without a
    # star import that loads numpy's lazy submodules in the first compile
    fn = sympy.lambdify(syms, expr, modules=[np])
    _LAMBDIFY_CACHE[key] = fn
    if len(_LAMBDIFY_CACHE) > _LAMBDIFY_CAP:
        _LAMBDIFY_CACHE.popitem(last=False)
    return fn


def evaluate(expr, **values):
    """Evaluate ``expr`` on numpy arrays keyed by variable name.

    Extra keys are ignored; missing ones raise.  The result is broadcast to
    the common shape of the used arguments, or of all given values when the
    expression is constant (a float if that shape is empty).
    """
    syms = sorted(expr.free_symbols, key=lambda s: s.name)
    missing = [s.name for s in syms if s.name not in values]
    if missing:
        raise ExpressionError(f"no value supplied for {', '.join(missing)}")
    if syms:
        args = [np.asarray(values[s.name], dtype=float) for s in syms]
        out = lambdify_cached(expr, [s.name for s in syms])(*args)
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


def separable_terms(expr):
    """Split a space-time expression into a sum of (time factor, space factor).

    Each additive term after expansion must factor as g(t) * X(space); factors
    mixing t with a space variable (such as sin(x*t)) are rejected.  Terms
    sharing the same space factor are merged.  Returns a list of
    ``(t_expr, x_expr)`` pairs.
    """
    expr = sympy.expand(parse(expr) if not isinstance(expr, sympy.Expr) else expr)
    space = set(SPACE_SYMBOLS)
    groups: dict = {}
    order: list = []
    for term in sympy.Add.make_args(expr):
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
        if key in groups:
            groups[key] = (groups[key][0] + tpart, xpart)
        else:
            groups[key] = (tpart, xpart)
            order.append(key)
    return [groups[k] for k in order]
