"""The recursive tree walk that compiled expressions must match bit for bit.

``rhs_expr.compile_expr`` turns a tree into straight-line code.  This walk
is the semantics that code keeps: the same ``math`` calls in the same order,
the same domain checks, and the same messages.
"""

import math

from rkhsivp.errors import ExpressionDomainError
from rkhsivp.rhs_expr import CONSTANTS, Call, Name, Neg, Num, pretty

MATH = {"exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos,
        "sinh": math.sinh, "cosh": math.cosh, "sqrt": math.sqrt, "abs": abs}


def _domain(message, node):
    raise ExpressionDomainError(message, pretty(node))


def walk(node, x, u):
    """``node`` at ``(x, u)``, one recursive call per level."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        if node.ident == "x":
            return x
        if node.ident == "u":
            return u
        return CONSTANTS[node.ident]
    if isinstance(node, Neg):
        return -walk(node.operand, x, u)
    if isinstance(node, Call):
        v, f = walk(node.arg, x, u), node.func
        if f == "ln" and v <= 0.0:
            _domain(f"logarithm of non-positive value {v}", node)
        if f == "sqrt" and v < 0.0:
            _domain(f"square root of negative value {v}", node)
        if f in ("sin", "cos") and math.isinf(v):
            return math.nan  # as in IEEE (math raises)
        try:
            return MATH[f](v)
        except OverflowError:  # exp, sinh and cosh saturate, as in IEEE
            return math.copysign(math.inf, v) if f == "sinh" else math.inf
    lv = walk(node.left, x, u)
    rv = walk(node.right, x, u)
    op = node.op
    if op == "+":
        return lv + rv
    if op == "-":
        return lv - rv
    if op == "*":
        return lv * rv
    if op == "/":
        if rv == 0.0:
            _domain("division by zero", node)
        return lv / rv
    # power; an infinite exponent counts as an even integer, as in IEEE pow
    if lv < 0.0 and math.isfinite(rv) and rv != math.floor(rv):
        _domain(f"fractional power of negative base {lv}", node)
    if lv == 0.0 and rv < 0.0:
        _domain("zero raised to a negative power", node)
    try:
        return math.pow(lv, rv)
    except OverflowError:
        sign = -1.0 if (lv < 0.0 and math.floor(rv) % 2 == 1) else 1.0
        return sign * math.inf
