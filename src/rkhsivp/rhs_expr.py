"""Parser and evaluator for right-hand-side expressions ``F(x, u)``.

Grammar (whitespace insensitive, ``^`` right-associative, unary minus binds
tighter than ``^`` so ``-x^2`` is ``(-x)^2``):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

Identifiers are the variables ``x`` and ``u``, the constants ``pi`` and
``e``, and the functions exp, ln, sin, cos, sinh, cosh, sqrt, abs.  Syntax
errors carry the character offset of the offending token.
:func:`compile_expr` turns a tree into straight-line Python once, and
:func:`evaluate` calls the result.  Evaluation follows IEEE double semantics
(overflow saturates to infinity) and raises a domain error naming the
offending sub-expression for logs of non-positive numbers, division by zero
and fractional powers of negative bases.  :func:`derivative` differentiates
a tree exactly, and :func:`affine_in` asks whether that derivative is free
of the variable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

from .errors import ExpressionDomainError, ExpressionSyntaxError

__all__ = [
    "Num",
    "Name",
    "Neg",
    "BinOp",
    "Call",
    "Expr",
    "parse",
    "evaluate",
    "compile_expr",
    "pretty",
    "affine_in",
    "derivative",
    "height",
    "MAX_DERIVATIVE_HEIGHT",
]

VARIABLES = ("x", "u")
CONSTANTS = {"pi": math.pi, "e": math.e}
# The right-hand side of a call's statement in compiled code, from the value
# ``{0}`` of its operand and the name ``{n}`` of the node (see _RUNTIME): the
# plain ``math`` call where the helper would make exactly that call and it
# cannot raise, the helper otherwise.  NaN fails every guard.
_CALLS = {"exp": "exp({0}) if {0} < 709.0 else _saturating(exp, {0})",
          "ln": "log({0}) if {0} > 0.0 else _ln({0}, {n})",
          "sin": "sin({0}) if -1e308 < {0} < 1e308 else _trig(sin, {0})",
          "cos": "cos({0}) if -1e308 < {0} < 1e308 else _trig(cos, {0})",
          "sinh": "sinh({0}) if -709.0 < {0} < 709.0 else _saturating(sinh, {0})",
          "cosh": "cosh({0}) if -709.0 < {0} < 709.0 else _saturating(cosh, {0})",
          "sqrt": "sqrt({0}) if {0} >= 0.0 else _sqrt({0}, {n})", "abs": "abs({0})"}
FUNCTIONS = tuple(_CALLS)

# Parsed trees are at most this high (each operator of a chain counts) and the
# parser's rules nest at most this deep; derivative and pretty recurse once
# per level (compiled evaluation does not recurse).
_MAX_DEPTH = 200
# The highest derivative tree to derive or render: u'' of the division chain
# at the parser's limit, x/x/.../x, is exactly this high.
MAX_DERIVATIVE_HEIGHT = 3 * _MAX_DEPTH + 1


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Name, Neg, BinOp, Call]


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", "op", "end"
    text: str
    pos: int


_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER.match(text, i)
            if not m:
                raise ExpressionSyntaxError(f"malformed number near {text[i:i+8]!r}", i)
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT.match(text, i)
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ExpressionSyntaxError(message, tok.pos)

    def _enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.fail("expression too deeply nested")

    def _grow(self, height: int, tok: _Token) -> int:
        """The height of a node over a subtree of ``height``, at most ``_MAX_DEPTH``."""
        if height >= _MAX_DEPTH:
            self.fail("expression too deeply nested", tok)
        return height + 1

    # Each rule returns its tree and the tree's height, a leaf counting 1.
    def _chain(self, operand, ops: str) -> tuple[Expr, int]:
        """``operand (op operand)*`` for the operators in ``ops``, left-associative."""
        node, height = operand()
        while self.peek().kind == "op" and self.peek().text in ops:
            tok = self.advance()
            right, rh = operand()
            node, height = BinOp(tok.text, node, right), self._grow(max(height, rh), tok)
        return node, height

    def expr(self) -> tuple[Expr, int]:
        self._enter()
        try:
            return self._chain(self.term, "+-")
        finally:
            self.depth -= 1

    def term(self) -> tuple[Expr, int]:
        return self._chain(self.factor, "*/")

    def factor(self) -> tuple[Expr, int]:
        """``unary ('^' unary)*``, folded from the right, without recursion."""
        operands, carets = [self.unary()], []
        while self.peek().kind == "op" and self.peek().text == "^":
            carets.append(self.advance())
            operands.append(self.unary())
        node, height = operands.pop()
        for tok, (left, lh) in zip(reversed(carets), reversed(operands)):
            node, height = BinOp("^", left, node), self._grow(max(lh, height), tok)
        return node, height

    def unary(self) -> tuple[Expr, int]:
        self._enter()
        try:
            if self.peek().kind == "op" and self.peek().text == "-":
                tok = self.advance()
                node, height = self.unary()
                return Neg(node), self._grow(height, tok)
            return self.atom()
        finally:
            self.depth -= 1

    def atom(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text)), 1
        if tok.kind == "ident":
            self.advance()
            follows_paren = self.peek().kind == "op" and self.peek().text == "("
            if tok.text in FUNCTIONS:
                if not follows_paren:
                    self.fail(f"function {tok.text!r} requires an argument list", tok)
                self.advance()
                arg, height = self.expr()
                self.expect_close(tok)
                return Call(tok.text, arg), self._grow(height, tok)
            if tok.text in VARIABLES or tok.text in CONSTANTS:
                if follows_paren:
                    self.fail(f"{tok.text!r} is not a function", tok)
                return Name(tok.text), 1
            self.fail(f"unknown identifier {tok.text!r}", tok)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            group = self.expr()
            self.expect_close(tok)
            return group
        if tok.kind == "end":
            self.fail("unexpected end of expression", tok)
        self.fail(f"unexpected token {tok.text!r}", tok)

    def expect_close(self, opener: _Token):
        tok = self.peek()
        if not (tok.kind == "op" and tok.text == ")"):
            self.fail(f"unbalanced parenthesis opened at offset {opener.pos}", tok)
        self.advance()


def parse(text: str) -> Expr:
    """Parse ``text`` into an immutable AST; raise on any malformed input."""
    parser = _Parser(text)
    if parser.peek().kind == "end":
        raise ExpressionSyntaxError("empty expression", 0)
    node, _ = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExpressionSyntaxError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    return node


def _domain(message: str, node: Expr):
    raise ExpressionDomainError(message, pretty(node))


# The helpers of compiled code.  Each makes the checks and the ``math`` calls
# of its operator in the order the tree walk made them, so values, NaNs and
# messages are the walk's bit for bit; ``pretty(node)`` runs only on failure.
def _div(l: float, r: float, node: BinOp) -> float:
    if r == 0.0:
        _domain("division by zero", node)
    return l / r


def _pow(l: float, r: float, node: BinOp) -> float:
    # An infinite exponent counts as an even integer, as in IEEE pow.
    if l < 0.0 and math.isfinite(r) and r != math.floor(r):
        _domain(f"fractional power of negative base {l}", node)
    if l == 0.0 and r < 0.0:
        _domain("zero raised to a negative power", node)
    try:
        return math.pow(l, r)
    except OverflowError:
        sign = -1.0 if (l < 0.0 and math.floor(r) % 2 == 1) else 1.0
        return sign * math.inf


def _ln(v: float, node: Call) -> float:
    if v <= 0.0:
        _domain(f"logarithm of non-positive value {v}", node)
    return math.log(v)


def _sqrt(v: float, node: Call) -> float:
    if v < 0.0:
        _domain(f"square root of negative value {v}", node)
    return math.sqrt(v)


def _trig(f, v: float) -> float:
    return math.nan if math.isinf(v) else f(v)  # as in IEEE (math raises)


def _saturating(f, v: float) -> float:
    try:
        return f(v)
    except OverflowError:  # exp, sinh and cosh saturate, as in IEEE
        return math.copysign(math.inf, v) if f is math.sinh else math.inf


_RUNTIME = {"_div": _div, "_pow": _pow, "_ln": _ln, "_sqrt": _sqrt, "_trig": _trig,
            "_saturating": _saturating, "abs": abs, "sin": math.sin, "cos": math.cos,
            "exp": math.exp, "sinh": math.sinh, "cosh": math.cosh, "log": math.log,
            "sqrt": math.sqrt, "pow": math.pow}
# The same for the binary operators, from the values of both operands.  A
# truthy divisor is neither 0.0 nor -0.0 (NaN is truthy and divides).
_BINARY = {"+": "{0} + {1}", "-": "{0} - {1}", "*": "{0} * {1}",
           "/": "{0} / {1} if {1} else _div({0}, {1}, {n})", "^": "_pow({0}, {1}, {n})"}


def _power(exponent: Expr) -> str:
    """The template of ``l ^ r`` for the exponent tree ``r``.

    For a positive finite literal ``r`` it calls ``math.pow`` while ``|l| <
    2^(1020/max(r, 1))``, so that the power stays near 2^1020 at most and
    cannot overflow; a fractional ``r`` also needs ``l >= 0.0`` (``-0.0``
    passes, as in ``_pow``).  Every other power calls ``_pow``.
    """
    kind = type(exponent)
    r = (exponent.value if kind is Num
         else CONSTANTS.get(exponent.ident) if kind is Name else None)
    if r is None or not 0.0 < r < math.inf:
        return _BINARY["^"]
    bound = 2.0 ** (1020.0 / max(r, 1.0))
    low = f"-{bound!r} <" if r.is_integer() else "0.0 <="
    return f"pow({{0}}, {{1}}) if {low} {{0}} < {bound!r} else _pow({{0}}, {{1}}, {{n}})"


def _kids(node: Expr) -> tuple:
    """The operands of ``node``, left to right."""
    kind = type(node)
    if kind is BinOp:
        return node.left, node.right
    if kind is Neg:
        return (node.operand,)
    if kind is Call:
        return (node.arg,)
    return ()


def _postorder(expr: Expr):
    """Each distinct node of ``expr`` (by identity) once, after its operands.

    Without recursion.  Operands go left to right, so the order is the tree
    walk's with every repeated subtree left out.
    """
    done: set[int] = set()
    stack = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            done.add(id(node))
            yield node
        elif id(node) not in done:
            stack.append((node, True))
            stack.extend((k, False) for k in reversed(_kids(node)))


def compile_expr(expr: Expr) -> Callable[[float, float], float]:
    """``expr`` as one Python function ``f(x, u)`` of floats, compiled once.

    ``f`` runs one statement per distinct node, in the order of a recursive
    walk that skips repeated subtrees, so it needs no recursion however high
    the tree is.  A node is repeated when it is the same object as an
    earlier one, or when it applies the same operator to the same operand
    values (``ln(u)`` written twice); it then reuses the earlier value.
    ``+``, ``-``, ``*``, negation and ``abs`` are inline.  Each other
    operator is one conditional expression: the plain ``math`` call (or
    ``/``) where its helper would make exactly that call and it cannot
    raise, the helper elsewhere; NaN always takes the helper.  The helpers
    make the walk's checks, so ``f`` computes the same floats as the walk
    and raises the same domain errors: the first node that fails is the
    first with its operator and operands, which the walk reaches first too.
    """
    namespace = dict(_RUNTIME)
    values: dict[int, str] = {}  # id(node) -> its name or literal in the source
    emitted: dict[tuple, str] = {}  # (template, operands) -> the name computed
    body = []
    for node in _postorder(expr):
        kind = type(node)
        if kind is Name and node.ident in VARIABLES:
            values[id(node)] = node.ident
        elif kind is Num or kind is Name:
            value = node.value if kind is Num else CONSTANTS[node.ident]
            text = repr(value)
            if not math.isfinite(value) or text.startswith("-"):
                text = f"k{len(namespace)}"
                namespace[text] = value
            values[id(node)] = text
        else:
            if kind is BinOp:
                template = _power(node.right) if node.op == "^" else _BINARY[node.op]
            else:
                template = "-{0}" if kind is Neg else _CALLS[node.func]
            key = (template, *(values[id(k)] for k in _kids(node)))
            if key not in emitted:
                name = emitted[key] = f"v{len(body)}"
                if "{n}" in template:
                    namespace["n" + name] = node
                body.append(f"    {name} = {template.format(*key[1:], n='n' + name)}\n")
            values[id(node)] = emitted[key]
    source = "def f(x, u):\n" + "".join(body) + f"    return {values[id(expr)]}\n"
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["f"]


def evaluate(expr: Expr | Callable[[float, float], float], x: float, u: float) -> float:
    """Evaluate ``expr`` at ``(x, u)`` with IEEE double semantics.

    ``expr`` is a function from :func:`compile_expr`, or a tree, which is
    compiled for this one call.
    """
    f = expr if callable(expr) else compile_expr(expr)
    return f(float(x), float(u))


_ZERO, _ONE = Num(0.0), Num(1.0)
# d/dv f(v) for each function f, as a tree in v.
_CHAIN = {
    "exp": lambda v: Call("exp", v), "ln": lambda v: BinOp("/", _ONE, v),
    "sin": lambda v: Call("cos", v), "cos": lambda v: Neg(Call("sin", v)),
    "sinh": lambda v: Call("cosh", v), "cosh": lambda v: Call("sinh", v),
    "sqrt": lambda v: BinOp("/", Num(0.5), Call("sqrt", v)),
    "abs": lambda v: BinOp("/", v, Call("abs", v)),
}


def _mul(a: Expr, b: Expr) -> Expr:
    """``a * b``; a ``_ZERO`` factor (a term that is not there) or ``_ONE`` drops out."""
    if a is _ZERO or b is _ZERO:
        return _ZERO
    return b if a is _ONE else a if b is _ONE else BinOp("*", a, b)


def _add(a: Expr, b: Expr, op: str = "+") -> Expr:
    """``a + b`` or ``a - b`` without its ``_ZERO`` terms."""
    if a is _ZERO:
        return b if op == "+" or b is _ZERO else Neg(b)
    return a if b is _ZERO else BinOp(op, a, b)


def derivative(expr: Expr, name: str) -> Expr:
    """The partial derivative of ``expr`` in the variable ``name``, as a new tree.

    A subtree free of the variable gives no term, so the result is ``Num(0)``
    exactly when ``expr`` does not mention the variable.  A divisor or an
    exponent free of it takes the short rule (``r l^(r-1) l'``, no ``ln l``).
    The result can still fail where ``expr`` is defined: ``abs(v)`` gives
    ``v/abs(v)``, ``sqrt(v)`` gives ``0.5/sqrt(v)`` and ``v^0.5`` gives
    ``0.5*v^(0.5-1)``, all undefined at ``v = 0``.  Each derivative of an
    m-factor product multiplies the size of its tree by about m; write
    ``x^m``, not ``x*...*x``.
    """
    if isinstance(expr, (Num, Name)):
        return _ONE if expr == Name(name) else _ZERO
    if isinstance(expr, Neg):
        return _add(_ZERO, derivative(expr.operand, name), "-")
    if isinstance(expr, Call):
        return _mul(_CHAIN[expr.func](expr.arg), derivative(expr.arg, name))
    l, r, op = expr.left, expr.right, expr.op
    dl, dr = derivative(l, name), derivative(r, name)
    if op in "+-":
        return _add(dl, dr, op)
    if op == "*":
        return _add(_mul(dl, r), _mul(l, dr))
    if dl is _ZERO and dr is _ZERO:
        return _ZERO
    if op == "/":  # (l' - (l/r) r') / r
        return BinOp("/", _add(dl, _mul(expr, dr), "-"), r)
    if dr is _ZERO:  # r l^(r-1) l'
        return _mul(BinOp("*", r, BinOp("^", l, BinOp("-", r, _ONE))), dl)
    log_term = _mul(dr, Call("ln", l))  # l^r (r' ln(l) + r l'/l)
    return _mul(expr, log_term if dl is _ZERO else _add(log_term, BinOp("/", _mul(r, dl), l)))


def height(expr: Expr) -> int:
    """The levels of ``expr``, a leaf counting 1, as the parser counts them.

    Without recursion, and each shared node (by identity) is measured once:
    a derivative tree can be higher than the recursion limit and hold far
    more paths than nodes.
    """
    heights: dict[int, int] = {}
    for node in _postorder(expr):
        heights[id(node)] = 1 + max((heights[id(k)] for k in _kids(node)), default=0)
    return heights[id(expr)]


def affine_in(expr: Expr, name: str) -> bool:
    """True when the derivative of ``expr`` in the variable does not mention it.

    A structural test: ``u^1`` is not affine, ``0*u^2`` neither.
    """
    return derivative(derivative(expr, name), name) is _ZERO


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _wrap(s: str, wanted: bool) -> str:
    return f"({s})" if wanted else s


def pretty(node: Expr) -> str:
    """Minimal-parenthesis rendering; ``parse(pretty(e))`` equals ``e``."""
    if isinstance(node, Num):
        return f"{node.value:.17g}"
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Call):
        return f"{node.func}({pretty(node.arg)})"
    if isinstance(node, Neg):
        inner = pretty(node.operand)
        return "-" + _wrap(inner, isinstance(node.operand, BinOp))
    op = node.op
    left, right = node.left, node.right
    if op == "^":
        # Left operand of the right-associative power must be atomic or unary.
        ls = _wrap(pretty(left), isinstance(left, BinOp))
        rs = _wrap(pretty(right), isinstance(right, BinOp) and _PREC[right.op] < _PREC["^"])
        return f"{ls}^{rs}"
    ls = _wrap(pretty(left), isinstance(left, BinOp) and _PREC[left.op] < _PREC[op])
    rs = _wrap(pretty(right), isinstance(right, BinOp) and _PREC[right.op] <= _PREC[op])
    return f"{ls}{op}{rs}"
