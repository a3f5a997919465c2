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
errors carry the character offset of the offending token; evaluation follows
IEEE double semantics (overflow saturates to infinity) and raises a domain
error naming the offending sub-expression for logs of non-positive numbers,
division by zero and fractional powers of negative bases.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

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
    "pretty",
    "affine_in",
]

VARIABLES = ("x", "u")
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = ("exp", "ln", "sin", "cos", "sinh", "cosh", "sqrt", "abs")

_MAX_DEPTH = 200


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

    def expr(self) -> Expr:
        self._enter()
        try:
            node = self.term()
            while self.peek().kind == "op" and self.peek().text in "+-":
                op = self.advance().text
                node = BinOp(op, node, self.term())
            return node
        finally:
            self.depth -= 1

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.unary()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = BinOp("^", node, self.factor())
        return node

    def unary(self) -> Expr:
        self._enter()
        try:
            if self.peek().kind == "op" and self.peek().text == "-":
                self.advance()
                return Neg(self.unary())
            return self.atom()
        finally:
            self.depth -= 1

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            follows_paren = self.peek().kind == "op" and self.peek().text == "("
            if tok.text in FUNCTIONS:
                if not follows_paren:
                    self.fail(f"function {tok.text!r} requires an argument list", tok)
                self.advance()
                arg = self.expr()
                self.expect_close(tok)
                return Call(tok.text, arg)
            if tok.text in VARIABLES or tok.text in CONSTANTS:
                if follows_paren:
                    self.fail(f"{tok.text!r} is not a function", tok)
                return Name(tok.text)
            self.fail(f"unknown identifier {tok.text!r}", tok)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_close(tok)
            return node
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
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExpressionSyntaxError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    return node


def _domain(message: str, node: Expr):
    raise ExpressionDomainError(message, pretty(node))


def _eval(node: Expr, x: float, u: float) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        if node.ident == "x":
            return x
        if node.ident == "u":
            return u
        return CONSTANTS[node.ident]
    if isinstance(node, Neg):
        return -_eval(node.operand, x, u)
    if isinstance(node, Call):
        v = _eval(node.arg, x, u)
        if node.func == "exp":
            try:
                return math.exp(v)
            except OverflowError:
                return math.inf
        if node.func == "ln":
            if v <= 0.0:
                _domain(f"logarithm of non-positive value {v}", node)
            return math.log(v)
        if node.func == "sqrt":
            if v < 0.0:
                _domain(f"square root of negative value {v}", node)
            return math.sqrt(v)
        # sin and cos of an infinity are NaN, as in IEEE (math raises).
        if node.func == "sin":
            return math.sin(v) if not math.isinf(v) else math.nan
        if node.func == "cos":
            return math.cos(v) if not math.isinf(v) else math.nan
        if node.func == "sinh":
            try:
                return math.sinh(v)
            except OverflowError:
                return math.copysign(math.inf, v)
        if node.func == "cosh":
            try:
                return math.cosh(v)
            except OverflowError:
                return math.inf
        return abs(v)
    # binary operator
    lv = _eval(node.left, x, u)
    rv = _eval(node.right, x, u)
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


def evaluate(expr: Expr, x: float, u: float) -> float:
    """Evaluate ``expr`` at ``(x, u)`` with IEEE double semantics."""
    return _eval(expr, float(x), float(u))


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _wrap(s: str, wanted: bool) -> str:
    return f"({s})" if wanted else s


def _degree(expr: Expr, name: str) -> int:
    """Structural degree in the variable: 0 free of it, 1 affine, 2 otherwise.

    Powers and calls that mention the variable count as 2, as does a product
    of two dependent factors: 1 is exact, 2 may be conservative (``u^1``).
    """
    if isinstance(expr, Num):
        return 0
    if isinstance(expr, Name):
        return int(expr.ident == name)
    if isinstance(expr, Neg):
        return _degree(expr.operand, name)
    if isinstance(expr, Call):
        return 2 * (_degree(expr.arg, name) > 0)
    left, right = _degree(expr.left, name), _degree(expr.right, name)
    if expr.op in "+-":
        return max(left, right)
    if expr.op == "*":
        return min(left + right, 2)
    if expr.op == "/":
        return left if right == 0 else 2
    return 2 * (left + right > 0)


def affine_in(expr: Expr, name: str) -> bool:
    """True when the expression is structurally affine in the variable (see ``_degree``)."""
    return _degree(expr, name) < 2


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
