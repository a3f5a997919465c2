"""Expression grammar: semantics, round trips, errors, and fuzz."""

import math
import pathlib
import random
import re
import string

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rkhsivp.errors import ExpressionDomainError, ExpressionSyntaxError
from rkhsivp.problem_model import ExactSolution
from walk_reference import walk
from rkhsivp.rhs_expr import (
    _MAX_DEPTH,
    FUNCTIONS,
    MAX_DERIVATIVE_HEIGHT,
    BinOp,
    Call,
    Name,
    Neg,
    Num,
    affine_in,
    compile_expr,
    derivative,
    evaluate,
    height,
    parse,
    pretty,
)


def ev(text, x=0.0, u=0.0):
    return evaluate(parse(text), x, u)


class TestSemantics:
    def test_precedence(self):
        assert ev("2+3*4") == 14.0
        assert ev("2*3+4") == 10.0
        assert ev("2+12/4") == 5.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0
        assert ev("(2^3)^2") == 64.0

    def test_unary_minus_binds_tighter_than_power(self):
        assert ev("-x^2", x=3.0) == 9.0
        assert ev("-(x^2)", x=3.0) == -9.0

    def test_unary_in_product_and_exponent(self):
        assert ev("2*-x", x=3.0) == -6.0
        assert ev("x^-1", x=2.0) == 0.5

    def test_benchmark_expressions(self):
        assert ev("x^3 + x^2 + 12*x + 6 - u", x=1.0, u=0.0) == 20.0
        assert ev("-4*(2*exp(u) + exp(u/2))", x=0.0, u=0.0) == -12.0
        assert ev("-9*pi*u - 2*pi*u*ln(u)", x=0.5, u=1.0) == pytest.approx(
            -9 * math.pi, rel=1e-15
        )

    def test_constants_and_functions(self):
        assert ev("pi") == math.pi
        assert ev("2*e") == 2 * math.e
        assert ev("sin(pi/2)") == pytest.approx(1.0, rel=1e-15)
        assert ev("cos(0)") == 1.0
        assert ev("sinh(1) + cosh(1)") == pytest.approx(math.e, rel=1e-14)
        assert ev("sqrt(x)", x=9.0) == 3.0
        assert ev("abs(0-x)", x=2.5) == 2.5
        assert ev("ln(e)") == pytest.approx(1.0, rel=1e-15)

    def test_number_formats(self):
        assert ev("1.5") == 1.5
        assert ev("1e-3") == 1e-3
        assert ev("2E+4") == 2e4
        assert ev(".5") == 0.5
        assert ev("5.") == 5.0

    def test_overflow_saturates(self):
        assert ev("exp(1000)") == math.inf
        assert ev("cosh(1000)") == math.inf
        assert math.isnan(ev("exp(1000) - exp(1000)"))

    def test_infinite_exponent_of_negative_base(self):
        # IEEE pow: (-1)^inf = 1, (-2)^inf = inf, (-2)^-inf = 0, NaN passes through.
        assert ev("(-1)^exp(exp(7))") == 1.0
        assert ev("(-2)^exp(1000)") == math.inf
        assert ev("(-2)^-exp(1000)") == 0.0
        assert math.isnan(ev("(-1)^(exp(1000) - exp(1000))"))

    def test_trig_of_infinity_is_nan(self):
        assert math.isnan(ev("sin(exp(exp(7)))"))
        assert math.isnan(ev("cos(-exp(1000))"))


class TestAst:
    def test_shape_of_difference(self):
        tree = parse("x^3 + x^2 + 12*x + 6 - u")
        assert isinstance(tree, BinOp) and tree.op == "-"
        assert tree.right == Name("u")

    def test_power_tree(self):
        tree = parse("2^3^2")
        assert isinstance(tree, BinOp) and tree.op == "^"
        assert isinstance(tree.right, BinOp) and tree.right.op == "^"
        assert tree.left == Num(2.0)

    def test_call_and_neg(self):
        tree = parse("-ln(x)")
        assert tree == Neg(Call("ln", Name("x")))


ROUND_TRIP_CORPUS = (
    "x",
    "u",
    "pi",
    "-x",
    "-(x+u)",
    "-(-x)",
    "x+u-1",
    "x-(u-1)",
    "2*x/u",
    "x/(u*x)",
    "(x+1)*(x-1)",
    "2^3^2",
    "(2^3)^2",
    "x^-1",
    "-x^2",
    "2*-x",
    "abs(-x)",
    "x^3 + x^2 + 12*x + 6 - u",
    "-4*(2*exp(u) + exp(u/2))",
    "-9*pi*u - 2*pi*u*ln(u)",
    "sin(cos(sinh(cosh(x))))",
    "sqrt(x^2 + u^2)",
    "1e-3*x + 2E+4",
)


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_pretty_then_parse_is_identity(self, text):
        tree = parse(text)
        assert parse(pretty(tree)) == tree

    def test_random_trees(self):
        rng = random.Random(917)

        def gen(depth):
            pick = rng.randrange(8 if depth < 6 else 3)
            if pick == 0:
                # Literals are unsigned in the grammar; a negative constant
                # is spelled Neg(Num), so only nonnegative values round-trip.
                return Num(float(f"{rng.uniform(0, 5):.3g}"))
            if pick == 1:
                return Name(rng.choice(("x", "u", "pi", "e")))
            if pick == 2:
                return Name("x")
            if pick == 3:
                return Neg(gen(depth + 1))
            if pick == 4:
                return Call(
                    rng.choice(("exp", "ln", "sin", "cos", "sqrt", "abs")),
                    gen(depth + 1),
                )
            op = rng.choice(("+", "-", "*", "/", "^"))
            return BinOp(op, gen(depth + 1), gen(depth + 1))

        for _ in range(500):
            tree = gen(0)
            assert parse(pretty(tree)) == tree


MALFORMED = (
    ("", 0, "empty expression"),
    ("x +", 3, "unexpected end of expression"),
    ("(x", 2, "unbalanced parenthesis"),
    ("x)", 1, "unexpected trailing input"),
    ("sin", 0, "requires an argument list"),
    ("foo(x)", 0, "unknown identifier"),
    ("y + 1", 0, "unknown identifier"),
    ("2*pi*u*ln(u", 11, "unbalanced parenthesis"),
    ("3 @ 4", 2, "unexpected character"),
    ("()", 1, "unexpected token"),
    ("x u", 2, "unexpected trailing input"),
    ("exp()", 4, "unexpected token"),
)


class TestErrors:
    @pytest.mark.parametrize("text,offset,fragment", MALFORMED)
    def test_position_and_message(self, text, offset, fragment):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(text)
        assert err.value.offset == offset
        assert fragment in str(err.value)
        assert f"(at offset {offset})" in str(err.value)

    def test_depth_guard(self):
        text = "(" * 250 + "x" + ")" * 250
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(text)
        assert "nested" in str(err.value)

    @pytest.mark.parametrize("op", ["+", "-", "*", "/", "^"])
    def test_depth_guard_counts_chained_operators(self, op):
        # A chain of m terms is a tree of height m; pretty recurses that deep.
        assert math.isfinite(ev(("x" + op) * (_MAX_DEPTH - 1) + "x", x=1.0))
        for terms in (_MAX_DEPTH + 1, 1000):
            with pytest.raises(ExpressionSyntaxError, match="expression too deeply nested"):
                parse(("x" + op) * (terms - 1) + "x")

    def test_deepest_division_chain_has_second_derivative(self):
        # u = x/x/.../x = x^(2 - m) at the height limit m; its u'' is about 3m deep.
        m = _MAX_DEPTH
        exact = ExactSolution.from_expression(parse("x" + "/x" * (m - 1)))
        assert exact.u(1.0) == 1.0
        assert exact.d2u(1.0) == (2 - m) * (1 - m)

    def test_derivative_height_limit_is_the_division_chain(self):
        # The chain's u'' is the highest tree that evaluation must reach.
        du = derivative(parse("x" + "/x" * (_MAX_DEPTH - 1)), "x")
        assert height(du) == 2 * _MAX_DEPTH
        assert height(derivative(du, "x")) == MAX_DERIVATIVE_HEIGHT == 3 * _MAX_DEPTH + 1

    @pytest.mark.parametrize(
        "text, levels", [("x", 1), ("-x", 2), ("(x+1)*2", 3), ("sin(x)^2 - u", 4)]
    )
    def test_height_counts_levels_as_the_parser_does(self, text, levels):
        assert height(parse(text)) == levels

    def test_height_measures_shared_nodes_once(self):
        # 2,000 levels of one shared node: 2^2000 paths, far past the stack.
        node = Name("x")
        for _ in range(2_000):
            node = BinOp("*", node, node)
        assert height(node) == 2_001

    @pytest.mark.parametrize(
        "text,x,u,sub",
        (
            ("ln(u)", 0.0, 0.0, "ln(u)"),
            ("ln(0-1)", 0.0, 0.0, "ln(0-1)"),
            ("sqrt(0-x)", 4.0, 0.0, "sqrt(0-x)"),
            ("1/x", 0.0, 0.0, "1/x"),
            ("u/(x-x)", 1.0, 3.0, "u/(x-x)"),
            ("(0-2)^0.5", 0.0, 0.0, "(0-2)^0.5"),
            ("0^(0-2)", 0.0, 0.0, "0^(0-2)"),
        ),
    )
    def test_domain_errors_carry_subexpression(self, text, x, u, sub):
        with pytest.raises(ExpressionDomainError) as err:
            ev(text, x=x, u=u)
        assert err.value.subexpression == sub


TREES = st.recursive(
    st.one_of(
        st.just(Name("u")),
        st.sampled_from([Name("x"), Name("pi"), Name("e")]),
        st.builds(Num, st.floats(0, 10)),
    ),
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
    ),
    max_leaves=12,
)


def _outcome(f, *args):
    """The value's bits (any NaN reads the same), or the error's type and message."""
    try:
        return f(*args).hex()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _around(v):
    return (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))


# The operands at and beside every guard of compiled code: signed zeros, NaN
# and the infinities; exp, sinh and cosh near overflow; sin and cos at the
# ends of the floats; and |l| = 2^(1020/r), the bound of l^r for a literal r
# (2^1020 for r <= 1), and 2^(1024/r), where l^r overflows.
_BOUNDS = (708.9, 709.0, 709.5, 710.0, 1e154, 1e308, 2.0 ** 1020, 1.7976931348623157e308,
           *(2.0 ** (p / r) for r in (2.0, 3.0, 1.5) for p in (1020, 1024)))
EDGES = (0.0, -0.0, math.nan, math.inf, -math.inf,
         *(s * v for b in _BOUNDS for v in _around(b) for s in (1.0, -1.0)))
OPERANDS = st.one_of(st.floats(-3, 3), st.sampled_from(EDGES))
# The literal exponents of the guarded powers (the first seven), and some
# that always take the helper.
EXPONENTS = ("2", "3", "1.5", "0.5", "1", "1024.5", "1e17", "0", "(0-2)", "(0-0.5)", "x")


class TestCompiled:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(tree=TREES, x=OPERANDS, u=OPERANDS)
    # A subtree repeated by structure, not identity, runs once; it fails
    # first where the walk does, and names the same text.
    @example(tree=parse("ln(u)+ln(u)*x"), x=2.0, u=-1.0)
    @example(tree=parse("1/(x-u)+1/(x-u)"), x=1.5, u=1.5)
    @example(tree=parse("sqrt(u-x)*x^0.5 + sqrt(u-x)"), x=-0.0, u=-1.0)
    @example(tree=parse("ln(u)*sqrt(x) - abs(x - 3)/(u-u)"), x=1.3, u=0.0)
    @example(tree=parse("sinh(exp(x*800))^0.5 - (0-2)^x + 0^(0-u)"), x=1.5, u=1.0)
    # Each IEEE edge once: a signed overflow of ^ and sinh, a trig of inf.
    @example(tree=parse("(0-10)^401*x"), x=1.0, u=0.0)
    @example(tree=parse("sinh(0-1000)*cosh(u*1000)"), x=0.0, u=1.0)
    @example(tree=parse("sin(exp(1000)) - cos(x)"), x=0.0, u=0.0)
    def test_equals_the_walk_bit_for_bit(self, tree, x, u):
        # The derivative shares subtrees by identity, so compiled code runs
        # each once; the first failure must still be the walk's.
        for t in (tree, derivative(tree, "x")):
            assert _outcome(evaluate, t, x, u) == _outcome(walk, t, x, u)

    @pytest.mark.parametrize("tree", [
        *(parse(f"{f}(u)") for f in FUNCTIONS), parse("x/u"), parse("u/x"),
        *(parse(f"u^{r}") for r in EXPONENTS), parse("u^pi"), parse("x^u"),
        # Negative and infinite literals, which the parser never makes.
        *(BinOp("^", Name("u"), Num(r)) for r in (-2.0, -0.5, -0.0, math.inf)),
    ], ids=pretty)
    def test_guards_equal_the_walk_at_their_bounds(self, tree):
        for t in (tree, derivative(tree, "u")):
            f = compile_expr(t)
            for x in (-2.0, -0.0, 0.0, 3.0, math.nan):
                for u in EDGES:
                    assert _outcome(f, x, u) == _outcome(walk, t, x, u), (x, u)

    @pytest.mark.parametrize("text,names", [
        ("ln(u)+ln(u)*x", 3),  # ln, *, +
        ("1/(x-u)+1/(x-u)", 3),  # -, /, +
        ("(1+0.75*x^2)^2 + 1/(1+0.75*x^2)", 6),
        ("-(u^3) - -(u^3)", 3),
        ("x^2 + x^2.0 + x^(2)", 3),  # one power, two sums
        ("-0.0*u + -0.0*u", 3),
        ("exp(1e999) + exp(1e999)", 3),  # an infinite literal is its own constant
    ])
    def test_shares_repeated_structure(self, text, names):
        # One local per distinct (operator, operands), besides x and u.
        f = compile_expr(parse(text))
        assert f.__code__.co_nlocals == 2 + names

    def test_one_statement_per_shared_node(self):
        # 2,000 levels of one shared node: 2^2000 paths, far past the stack.
        node = Name("x")
        for _ in range(2_000):
            node = BinOp("*", node, node)
        f = compile_expr(node)
        assert f.__code__.co_nlocals == 2 + 2_000  # x, u and one value per BinOp
        assert f(1.0, 0.0) == 1.0 and f(2.0, 0.0) == math.inf and f(0.5, 0.0) == 0.0

    def test_deepest_division_chain_second_derivative_everywhere(self):
        # u = x^(2 - m); its 601-level u'' is (2 - m)(1 - m) x^(-m).
        m = _MAX_DEPTH
        exact = ExactSolution.from_expression(parse("x" + "/x" * (m - 1)))
        for x in (0.5, 0.9, 1.5):
            assert exact.d2u(x) == pytest.approx((2 - m) * (1 - m) * x**-m, rel=1e-12)

    def test_evaluate_calls_a_compiled_function(self):
        f = compile_expr(parse("x - 2*u"))
        assert evaluate(f, 3, 1) == 1.0
        with pytest.raises(ExpressionDomainError, match="division by zero in '1/u'"):
            evaluate(compile_expr(parse("1/u")), 1.0, 0.0)


class TestStructureQueries:
    @pytest.mark.parametrize(
        "text,expected",
        (
            ("x^3 + x^2 + 12*x + 6 - u", True),
            ("u", True),
            ("u/2 + exp(x)", True),
            ("x*u - u/3 + sin(x)", True),
            ("-u*cosh(x) + 1", True),
            ("sin(x)", True),
            ("-4*(2*exp(u) + exp(u/2))", False),
            ("-9*pi*u - 2*pi*u*ln(u)", False),
            ("u*u", False),
            ("u^1", False),
            ("2^u", False),
            ("x/u", False),
            ("abs(u)", False),
            ("u*0", True),
            ("exp(x)*u", True),
            ("u/(x+1)", True),
            ("0*u^2", False),
            ("(u+1)^1", False),
        ),
    )
    def test_affine_in_u(self, text, expected):
        assert affine_in(parse(text), "u") is expected

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(tree=TREES, x=st.floats(-3, 3))
    # F = 9e307 for every u: 2 F overflows, the differences below do not.
    @example(tree=parse("1/sin(1.1125369292536007e-308)"), x=0.0)
    def test_affine_answer_is_exact(self, tree, x):
        # A second difference in u of an affine F vanishes up to rounding.
        assume(affine_in(tree, "u"))
        try:
            f0, f1, f2 = (evaluate(tree, x, u) for u in (0.0, 1.0, 2.0))
        except ExpressionDomainError:
            assume(False)
        scale = _magnitude(tree, x)
        assume(all(map(math.isfinite, (f0, f1, f2, scale))))
        assert abs((f2 - f1) - (f1 - f0)) <= 1e-12 * scale + 1e-300


def _magnitude(node, x):
    """Bound on ``|node|`` for ``u`` in [0, 2], for an affine ``node``.

    A subtree free of ``u`` evaluates to the same constant at every ``u``,
    so its rounding cancels in the second difference; the rounding of the
    other operations is at most a few ulps of this bound.
    """
    if not _mentions_u(node):
        return abs(evaluate(node, x, 0.0))
    if isinstance(node, Name):
        return 2.0
    if isinstance(node, Neg):
        return _magnitude(node.operand, x)
    left, right = _magnitude(node.left, x), _magnitude(node.right, x)
    if node.op == "/":
        return left / right
    return left * right if node.op == "*" else left + right


def _mentions_u(node):
    """True when the name ``u`` occurs in ``node``."""
    if isinstance(node, (Num, Name)):
        return node == Name("u")
    if isinstance(node, Neg):
        return _mentions_u(node.operand)
    if isinstance(node, Call):
        return _mentions_u(node.arg)
    return _mentions_u(node.left) or _mentions_u(node.right)


# |f'(v)| for each function f, for the rounding bound below.
_SLOPE = {"exp": math.exp, "ln": lambda v: 1 / abs(v),
          "sin": lambda v: abs(math.cos(v)), "cos": lambda v: abs(math.sin(v)),
          "sinh": math.cosh, "cosh": lambda v: abs(math.sinh(v)),
          "sqrt": lambda v: 0.5 / math.sqrt(v), "abs": lambda v: 1.0}


def _rounding(node, x, u):
    """``evaluate(node, x, u)`` and a first-order bound on its rounding error.

    Each operation adds two ulps of its result (and the least subnormal, for
    underflow) to the errors of its operands carried through it, so
    cancellation (``1 - x*cos(x)/sin(x)`` near 0) shows in the bound.
    """
    eps = 2.0**-52
    v = evaluate(node, x, u)
    if isinstance(node, (Num, Name)):
        return v, eps * abs(v) if node in (Name("pi"), Name("e")) else 0.0
    if isinstance(node, Neg):
        return v, _rounding(node.operand, x, u)[1]
    if isinstance(node, Call):
        a, ea = _rounding(node.arg, x, u)
        return v, (_SLOPE[node.func](a) * ea if ea else 0.0) + eps * abs(v) + 2.0**-1074
    (a, ea), (b, eb) = _rounding(node.left, x, u), _rounding(node.right, x, u)
    if node.op in "+-":
        carried = ea + eb
    elif node.op == "*":
        carried = abs(a) * eb + abs(b) * ea
    elif node.op == "/":
        carried = (ea + abs(v) * eb) / abs(b)
    else:
        carried = ((abs(b * a ** (b - 1)) * ea if ea else 0.0)
                   + (abs(v * math.log(abs(a))) * eb if eb and a else 0.0))
    return v, carried + eps * abs(v) + 2.0**-1074


def _differences(tree, x, u, h):
    """Differences of ``tree`` in x on the grid ``x + j h``, ``|j| <= 4``.

    Returns the central 5-point first and second differences at steps h and
    2h, the gap between the one-sided 5-point first differences to the right
    and to the left of x, the largest ``|F(x + j h) - F(x)|``, and a bound on
    the error of each F value: its rounding, the rounding of the differences,
    and that of the grid point (with ``|F'|`` read as the largest of the
    central first differences).
    """
    f, noise = {}, 0.0
    for j in range(-4, 5):
        f[j], e = _rounding(tree, x + j * h, u)
        noise = max(noise, e + 2.0**-51 * abs(f[j]))

    def central(s):
        a, b, c, d, e = (f[j * s] for j in (-2, -1, 0, 1, 2))
        first = (a - 8 * b + 8 * d - e) / (12 * s * h)
        return first, (-a + 16 * b - 30 * c + 16 * d - e) / (12 * (s * h) ** 2)

    def one_sided(s):  # s = 1 reads the grid right of x, s = -1 left of it
        a, b, c, d, e = (f[j * s] for j in range(5))
        return s * (-25 * a + 48 * b - 36 * c + 16 * d - 3 * e) / (12 * h)

    fine, coarse = central(1), central(2)
    slope = max(abs(fine[0]), abs(coarse[0]))
    noise += 2.0**-52 * (abs(x) + 4 * h) * slope
    spread = max(abs(v - f[0]) for v in f.values())
    return fine, coarse, one_sided(1) - one_sided(-1), spread, noise


class TestDerivative:
    def test_affine_coefficient_is_exact(self):
        q = derivative(parse("x*u - u/3 + sin(x)"), "u")
        assert pretty(q) == "x-1/3"
        for x in (-2.0, 0.0, 0.3, 7.5):
            assert evaluate(q, x, 123.0) == x - 1 / 3

    def test_fractional_power_at_zero(self):
        d1 = derivative(parse("x^2.5"), "x")
        d2 = derivative(d1, "x")
        assert evaluate(d1, 0.0, 0.0) == 0.0
        assert evaluate(d2, 0.0, 0.0) == 0.0
        assert evaluate(d1, 4.0, 0.0) == 2.5 * 8.0
        assert evaluate(d2, 4.0, 0.0) == 3.75 * 2.0

    @pytest.mark.parametrize("text", ["pi*sin(x)^2", "ln(x)/e", "u", "3"])
    def test_free_of_the_variable_is_zero(self, text):
        assert derivative(parse(text), "y") == Num(0.0)

    @pytest.mark.parametrize(
        "text,sub", [("abs(x)^3", "x/abs(x)"), ("sqrt(x)", "0.5/sqrt(x)")]
    )
    def test_rules_that_divide_fail_at_zero(self, text, sub):
        # abs(x)^3 is smooth enough at 0, but its derivative tree divides there.
        with pytest.raises(ExpressionDomainError) as err:
            evaluate(derivative(parse(text), "x"), 0.0, 0.0)
        assert err.value.subexpression == sub

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(tree=TREES, x=st.floats(-3, 3), u=st.floats(-2, 2))
    # abs(x) just beside its kink: both central differences read about 0.
    @example(tree=Call("abs", Name("x")), x=1.3724200594928094e-09, u=0.0)
    # Every rule at least once, whatever the draws.
    @example(tree=parse("ln(x)*sqrt(x) - abs(x - 3)"), x=1.3, u=0.0)
    @example(tree=parse("sin(x)/cos(u*x) + exp(x)^2.5"), x=0.7, u=1.5)
    @example(tree=parse("sinh(x)*cosh(x) - x^x - 2^(u*x)"), x=1.1, u=0.5)
    def test_matches_difference_quotients(self, tree, x, u):
        # Where the differences at steps h and 2h agree, the exact
        # derivatives agree with the finer one to its error.
        h, d1_tree = 1e-3, derivative(tree, "x")
        try:
            exact = [_rounding(t, x, u) for t in (d1_tree, derivative(d1_tree, "x"))]
            fine, coarse, gap, spread, noise = _differences(tree, x, u, h)
        except (ExpressionDomainError, ArithmeticError, ValueError):
            assume(False)
        assume(all(map(math.isfinite, (*sum(exact, ()), *fine, *coarse, gap, noise))))
        # F must move on the grid as much as its derivatives say: a feature
        # narrower than h (exp(c/x) with a tiny c, just beside 0) is invisible
        # to the differences.
        assume(abs(exact[0][0]) * h + abs(exact[1][0]) * h**2 <= 1e3 * (spread + noise))
        # A kink or pole within 4h makes the one-sided differences disagree,
        # even where the central ones cancel it (abs(x) just beside 0).
        assume(abs(gap) <= 1e-3 * abs(fine[0]) + 22 * noise / h)
        # The differences magnify F's rounding by up to 3/h and 22/h^2.
        f_errs = (3 * noise / h, 22 * noise / h**2)
        for (d, d_err), f, c, f_err in zip(exact, fine, coarse, f_errs):
            assume(abs(c - f) <= 1e-4 * abs(f) + 2 * f_err)
            assert abs(d - f) <= 2 * abs(c - f) + 2 * (d_err + f_err) + 1e-300

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(tree=TREES, x=st.floats(-3, 3))
    def test_affine_coefficient_is_the_difference(self, tree, x):
        # On an affine F, dF/du at u = 0 is F(x, 1) - F(x, 0) up to rounding.
        assume(affine_in(tree, "u"))
        try:
            q = evaluate(derivative(tree, "u"), x, 0.0)
            f0, f1 = evaluate(tree, x, 0.0), evaluate(tree, x, 1.0)
        except ExpressionDomainError:
            assume(False)
        scale = _magnitude(tree, x)
        assume(all(map(math.isfinite, (q, f0, f1, scale))))
        assert abs(q - (f1 - f0)) <= 1e-12 * scale + 1e-300


class TestFuzz:
    def test_random_strings_never_crash(self):
        rng = random.Random(31337)
        alphabet = string.ascii_lowercase + string.digits + "+-*/^()., xupie"
        parsed = 0
        for _ in range(20_000):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(1, 30))
            )
            try:
                parse(text)
                parsed += 1
            except ExpressionSyntaxError as err:
                assert 0 <= err.offset <= len(text)
        assert parsed > 0

    def test_mutated_expressions_never_crash(self):
        rng = random.Random(4242)
        for _ in range(5_000):
            base = list(rng.choice(ROUND_TRIP_CORPUS))
            for _ in range(rng.randrange(1, 4)):
                pos = rng.randrange(len(base))
                base[pos] = rng.choice("()+-*/^ 0123456789xu")
            text = "".join(base)
            try:
                tree = parse(text)
            except ExpressionSyntaxError:
                continue
            try:
                evaluate(tree, 0.7, 1.3)
            except ExpressionDomainError:
                pass


def test_readme_lists_exactly_the_parser_functions():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    match = re.search(r"the functions `([^`]+)`", readme.read_text(encoding="utf-8"))
    assert match is not None
    names = [name.strip() for name in match.group(1).split(",")]
    assert sorted(names) == sorted(FUNCTIONS)
    for name in names:
        assert math.isfinite(evaluate(parse(f"{name}(x)"), 0.5, 0.0))
