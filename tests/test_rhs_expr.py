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
from rkhsivp.rhs_expr import (
    FUNCTIONS,
    BinOp,
    Call,
    Name,
    Neg,
    Num,
    affine_in,
    depends_on,
    evaluate,
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
        ),
    )
    def test_affine_in_u(self, text, expected):
        assert affine_in(parse(text), "u") is expected

    def test_depends_on(self):
        tree = parse("x^2 + ln(u)")
        assert depends_on(tree, "x") and depends_on(tree, "u")
        assert not depends_on(parse("pi*e + 1"), "x")

    @settings(max_examples=400, deadline=None)
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
    if not depends_on(node, "u"):
        return abs(evaluate(node, x, 0.0))
    if isinstance(node, Name):
        return 2.0
    if isinstance(node, Neg):
        return _magnitude(node.operand, x)
    left, right = _magnitude(node.left, x), _magnitude(node.right, x)
    if node.op == "/":
        return left / right
    return left * right if node.op == "*" else left + right


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
