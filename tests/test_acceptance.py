"""Acceptance gate: one pass or fail verdict line per contract criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see every verdict line even
when the whole gate is green.
"""

import math
import random
import string
import time

import numpy as np
import pytest

from rkhsivp import (
    AffineRhs,
    ExactSolution,
    ExpressionSyntaxError,
    Interval,
    ProblemSpec,
    build_basis,
    build_w23_kernel,
    builtin,
    error_report,
    eval_kernel,
    gram_matrix,
    integrate,
    kernel_section,
    orthonormalize,
    residual_sup_norm,
    solve_problem,
    uniform_points,
    w23_inner_product,
)
from rkhsivp.rhs_expr import evaluate as eval_expr
from rkhsivp.rhs_expr import parse, pretty

TABLE_GRID = (0.16, 0.32, 0.48, 0.64, 0.80, 0.96)

EX1_TABLE_6DP = (0.029696, 0.135168, 0.340992, 0.671744, 1.152000, 1.806336)
EX2_TABLE_7DP = (
    -0.0505556,
    -0.1949792,
    -0.4146786,
    -0.6866119,
    -0.9893925,
    -1.3063163,
)
EX3_TABLE_6DP = (0.960585, 0.851420, 0.696344, 0.525504, 0.365931, 0.235123)


def verdict(index, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {index}: {detail}"
    print(line)
    assert ok, line


def dense_grid(interval, m=200):
    j = np.arange(1, m + 1, dtype=float)
    return interval.a + j * interval.length / m


def tabulated_digit_gap(values, printed, decimals):
    """Worst distance from a benchmark table column and the agreement band.

    One unit in the last printed decimal: the benchmark tables mix
    round-to-nearest with truncation toward zero, and both stay within one
    ulp of the underlying value.
    """
    band = 10.0**-decimals + 1e-12
    worst = max(abs(v - p) for v, p in zip(values, printed))
    return worst, band


@pytest.fixture(scope="module")
def kernel01():
    return build_w23_kernel(Interval(0.0, 1.0))


@pytest.fixture(scope="module")
def table_solutions():
    return {
        name: solve_problem(builtin(name), n=100) for name in ("ex1", "ex2", "ex3")
    }


def test_criterion_1_linear_benchmark_table():
    problem = builtin("ex1")
    start = time.perf_counter()
    sol = solve_problem(problem, n=100)
    seconds = time.perf_counter() - start
    report = error_report(sol, TABLE_GRID)
    digit_worst, band = tabulated_digit_gap(
        [row.exact for row in report.rows], EX1_TABLE_6DP, 6
    )
    ok = digit_worst <= band and report.max_absolute <= 1e-5 and seconds <= 5.0
    verdict(
        1,
        ok,
        f"ex1 n=100: exact column within {digit_worst:.1e} of the 6 tabulated "
        f"decimals, max |error| {report.max_absolute:.3e} <= 1e-05, "
        f"solved in {seconds:.2f} s <= 5 s",
    )


def test_criterion_2_exponential_benchmark_table(table_solutions):
    report = error_report(table_solutions["ex2"], TABLE_GRID)
    digit_worst, band = tabulated_digit_gap(
        [row.exact for row in report.rows], EX2_TABLE_7DP, 7
    )
    ok = digit_worst <= band and report.max_absolute <= 1e-5
    verdict(
        2,
        ok,
        f"ex2 n=100: exact column within {digit_worst:.1e} of the 7 tabulated "
        f"decimals, max |error| {report.max_absolute:.3e} <= 1e-05",
    )


def test_criterion_3_logarithmic_benchmark_table(table_solutions):
    report = error_report(table_solutions["ex3"], TABLE_GRID)
    digit_worst, band = tabulated_digit_gap(
        [row.exact for row in report.rows], EX3_TABLE_6DP, 6
    )
    ok = digit_worst <= band and report.max_absolute <= 1e-5
    verdict(
        3,
        ok,
        f"ex3 n=100: exact column within {digit_worst:.1e} of the 6 tabulated "
        f"decimals, max |error| {report.max_absolute:.3e} <= 1e-05",
    )


def test_criterion_4_error_and_residual_decrease(table_solutions):
    pieces = []
    ok = True
    for name in ("ex1", "ex2", "ex3"):
        problem = builtin(name)
        grid = dense_grid(problem.interval)
        errors, residuals = [], []
        for n in (25, 50, 100):
            sol = table_solutions[name] if n == 100 else solve_problem(problem, n=n)
            errors.append(
                max(abs(sol(float(x)) - problem.exact.u(float(x))) for x in grid)
            )
            residuals.append(residual_sup_norm(sol))
        ok = (
            ok
            and errors[0] > errors[1] > errors[2]
            and residuals[0] > residuals[1] > residuals[2]
        )
        pieces.append(
            f"{name} err {errors[0]:.2e}>{errors[1]:.2e}>{errors[2]:.2e}"
        )
    verdict(
        4,
        ok,
        "errors and residual sup-norms strictly decrease over n=25,50,100: "
        + "; ".join(pieces),
    )


def test_criterion_5_kernel_suite(kernel01):
    xs = np.linspace(0.02, 1.0, 50)
    symmetry = max(
        abs(eval_kernel(kernel01, float(x), float(y)) - eval_kernel(kernel01, float(y), float(x)))
        for x in xs
        for y in xs
    )

    def closed_form(x, y):
        if y > x:
            x, y = y, x
        return (y**5 - 5 * x * y**4 + 10 * x**2 * y**3 + 30 * x**2 * y**2) / 120.0

    grid = np.linspace(0.025, 1.0, 40)
    closed = max(
        abs(eval_kernel(kernel01, float(x), float(y)) - closed_form(float(x), float(y)))
        for x in grid
        for y in grid
    )

    cases = (
        (lambda y, m: (y**2, 2 * y, 2.0, 0.0)[m], lambda x: x**2),
        (lambda y, m: (y**3, 3 * y**2, 6 * y, 6.0)[m], lambda x: x**3),
        (
            lambda y, m: (
                y**2 * math.exp(y),
                (y**2 + 2 * y) * math.exp(y),
                (y**2 + 4 * y + 2) * math.exp(y),
                (y**2 + 6 * y + 6) * math.exp(y),
            )[m],
            lambda x: x**2 * math.exp(x),
        ),
    )
    reproducing = 0.0
    for u, u0 in cases:
        for x in np.linspace(0.05, 1.0, 20):
            x = float(x)
            got = w23_inner_product(
                u, kernel_section(kernel01, x), kernel01.interval, breakpoints=(x,)
            )
            reproducing = max(reproducing, abs(got - u0(x)))

    a, T = kernel01.interval.a, kernel01.interval.T
    rng = np.random.default_rng(20260817)
    conditions = 0.0
    for x in rng.uniform(0.01, 0.99, size=20):
        x = float(x)
        left = lambda y, m: eval_kernel(kernel01, x, y, m, branch="left")
        right = lambda y, m: eval_kernel(kernel01, x, y, m, branch="right")
        residuals = [
            left(a, 0),
            left(a, 1),
            left(a, 2) - left(a, 3),
            right(T, 3),
            right(T, 4),
            right(T, 5),
        ]
        residuals.extend(left(x, m) - right(x, m) for m in range(5))
        residuals.append(left(x, 5) - right(x, 5) - 1.0)
        conditions = max(conditions, max(abs(r) for r in residuals))

    ok = (
        symmetry <= 1e-10
        and reproducing <= 1e-8
        and conditions <= 1e-9
        and closed <= 1e-10
    )
    verdict(
        5,
        ok,
        f"kernel: symmetry gap {symmetry:.1e} <= 1e-10 (50x50), reproducing gap "
        f"{reproducing:.1e} <= 1e-08 (3 functions x 20 points), construction "
        f"residuals {conditions:.1e} <= 1e-09 (20 sections), closed-form gap "
        f"{closed:.1e} <= 1e-10 (40x40)",
    )


def beta_by_recurrence(gram):
    n = gram.shape[0]
    beta = np.zeros((n, n))
    for i in range(n):
        c = np.array([beta[m] @ gram[i] for m in range(i)])
        d = math.sqrt(gram[i, i] - float(c @ c) if i else gram[0, 0])
        row = np.zeros(n)
        row[i] = 1.0
        for m in range(i):
            row -= c[m] * beta[m]
        beta[i] = row / d
    return beta


def test_criterion_6_orthonormal_basis(kernel01):
    interval = kernel01.interval
    gram100 = gram_matrix(kernel01, 2.0, uniform_points(interval, 100))
    beta100 = orthonormalize(gram100)
    identity_gap = float(
        np.max(np.abs(beta100 @ gram100 @ beta100.T - np.eye(100)))
    )

    recurrence_gap = 0.0
    for n in (2, 4, 6):
        gram = gram_matrix(kernel01, 2.0, uniform_points(interval, n))
        gap = float(np.max(np.abs(orthonormalize(gram) - beta_by_recurrence(gram))))
        recurrence_gap = max(recurrence_gap, gap)

    n = 8
    basis = build_basis(kernel01, 2.0, uniform_points(interval, n))
    nodes = tuple(float(x) for x in basis.points.values)

    def psibar(i):
        return lambda y, order=0: float(basis.psibar_values(y, order)[i])

    quad_gap = 0.0
    for i in range(n):
        for j in range(i, n):
            inner = w23_inner_product(
                psibar(i), psibar(j), interval, breakpoints=nodes
            )
            quad_gap = max(quad_gap, abs(inner - (1.0 if i == j else 0.0)))

    ok = identity_gap <= 1e-8 and recurrence_gap <= 1e-8 and quad_gap <= 1e-5
    verdict(
        6,
        ok,
        f"orthonormality: |beta G beta^T - I| {identity_gap:.1e} <= 1e-08 (n=100), "
        f"Cholesky vs Gram-Schmidt recurrence {recurrence_gap:.1e} <= 1e-08 (n<=6), "
        f"quadrature inner products within {quad_gap:.1e} of identity (n=8, tol 1e-05)",
    )


def test_criterion_7_independent_oracle(table_solutions):
    pieces = []
    worst = 0.0
    for name in ("ex1", "ex2", "ex3"):
        oracle = integrate(builtin(name))
        sol = table_solutions[name]
        gap = max(abs(sol(x) - oracle.u(x)) for x in TABLE_GRID)
        worst = max(worst, gap)
        pieces.append(f"{name} {gap:.2e}")
    ok = worst <= 1e-4
    verdict(
        7,
        ok,
        "adaptive integrator cross-check on the report grid (n=100): "
        + ", ".join(pieces)
        + " all <= 1e-04",
    )


def test_criterion_8_manufactured_quadratic():
    pieces = []
    ok = True
    for k in (1.0, 2.0, 8.0):
        g_value = 2.0 + 2.0 * k
        problem = ProblemSpec(
            name=f"quadratic-k{k:g}",
            k=k,
            interval=Interval(0.0, 1.0),
            alpha=0.0,
            beta=0.0,
            rhs=lambda x, u, g=g_value: g,
            affine=AffineRhs(g=lambda x, g=g_value: g, q=lambda x: 0.0),
            exact=ExactSolution(
                u=lambda x: x * x, du=lambda x: 2 * x, d2u=lambda x: 2.0
            ),
        )
        sol = solve_problem(problem, n=800)
        worst = max(
            abs(sol(float(x)) - float(x) ** 2) for x in sol.basis.points.values
        )
        ok = ok and worst <= 1e-8
        pieces.append(f"k={k:g}: {worst:.2e}")
    verdict(
        8,
        ok,
        "manufactured quadratic solution, nodal errors at n=800: "
        + ", ".join(pieces)
        + " all <= 1e-08",
    )


def test_criterion_9_expression_parser():
    precedence_ok = (
        eval_expr(parse("2 + 3*4"), 0.0, 0.0) == 14.0
        and eval_expr(parse("2^3^2"), 0.0, 0.0) == 512.0
    )

    corpus = (
        "x^3 + x^2 + 12*x + 6 - u",
        "-4*(2*exp(u) + exp(0.5*u))",
        "-9*pi*u - 2*pi*u*ln(u)",
        "sin(x)*cos(u) / (1 + x^2)",
        "2^3^2",
        "-x^2",
        "sqrt(abs(x - u))",
        "(x + u)*(x - u) + 1e-3",
    )
    round_trip_ok = True
    for text in corpus:
        tree = parse(text)
        reparsed = parse(pretty(tree))
        round_trip_ok = round_trip_ok and reparsed == tree
        round_trip_ok = round_trip_ok and eval_expr(reparsed, 0.7, 1.3) == eval_expr(
            tree, 0.7, 1.3
        )

    malformed = (
        ("", 0),
        ("x +", 3),
        ("(x", 2),
        ("x)", 1),
        ("foo(x)", 0),
        ("y + 1", 0),
        ("2*pi*u*ln(u", 11),
        ("3 @ 4", 2),
        ("()", 1),
        ("exp()", 4),
    )
    malformed_ok = True
    for text, offset in malformed:
        try:
            parse(text)
            malformed_ok = False
        except ExpressionSyntaxError as err:
            malformed_ok = malformed_ok and err.offset == offset

    rng = random.Random(31337)
    alphabet = string.ascii_lowercase + string.digits + "+-*/^()., xupie"
    fuzz_count = 100_000
    fuzz_ok = True
    parsed = 0
    for _ in range(fuzz_count):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 30)))
        try:
            parse(text)
            parsed += 1
        except ExpressionSyntaxError as err:
            fuzz_ok = fuzz_ok and 0 <= err.offset <= len(text)
        except Exception:
            fuzz_ok = False
    fuzz_ok = fuzz_ok and parsed > 0

    ok = precedence_ok and round_trip_ok and malformed_ok and fuzz_ok
    verdict(
        9,
        ok,
        f"parser: precedence fixed points hold, {len(corpus)} expressions "
        f"round-trip to structurally equal trees, {len(malformed)} malformed "
        f"inputs report exact offsets, {fuzz_count} fuzz strings parsed "
        f"({parsed}) or rejected cleanly",
    )
