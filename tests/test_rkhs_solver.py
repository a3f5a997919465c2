"""Solver behavior: linear path, sweep iteration, evaluation, reports."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rkhsivp
from rkhsivp import (
    AffineRhs,
    DomainError,
    ExactSolution,
    Interval,
    NumericError,
    ProblemSpec,
    RkhsSolution,
    build_basis,
    build_w23_kernel,
    builtin,
    error_report,
    evaluate,
    integrate,
    orthonormalize,
    residual_sup_norm,
    solve_linear,
    solve_nonlinear,
    solve_problem,
    uniform_points,
    w23_inner_product,
)
from dense_reference import cholesky_factor, collocation_matrix, dense_gram, node_psi_matrix
from walk_reference import walk
from rkhsivp.cli import load_problem_config
from rkhsivp.collocation import CollocationBasis
from rkhsivp.problem_model import ode_residual
from rkhsivp.rhs_expr import parse
from rkhsivp.rhs_expr import evaluate as eval_expr

TABLE_GRID = (0.16, 0.32, 0.48, 0.64, 0.80, 0.96)
# What a basis may hold after a solve and reads of ``coefficients`` and
# ``psibar_values``: the generators and the blocked factor, all O(n).
BASIS_MEMBERS = {"kernel", "k", "points", "U", "M", "_left", "_right", "gram_factor"}


def manufactured_square(k):
    """u = x^2 on [0,1]: L u = 2 + 2k, a pure quadrature-free benchmark."""
    g_value = 2.0 + 2.0 * k
    return ProblemSpec(
        name=f"square-k{k:g}",
        k=float(k),
        interval=Interval(0.0, 1.0),
        alpha=0.0,
        beta=0.0,
        rhs=lambda x, u: g_value,
        affine=AffineRhs(g=lambda x: g_value, q=lambda x: 0.0),
        exact=ExactSolution(
            u=lambda x: x * x, du=lambda x: 2 * x, d2u=lambda x: 2.0
        ),
    )


class TestLinearPath:
    def test_first_example_accuracy(self, ex1):
        sol = solve_problem(ex1, n=100)
        report = error_report(sol, TABLE_GRID)
        assert report.max_absolute <= 1e-5
        assert sol.method == "linear"

    def test_pinned_grid_value(self, ex1):
        sol = solve_problem(ex1, n=100)
        assert evaluate(sol, 0.48) == pytest.approx(0.340992, abs=1e-5)

    def test_initial_conditions_exact(self, ex1):
        sol = solve_problem(ex1, n=50)
        assert evaluate(sol, 0.0, 0) == 0.0
        assert evaluate(sol, 0.0, 1) == 0.0

    def test_shifted_initial_conditions_exact(self):
        problem = ProblemSpec(
            name="shifted",
            k=1.0,
            interval=Interval(1.0, 2.0),
            alpha=-3.0,
            beta=0.5,
            rhs=lambda x, u: 0.0,
            affine=AffineRhs(g=lambda x: 0.0, q=lambda x: 0.0),
        )
        sol = solve_problem(problem, n=30)
        assert evaluate(sol, 1.0, 0) == -3.0
        assert evaluate(sol, 1.0, 1) == 0.5

    def test_manufactured_solution_at_nodes(self):
        problem = manufactured_square(2.0)
        sol = solve_problem(problem, n=100)
        worst = max(
            abs(evaluate(sol, float(x)) - float(x) ** 2)
            for x in sol.basis.points.values
        )
        assert worst <= 1e-6

    def test_zero_problem_is_identically_zero(self, kernel01, unit_interval):
        problem = ProblemSpec(
            name="zero",
            k=2.0,
            interval=Interval(0.0, 1.0),
            alpha=0.0,
            beta=0.0,
            rhs=lambda x, u: 0.0,
            affine=AffineRhs(g=lambda x: 0.0, q=lambda x: 0.0),
        )
        basis = build_basis(kernel01, 2.0, uniform_points(unit_interval, 20))
        sol = solve_linear(problem, basis)
        assert np.all(sol.coefficients == 0.0)
        assert evaluate(sol, 0.63) == 0.0
        assert residual_sup_norm(sol) == 0.0

    def test_requires_affine_form(self, ex3, kernel01, unit_interval):
        basis = build_basis(kernel01, ex3.k, uniform_points(unit_interval, 5))
        with pytest.raises(ValueError, match="affine"):
            solve_linear(ex3, basis)


class TestNonlinearSweeps:
    def test_second_example_accuracy(self, ex2):
        sol = solve_problem(ex2, n=100)
        report = error_report(sol, TABLE_GRID)
        assert report.max_absolute <= 1e-5
        assert sol.method == "nonlinear"
        assert sol.sweeps_used == 1

    def test_third_example_accuracy(self, ex3):
        sol = solve_problem(ex3, n=100)
        report = error_report(sol, TABLE_GRID)
        assert report.max_absolute <= 1e-5
        assert evaluate(sol, 0.48) == pytest.approx(0.696344424224703, abs=1e-6)

    def test_single_sweep_matches_linear_when_rhs_ignores_u(self, kernel01, unit_interval):
        problem = manufactured_square(2.0)
        basis = build_basis(kernel01, 2.0, uniform_points(unit_interval, 40))
        direct = solve_linear(problem, basis)
        swept = solve_nonlinear(problem, basis, sweeps=1)
        gap = np.max(np.abs(direct.coefficients - swept.coefficients))
        assert gap <= 1e-10

    def test_sweeps_converge_to_linear_solution(self, ex1, kernel01, unit_interval):
        pts = uniform_points(unit_interval, 60)
        basis = build_basis(kernel01, ex1.k, pts)
        direct = solve_linear(ex1, basis)
        swept = solve_nonlinear(ex1, basis, sweeps=12, tol=1e-14)
        gap = max(
            abs(evaluate(direct, float(x)) - evaluate(swept, float(x)))
            for x in pts.values
        )
        assert gap <= 1e-7

    def test_extra_sweeps_reach_fixed_point(self, ex2, kernel01, unit_interval):
        # The iteration converges to the discrete fixed point; its accuracy
        # stays in the same band as the single sweep rather than degrading.
        basis = build_basis(kernel01, ex2.k, uniform_points(unit_interval, 60))
        one = solve_nonlinear(ex2, basis, sweeps=1)
        many = solve_nonlinear(ex2, basis, sweeps=10, tol=1e-13)
        err = lambda s: max(
            abs(evaluate(s, x) - ex2.exact.u(x)) for x in TABLE_GRID
        )
        assert many.sweeps_used > 1
        assert many.final_change is not None and many.final_change <= 1e-10
        assert err(many) <= 2.0 * err(one)

    def test_sweep_count_validation(self, ex2, kernel01, unit_interval):
        basis = build_basis(kernel01, ex2.k, uniform_points(unit_interval, 5))
        with pytest.raises(ValueError):
            solve_nonlinear(ex2, basis, sweeps=0)

    def test_domain_error_names_node(self, kernel01, unit_interval):
        tree = parse("ln(u)")
        problem = ProblemSpec(
            name="log-of-zero",
            k=2.0,
            interval=Interval(0.0, 1.0),
            alpha=0.0,
            beta=0.0,
            rhs=lambda x, u: eval_expr(tree, x, u),
        )
        basis = build_basis(kernel01, 2.0, uniform_points(unit_interval, 5))
        with pytest.raises(DomainError, match="node 1"):
            solve_nonlinear(problem, basis)

    def test_nan_rhs_reported_numeric(self, kernel01, unit_interval):
        problem = ProblemSpec(
            name="nan-rhs",
            k=2.0,
            interval=Interval(0.0, 1.0),
            alpha=0.0,
            beta=0.0,
            rhs=lambda x, u: math.nan,
        )
        basis = build_basis(kernel01, 2.0, uniform_points(unit_interval, 5))
        with pytest.raises(NumericError):
            solve_nonlinear(problem, basis)


    def test_overflowing_rhs_solves_without_warning(self):
        # u = 1e308 x^2 / 6 is finite; the backward substitution's last
        # carried-vector update (read by nothing) used to overflow.
        problem = ProblemSpec(name="huge", k=2.0, interval=Interval(0.0, 1.0), alpha=0.0,
                              beta=0.0, rhs=lambda x, u: 1e308)
        value = evaluate(solve_problem(problem, n=10, method="nonlinear"), 0.5)
        assert math.isfinite(value) and value == pytest.approx(1e308 / 24, rel=1e-2)

    def test_later_sweep_overflow_is_numeric_error(self):
        # F jumps to 1e308 after the first sweep's 5 calls: the second
        # sweep's substitution overflows on the way, and the nodal values it
        # leads to are refused, with no floating-point warning.
        calls = []

        def rhs(x, u):
            calls.append(x)
            return 1.0 if len(calls) <= 5 else 1e308

        problem = ProblemSpec(name="jump", k=2.0, interval=Interval(0.0, 100.0), alpha=0.0,
                              beta=0.0, rhs=rhs)
        with pytest.raises(NumericError) as info:
            solve_problem(problem, n=5, method="nonlinear", sweeps=2)
        assert str(info.value) == ("nodal values after sweep 2 are not finite (max |gamma| "
                                   "1.33e+305): the solution overflows")
        assert len(calls) == 10

    @pytest.mark.parametrize("T,n,method,sweeps,failure", [
        (1.0, 200, "linear", 1, "cell table of u is not finite (max |gamma| 1.45e+307)"),
        (1.0, 200, "nonlinear", 1, "cell table of u is not finite (max |gamma| 1.45e+307)"),
        (1.0, 200, "nonlinear", 3, "cell table of u is not finite (max |gamma| 1.45e+307)"),
        (10.0, 5, "nonlinear", 2,
         "nodal values after sweep 1 are not finite (max |gamma| 1.33e+306)"),
    ])
    def test_overflowing_solution_is_numeric_error(self, T, n, method, sweeps, failure):
        # gamma stays finite, but on [0, 1] at n = 200 its cell table
        # overflows, and on [0, 10] the nodal values a second sweep starts
        # from; either is refused by name, with no floating-point warning.
        problem = ProblemSpec(name="huge", k=2.0, interval=Interval(0.0, T), alpha=0.0,
                              beta=0.0, rhs=lambda x, u: 1e308,
                              affine=AffineRhs(g=lambda x: 1e308, q=lambda x: 0.0))
        with pytest.raises(NumericError) as info:
            solve_problem(problem, n=n, method=method, sweeps=sweeps)
        assert str(info.value) == f"{failure}: the solution overflows"

    @pytest.mark.parametrize("k,alpha,rhs", [
        (2.0, 1.0, "-u^3 + sin(x)"),
        (2.0, 0.0, "-4*(2*exp(u) + exp(u/2))"),
        (8.0, 1.0, "-9*pi*u - 2*pi*u*ln(u)"),
    ])
    def test_compiled_rhs_solves_as_the_walk(self, tmp_path, k, alpha, rhs):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "p", "k": k, "a": 0, "T": 1, "alpha": alpha,
                                    "beta": 0, "rhs": rhs}))
        loaded = load_problem_config(str(path))
        tree = parse(rhs)
        walked = dataclasses.replace(loaded, rhs=lambda x, u: walk(tree, x, u))
        a, b = (solve_problem(p, n=50, sweeps=30, tol=1e-12) for p in (loaded, walked))
        assert a.sweeps_used > 1
        for mine, ref in zip((a.gamma, *a.cells), (b.gamma, *b.cells)):
            assert mine.tobytes() == ref.tobytes()
        assert (a.sweeps_used, a.final_change.hex()) == (b.sweeps_used, b.final_change.hex())


def affine_problem(g, q):
    """k = 2 on [0, 1] with zero initial data and ``F = g + q u`` in affine form."""
    return ProblemSpec(name="affine", k=2.0, interval=Interval(0.0, 1.0), alpha=0.0,
                       beta=0.0, rhs=lambda x, u: g(x) + q(x) * u,
                       affine=AffineRhs(g=g, q=q))


def bad_after_first_sweep(bad, n):
    """F = 1 for the first sweep's ``n`` calls, then ``bad(x)`` at every call."""
    calls = []

    def rhs(x, u):
        calls.append(x)
        return 1.0 if len(calls) <= n else bad(x)

    return ProblemSpec(name="later", k=2.0, interval=Interval(0.0, 1.0), alpha=0.0,
                       beta=0.0, rhs=rhs)


def inf_at_3_then_sqrt(x):
    """inf at the third of ten nodes, a math domain error from the seventh."""
    return math.inf if 0.25 < x < 0.35 else math.sqrt(0.65 - x)


def nan_at_3_then_overflow(x):
    """NaN at the third of ten nodes, an ``OverflowError`` from the eighth."""
    return math.nan if 0.25 < x < 0.35 else math.exp(1000.0 * x)


class TestNodeLoops:
    """The loops over the nodes (g and q, and F in sweeps 2 and later) fail
    as a node-by-node evaluation does: the first bad node is named, with the
    same type and message."""

    LN = "logarithm of non-positive value -0.04999999999999993 in 'ln(0.55000000000000004-x)'"

    @pytest.mark.parametrize("rhs", ["ln(0.55 - x) + u", "6 + ln(0.55 - x)*u"])
    def test_domain_error_of_g_or_q(self, tmp_path, rhs):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "p", "k": 2, "a": 0, "T": 1, "alpha": 0,
                                    "beta": 0, "rhs": rhs}))
        problem = load_problem_config(str(path))
        assert problem.affine is not None
        message = f"right-hand side domain error at node 6, x=0.6: {self.LN}"
        with pytest.raises(DomainError) as info:
            solve_problem(problem, n=10)
        assert str(info.value) == message

    @pytest.mark.parametrize("g,q,error,message", [
        (lambda x: math.sqrt(0.55 - x), lambda x: -1.0, DomainError,
         "right-hand side domain error at node 6, x=0.6: math domain error"),
        (lambda x: 1.0, lambda x: math.inf if x > 0.55 else -1.0, NumericError,
         "right-hand side returned inf at node 6, x=0.6"),
        (lambda x: 1.0, lambda x: math.nan if x > 0.55 else -1.0, NumericError,
         "right-hand side returned NaN at node 6, x=0.6"),
        # g is checked first, although q fails at an earlier node.
        (lambda x: math.inf if x > 0.75 else 1.0, lambda x: math.sqrt(0.15 - x),
         NumericError, "right-hand side returned inf at node 8, x=0.8"),
        (inf_at_3_then_sqrt, lambda x: -1.0, NumericError,
         "right-hand side returned inf at node 3, x=0.3"),
        (lambda x: -1.0, inf_at_3_then_sqrt, NumericError,
         "right-hand side returned inf at node 3, x=0.3"),
        (nan_at_3_then_overflow, lambda x: -1.0, NumericError,
         "right-hand side returned NaN at node 3, x=0.3"),
    ])
    def test_linear_path_names_first_bad_node(self, g, q, error, message):
        seen = {g: [], q: []}
        counted = lambda f: lambda x: seen[f].append(x) or f(x)
        with pytest.raises(error) as info:
            solve_problem(affine_problem(counted(g), counted(q)), n=10)
        assert type(info.value) is error and str(info.value) == message
        # Each piece is called once per node, up to its first bad one.
        assert all(len(xs) == len(set(xs)) for xs in seen.values())

    def test_domain_error_of_later_sweep(self, tmp_path):
        # One node: the first sweep evaluates F at u = alpha = 1, the second
        # at a negative u.
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "p", "k": 8, "a": 0, "T": 1, "alpha": 1,
                                    "beta": 0, "rhs": "-9*pi*u - 2*pi*u*ln(u)"}))
        u = "-0.43911280239292916"
        message = (f"right-hand side domain error at node 1, x=1.0, u={u}: "
                   f"logarithm of non-positive value {u} in 'ln(u)'")
        with pytest.raises(DomainError) as info:
            solve_problem(load_problem_config(str(path)), n=1, sweeps=50)
        assert str(info.value) == message

    def test_later_sweep_domain_error_names_node_and_u(self):
        def bad(x):
            if x > 0.55:
                raise ValueError("bad")
            return 1.0

        with pytest.raises(DomainError) as info:
            solve_problem(bad_after_first_sweep(bad, 10), n=10, sweeps=3)
        assert str(info.value) == (
            "right-hand side domain error at node 6, x=0.6, u=0.05995889994208597: bad"
        )

    @pytest.mark.parametrize("bad,shown", [(inf_at_3_then_sqrt, "inf"),
                                           (nan_at_3_then_overflow, "NaN")])
    def test_later_sweep_names_first_bad_node(self, bad, shown):
        seen = []
        with pytest.raises(NumericError) as info:
            solve_problem(bad_after_first_sweep(lambda x: seen.append(x) or bad(x), 10),
                          n=10, sweeps=3)
        assert str(info.value) == f"right-hand side returned {shown} at node 3, x=0.3"
        # Sweep 2 calls F once per node, up to the first bad one.
        assert seen == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize("make,sweeps", [
        (lambda f: affine_problem(f, lambda x: -1.0), 1),
        (lambda f: affine_problem(lambda x: -1.0, f), 1),
        (lambda f: bad_after_first_sweep(f, 10), 3),
    ])
    def test_overflow_error_propagates(self, make, sweeps):
        # Not a domain error: a Python callable's OverflowError is its own.
        problem = make(lambda x: math.exp(1000.0 * x))
        with pytest.raises(OverflowError) as info:
            solve_problem(problem, n=10, sweeps=sweeps)
        assert type(info.value) is OverflowError and str(info.value) == "math range error"


def manufactured_shifted(rhs_calls=None):
    """u = 0.5 - 0.25 (x - 1) + (x - 1)^3 on [1, 3] with k = 2.

    Its initial data are non-zero, so the solver's shift and its slope term
    (k/x) beta both enter; ``F = g - u`` is given with its affine form too.
    ``rhs_calls``, when given, collects the name of each call of ``rhs``,
    ``g`` or ``q``.
    """
    u = lambda x: 0.5 - 0.25 * (x - 1) + (x - 1) ** 3
    du = lambda x: -0.25 + 3 * (x - 1) ** 2
    d2u = lambda x: 6 * (x - 1)
    g = lambda x: d2u(x) + (2 / x) * du(x) + u(x)
    pieces = {"g": g, "q": lambda x: -1.0, "rhs": lambda x, v: g(x) - v}
    if rhs_calls is not None:
        def counted(name, f):
            def call(*args):
                rhs_calls.append(name)
                return f(*args)
            return call
        pieces = {name: counted(name, f) for name, f in pieces.items()}
    return ProblemSpec(
        name="manufactured-shifted",
        k=2.0,
        interval=Interval(1.0, 3.0),
        alpha=0.5,
        beta=-0.25,
        rhs=pieces["rhs"],
        affine=AffineRhs(g=pieces["g"], q=pieces["q"]),
        exact=ExactSolution(u=u, du=du, d2u=d2u),
    )


class TestShift:
    """The solver owns the shift ``v = u - alpha - beta (x - a)``."""

    @pytest.mark.parametrize("n", [25, 50, 100])
    @pytest.mark.parametrize("method", ["linear", "nonlinear"])
    def test_manufactured_problem(self, method, n):
        problem = manufactured_shifted()
        sol = solve_problem(problem, n=n, method=method, sweeps=50, tol=1e-12)
        assert sol.final_change is None or sol.final_change <= 1e-12
        # The first cell's constant and linear coefficients are exactly 0.
        assert sol(1.0) == 0.5
        assert sol(1.0, 1) == -0.25
        xs = uniform_points(problem.interval, 400).values
        error = np.max(np.abs(evaluate(sol, xs) - problem.exact.u(xs)))
        # error * n^2 is 4.4 at n = 25 and 5.0 at n = 100, growing toward
        # about 5.2; a wrong shift or slope term leaves an O(1) error.
        assert error <= 6.0 / n**2

    def test_linear_path_calls_g_and_q_once_per_node(self):
        calls = []
        sol = solve_problem(manufactured_shifted(calls), n=30, method="linear")
        assert sol.method == "linear"
        assert sorted(set(calls)) == ["g", "q"]
        assert calls.count("g") == calls.count("q") == 30

    def test_nonlinear_path_calls_rhs_once_per_node_and_sweep(self):
        calls = []
        sol = solve_problem(
            manufactured_shifted(calls), n=30, method="nonlinear", sweeps=50, tol=1e-12
        )
        assert sol.sweeps_used > 1
        assert calls == ["rhs"] * (30 * sol.sweeps_used)


def shifted_affine_problem():
    """Affine problem on [1, 11] with non-constant q and non-zero initial data."""
    return ProblemSpec(
        name="shifted-affine",
        k=1.0,
        interval=Interval(1.0, 11.0),
        alpha=1.0,
        beta=0.5,
        rhs=lambda x, u: math.cos(x) - 0.1 * x * u,
        affine=AffineRhs(g=math.cos, q=lambda x: -0.1 * x),
    )


def shift_by_hand(problem, x):
    """``s(x) = alpha + beta (x - a)`` and the slope term ``(k/x) beta``.

    Formed here from the problem's fields, apart from the solver's own
    shift, so that the references below check it.
    """
    s = problem.alpha + problem.beta * (x - problem.interval.a)
    slope = 0.0 if problem.k == 0.0 or problem.beta == 0.0 else problem.k / x * problem.beta
    return s, slope


def nodal_values_by_inverse(problem, basis):
    """The explicit-inverse formulation: ``(I - M diag(q)) V = M g``.

    ``M = S beta`` with ``S = Psi beta^T`` and ``beta = L^{-1}`` from
    ``orthonormalize``; ``g`` is shifted to ``g + q s - (k/x) beta``.
    Returns the original unknown at the nodes.
    """
    pts = basis.points.values
    s, slope = shift_by_hand(problem, pts)
    q = np.array([problem.affine.q(x) for x in pts])
    g = np.array([problem.affine.g(x) for x in pts]) + q * s - slope
    beta = orthonormalize(dense_gram(basis))
    M = node_psi_matrix(basis) @ beta.T @ beta
    V = np.linalg.solve(np.eye(pts.size) - M * q[None, :], M @ g)
    return V + s


def first_sweep_by_inverse(problem, basis):
    """The first sweep as ``A_l = (beta f)_l``, ``f`` at the partial sums.

    ``f_l = F(x_l, v_l + s_l) - (k/x_l) beta`` for the shifted partial sum
    ``v_l``.
    """
    pts = basis.points.values
    beta = orthonormalize(dense_gram(basis))
    S = node_psi_matrix(basis) @ beta.T
    A = np.zeros(pts.size)
    f = np.empty(pts.size)
    for l in range(pts.size):
        s, slope = shift_by_hand(problem, pts[l])
        v = 0.0 if l == 0 else float(S[l, :l] @ A[:l])
        f[l] = problem.rhs(pts[l], v + s) - slope
        A[l] = float(beta[l, : l + 1] @ f[: l + 1])
    return A


class TestFactoredSolve:
    """The solvers use the generator factors only; the inverse is an oracle."""

    @pytest.mark.parametrize("name", ["ex1", "ex2"])
    @pytest.mark.parametrize("k", [math.inf, 1e300])
    def test_overflowing_k_is_numeric_error_without_warnings(self, name, k):
        # Neither path forms G, so the factors' own finiteness checks report
        # it, naming the block's nodes.
        problem = dataclasses.replace(builtin(name), k=k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"non-finite values at nodes 1\.\.5$"):
                solve_problem(problem, n=5)

    @pytest.mark.parametrize("n", [50, 400])
    @pytest.mark.parametrize(
        "problem", [builtin("ex1"), shifted_affine_problem()], ids=["ex1", "shifted"]
    )
    def test_linear_matches_inverse_formulation(self, problem, n):
        sol = solve_problem(problem, n=n)
        want = nodal_values_by_inverse(problem, sol.basis)
        got = evaluate(sol, sol.basis.points.values)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    # 63, 64, 65 and 129 nodes fall on either side of the block edges.
    @pytest.mark.parametrize("n", [50, 63, 64, 65, 129, 400])
    @pytest.mark.parametrize("name", ["ex2", "ex3"])
    def test_first_sweep_matches_inverse_formulation(self, name, n):
        problem = builtin(name)
        sol = solve_problem(problem, n=n)
        want = first_sweep_by_inverse(problem, sol.basis)
        # Both sides carry rounding of order cond(L) eps; cond(L), the square
        # root of cond(G), is about 3e3 at n = 400.
        assert np.max(np.abs(sol.coefficients - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [50, 65, 400])
    @pytest.mark.parametrize("name", ["ex2", "ex3"])
    def test_later_sweep_matches_dense_solve(self, name, n):
        # Sweep 2 solves G gamma = f at the nodal values of sweep 1.
        problem = builtin(name)
        first = solve_problem(problem, n=n)
        second = solve_problem(problem, n=n, sweeps=2, tol=0.0)
        assert second.sweeps_used == 2
        basis = first.basis
        x = basis.points.values
        psi = node_psi_matrix(basis)
        s, slope = shift_by_hand(problem, x)
        f = np.array([problem.rhs(xl, vl) for xl, vl in zip(x, psi @ first.gamma + s)]) - slope
        want = psi @ np.linalg.solve(dense_gram(basis), f)
        got = psi @ second.gamma
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        k=st.floats(0.0, 10.0),
        a=st.floats(0.0, 3.0),
        length=st.floats(0.5, 10.0),
        n=st.integers(1, 120),
    )
    def test_first_sweep_matches_inverse_formulation_on_any_interval(self, k, a, length, n):
        problem = ProblemSpec(
            name="bounded",
            k=k,
            interval=Interval(a, a + length),
            alpha=0.5,
            beta=-0.25,
            rhs=lambda x, u: math.cos(x) - math.sin(u),
        )
        sol = solve_problem(problem, n=n)
        want = first_sweep_by_inverse(problem, sol.basis)
        assert np.max(np.abs(sol.coefficients - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_solve_never_forms_the_inverse(self, name):
        # Both paths factor from the generators only; no n x n array is cached,
        # not even once A and psibar have been read.
        sol = solve_problem(builtin(name), n=30)
        assert sol.method == ("linear" if name == "ex1" else "nonlinear")
        assert set(vars(sol.basis)) <= BASIS_MEMBERS
        sol.coefficients
        sol.basis.psibar_values(np.array(TABLE_GRID))
        assert set(vars(sol.basis)) <= BASIS_MEMBERS

    @pytest.mark.parametrize("n", [8, 65, 400])
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_coefficients_match_dense_factor(self, name, n):
        # A = L^{-1} (G gamma) from the blocked factor against L^T gamma with
        # the dense Cholesky factor.
        sol = solve_problem(builtin(name), n=n)
        want = cholesky_factor(sol.basis).T @ sol.gamma
        assert np.max(np.abs(sol.coefficients - want)) <= 1e-10 * np.max(np.abs(want))

    def test_nonlinear_large_n_in_linear_memory(self, ex2):
        # A dense G alone would take 328 MB at n = 6,400; so would a dense L
        # or L^{-1} built to read A or psibar.
        n = 6_400
        tracemalloc.start()
        try:
            sol = solve_problem(ex2, n=n)
            report = error_report(sol, TABLE_GRID)
            sol.coefficients
            sol.basis.psibar_values(np.array(TABLE_GRID))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert report.max_absolute <= 0.5 / n**2
        assert set(vars(sol.basis)) <= BASIS_MEMBERS


class TestBlockSolve:
    """The linear path's block LU against the dense ``K`` it never forms."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        k=st.floats(0.0, 10.0),
        a=st.floats(0.0, 3.0),
        length=st.floats(0.5, 10.0),
        n=st.integers(1, 300),
        s=st.floats(-100.0, 100.0),
        omega=st.floats(0.0, 3.0),
        phi=st.floats(0.0, 2 * math.pi),
    )
    @example(k=2.0, a=0.0, length=1.0, n=63, s=-1.0, omega=0.0, phi=0.0)
    @example(k=5.0, a=1.0, length=4.0, n=64, s=30.0, omega=1.0, phi=0.5)
    @example(k=3.0, a=0.5, length=6.0, n=128, s=-80.0, omega=2.0, phi=1.0)
    # cond(K) ~ 4e14; with a one-node trailing block and no refinement the
    # backward error was 1.5e-10.
    @example(k=9.190886196338225, a=2.4804759886701633, length=8.912442533744494,
             n=65, s=-50.88954655136448, omega=2.305550996688763, phi=0.0)
    def test_normwise_backward_error(self, k, a, length, n, s, omega, phi):
        interval = Interval(a, a + length)
        basis = build_basis(build_w23_kernel(interval), k, uniform_points(interval, n))
        x = basis.points.values
        q = s * np.cos(omega * x + phi)
        g = np.cos(x) + x
        K = collocation_matrix(basis, q)
        try:
            gamma = basis.solve_collocation(q, g)
        except NumericError as exc:
            # Refused only when K is singular to working precision, as with
            # q ~ +100 on a long interval, where the solution grows like e^100.
            assert "singular to working precision" in str(exc)
            assert np.linalg.cond(K) * np.finfo(float).eps > 1
            return
        scale = np.max(np.abs(K)) * np.max(np.abs(gamma))
        assert np.max(np.abs(K @ gamma - g)) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [63, 64, 65, 400, 1600])
    @pytest.mark.parametrize(
        "problem", [builtin("ex1"), shifted_affine_problem()], ids=["ex1", "shifted"]
    )
    def test_matches_dense_pivoted_solve(self, problem, n):
        sol = solve_problem(problem, n=n)
        x = sol.basis.points.values
        s, slope = shift_by_hand(problem, x)
        q = np.array([problem.affine.q(v) for v in x])
        g = np.array([problem.affine.g(v) for v in x]) + q * s - slope
        K = collocation_matrix(sol.basis, q)
        dense = RkhsSolution(sol.basis, problem, np.linalg.solve(K, g), "linear")
        # u, u' and u'' at the nodes and on a grid; gamma itself carries
        # rounding of order cond(K) eps (cond(K) ~ 1e8 at n = 1600) on both sides.
        xs = np.concatenate([x, uniform_points(problem.interval, 200).values])
        for d in range(3):
            want = evaluate(dense, xs, d)
            assert np.max(np.abs(evaluate(sol, xs, d) - want)) <= 1e-10 * np.max(np.abs(want))

    def test_singular_block_names_its_nodes(self, kernel01, unit_interval):
        # n = 1, k = 0 on [0, 1]: G = 2 and Psi = 2/3, so q = 3 makes K exactly 0.
        problem = ProblemSpec(
            name="null", k=0.0, interval=unit_interval, alpha=0.0, beta=0.0,
            rhs=lambda x, u: 1.0 + 3.0 * u,
            affine=AffineRhs(g=lambda x: 1.0, q=lambda x: 3.0),
        )
        basis = build_basis(kernel01, 0.0, uniform_points(unit_interval, 1))
        with pytest.raises(NumericError, match=r"singular at nodes 1\.\.1$"):
            solve_linear(problem, basis)

    def test_singular_to_working_precision_refused(self):
        # u'' = cos x + 100 u on [0, 10]: cond(K) ~ 3e17 at n = 200.
        problem = ProblemSpec(
            name="growing", k=0.0, interval=Interval(0.0, 10.0), alpha=0.0, beta=0.0,
            rhs=lambda x, u: math.cos(x) + 100.0 * u,
            affine=AffineRhs(g=math.cos, q=lambda x: 100.0),
        )
        with pytest.raises(NumericError, match="singular to working precision"):
            solve_problem(problem, n=200)

    def test_large_n_in_linear_memory(self, ex1):
        # One n x n array of floats takes 82 MB at n = 3,200 and 5.2 GB at
        # 25,600, so a solver that forms one fails at the first n.
        for n in (3_200, 25_600):
            tracemalloc.start()
            try:
                sol = solve_problem(ex1, n=n)
                report = error_report(sol, TABLE_GRID)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20
            assert report.max_absolute <= 0.5 / n**2
            assert set(vars(sol.basis)) <= BASIS_MEMBERS


def test_solve_does_not_import_scipy_integrate(tmp_path):
    # No scipy module at all: not on import, not on either solve path, and
    # not in a CLI run without an exact solution, where the oracle runs.
    config = tmp_path / "noexact.json"
    config.write_text(
        '{"name": "cubic", "k": 2, "a": 0, "T": 1, "alpha": 1, "beta": 0,'
        ' "rhs": "-u^3"}',
        encoding="utf-8",
    )
    table = tmp_path / "table.csv"
    src = os.path.dirname(os.path.dirname(rkhsivp.__file__))
    code = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "loaded = {}\n"
        "import rkhsivp\n"
        "loaded['import'] = scipy_modules()\n"
        "rkhsivp.solve_problem(rkhsivp.builtin('ex1'))\n"
        "loaded['ex1'] = scipy_modules()\n"
        "rkhsivp.solve_problem(rkhsivp.builtin('ex2'), sweeps=20)\n"
        "loaded['ex2'] = scipy_modules()\n"
        "from rkhsivp import cli\n"
        f"status = cli.main(['solve', '--config', {str(config)!r}, '--output', {str(table)!r}])\n"
        "loaded['cli'] = scipy_modules()\n"
        "print(json.dumps([status, loaded]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    status, loaded = json.loads(out.stdout)
    assert status == 0
    assert "Oracle solution" in table.read_text(encoding="utf-8")
    assert loaded == {"import": [], "ex1": [], "ex2": [], "cli": []}


class TestIntervalLength:
    """The kernel is scaled to ``L = T - a``, so the method does not see ``L``."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        k=st.floats(0.0, 5.0),
        log_length=st.floats(-2.0, 4.0),
        alpha=st.floats(-1.0, 1.0),
        n=st.integers(1, 200),
        sweeps=st.sampled_from([1, 3]),
    )
    def test_solution_maps_to_unit_interval(self, k, log_length, alpha, n, sweeps):
        # With a = 0, u(x) = v(x / L) where v'' + (k/z) v' = L^2 F(L z, v)
        # on [0, 1]; here F(x, u) = G(x / L, u) / L^2.
        L = 10.0**log_length

        def G(z, v):
            return 1.0 + z - 0.5 * math.sin(v)

        unit = ProblemSpec("unit", k, Interval(0.0, 1.0), alpha, 0.0, rhs=G)
        long = ProblemSpec("long", k, Interval(0.0, L), alpha, 0.0,
                           rhs=lambda x, u: G(x / L, u) / (L * L))
        z = np.linspace(0.0, 1.0, 301)
        want = evaluate(solve_problem(unit, n=n, sweeps=sweeps, tol=0.0), z)
        got = evaluate(solve_problem(long, n=n, sweeps=sweeps, tol=0.0), np.minimum(z * L, L))
        # At most 7e-16 relative over L in [0.01, 1e4]; an unscaled kernel
        # gives 5e-9 to 8e-2.
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize(
        "k, T, c, exact, bound",
        [
            # error n^2 is 0.97-1.0 here, as on [0, 1]; an unscaled kernel is
            # first order (50 at n = 50, 400 at n = 400).
            (0.0, 1e6, 1.0, lambda x: x * x / 2, 1.2),
            # error n^2 is 5.2e-3-6.6e-4, as on [0, 1]; unscaled 0.52-0.31.
            (2.0, 1000.0, 6.0, lambda x: x * x, 0.01),
        ],
    )
    def test_long_interval_keeps_second_order(self, k, T, c, exact, bound):
        problem = ProblemSpec("long", k, Interval(0.0, T), 0.0, 0.0, rhs=lambda x, u: c,
                              affine=AffineRhs(g=lambda x: c, q=lambda x: 0.0))
        xs = uniform_points(problem.interval, 1000).values
        errors = []
        for n in (50, 100, 200, 400):
            error = np.max(np.abs(evaluate(solve_problem(problem, n=n), xs) - exact(xs)))
            errors.append(error / exact(T))
            assert errors[-1] <= bound / n**2
        assert all(coarse >= 3.5 * fine for coarse, fine in zip(errors, errors[1:]))


class TestSolveProblem:
    def test_dispatch(self, ex1, ex2):
        assert solve_problem(ex1, n=20).method == "linear"
        assert solve_problem(ex2, n=20).method == "nonlinear"

    def test_forced_nonlinear_on_affine_problem(self, ex1):
        direct = solve_problem(ex1, n=60, method="linear")
        swept = solve_problem(ex1, n=60, method="nonlinear")
        gap = max(
            abs(evaluate(direct, x) - evaluate(swept, x)) for x in TABLE_GRID
        )
        assert gap <= 1e-6

    def test_validation(self, ex1):
        with pytest.raises(ValueError) as err:
            solve_problem(ex1, n=0)
        assert str(err.value) == "n must be >= 1"
        with pytest.raises(ValueError, match="method"):
            solve_problem(ex1, n=10, method="magic")

    @pytest.mark.parametrize("tol", [math.nan, -1e-10])
    def test_sweep_tol_must_be_nonnegative(self, ex2, tol):
        # A NaN tol would never stop the sweeps, yet raise no cap warning.
        with pytest.raises(ValueError, match="tol must be >= 0"):
            solve_problem(ex2, n=10, sweeps=5, tol=tol)


class TestSolutionObject:
    def test_callable_matches_evaluate(self, ex1):
        sol = solve_problem(ex1, n=30)
        for x in (0.2, 0.77):
            assert sol(x) == evaluate(sol, x)
            assert sol(x, 1) == evaluate(sol, x, 1)

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_array_points_match_scalar_path(self, name, rng):
        sol = solve_problem(builtin(name), n=40)
        xs = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 50), sol.basis.points.values])
        for deriv in (0, 1, 2):
            by_array = evaluate(sol, xs, deriv)
            by_point = np.array([evaluate(sol, float(x), deriv) for x in xs])
            assert by_array.shape == xs.shape
            assert np.array_equal(by_array, by_point)

    def test_derivative_order_validation(self, ex1):
        sol = solve_problem(ex1, n=10)
        sol(0.5, 2)
        for x in (0.5, np.array([0.5])):
            with pytest.raises(ValueError, match="^deriv must be 0, 1 or 2, got 3$"):
                evaluate(sol, x, 3)

    @pytest.mark.parametrize(
        "x, shown", [(math.nan, "nan"), (-0.1, "-0.1"), (1.5, "1.5"), (2, "2.0")]
    )
    def test_point_outside_interval_is_domain_error(self, ex1, x, shown):
        sol = solve_problem(ex1, n=10)
        message = f"^evaluation point {shown} outside \\[0.0, 1.0\\]$"
        for points in (x, np.array([0.5, x])):
            for deriv in (0, 1, 2):
                with pytest.raises(DomainError, match=message):
                    evaluate(sol, points, deriv)

    def test_int_point_is_a_float_point(self, ex1):
        sol = solve_problem(ex1, n=10)
        for deriv in (0, 1, 2):
            for x in (0, 1):
                value = evaluate(sol, x, deriv)
                assert type(value) is float
                assert value == evaluate(sol, float(x), deriv)

    def test_coefficients_read_only(self, ex1):
        sol = solve_problem(ex1, n=10)
        with pytest.raises(ValueError):
            sol.coefficients[0] = 1.0

    def test_norm_accumulates_monotonically(self, ex1):
        sol = solve_problem(ex1, n=40)
        partial = np.cumsum(sol.coefficients**2)
        assert np.all(np.diff(partial) >= 0.0)

    def test_tail_energy_is_tail_norm(self, ex1, kernel01, unit_interval):
        # Parseval over the orthonormal system: the W-norm squared of the
        # truncated tail equals the sum of squared trailing coefficients.
        pts = uniform_points(unit_interval, 5)
        basis = build_basis(kernel01, ex1.k, pts)
        sol = solve_linear(ex1, basis)
        keep = 2
        tail = sol.coefficients[keep:]

        def tail_fn(y, order=0):
            return float(tail @ basis.psibar_values(y, order)[keep:])

        by_quad = w23_inner_product(
            tail_fn, tail_fn, unit_interval,
            breakpoints=tuple(float(x) for x in pts.values),
        )
        by_sum = float(tail @ tail)
        assert by_quad == pytest.approx(by_sum, rel=1e-4, abs=1e-8)


class TestPiecewiseEvaluation:
    """Evaluation from the cell coefficients against the series it replaces."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        k=st.floats(0.0, 10.0),
        a=st.floats(0.0, 3.0),
        length=st.floats(0.5, 10.0),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=10.0, a=3.0, length=10.0, n=300, seed=0)
    @example(k=0.0, a=0.0, length=0.5, n=1, seed=1)
    def test_matches_series(self, k, a, length, n, seed):
        interval = Interval(a, a + length)
        basis = build_basis(build_w23_kernel(interval), k, uniform_points(interval, n))
        rng = np.random.default_rng(seed)
        gamma = rng.standard_normal(n)
        problem = ProblemSpec(
            name="series", k=k, interval=interval, alpha=0.0, beta=0.0,
            rhs=lambda x, u: 0.0,
        )
        sol = RkhsSolution(basis, problem, gamma, method="linear")
        xs = np.concatenate(
            [[a, a + length], basis.points.values, rng.uniform(a, a + length, 50)]
        )
        for deriv in (0, 1, 2):
            psi = basis.psi_values(xs, deriv)
            # Measured against the sum of the terms' sizes: the worst of 1,500
            # random draws over these ranges was 6.2e-16.
            scale = np.max(np.abs(psi) @ np.abs(gamma))
            error = np.max(np.abs(evaluate(sol, xs, deriv) - psi @ gamma))
            assert error <= 2e-15 * scale

    def test_evaluate_never_sums_the_series(self, ex2, monkeypatch):
        sol = solve_problem(ex2, n=40)

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate called psi_values")

        monkeypatch.setattr(CollocationBasis, "psi_values", refuse)
        for deriv in (0, 1, 2):
            evaluate(sol, 0.37, deriv)
            sol(1, deriv)
            evaluate(sol, np.linspace(0.0, 1.0, 7), deriv)

    def test_cells_are_read_only(self, ex1):
        sol = solve_problem(ex1, n=10)
        assert [c.shape for c in sol.cells] == [(6, 11), (5, 11), (4, 11)]
        for cells in sol.cells:
            with pytest.raises(ValueError):
                cells[0, 0] = 1.0


SCALAR_CONFIG = {"name": "cfg", "k": 1, "a": 1, "T": 11, "alpha": 1, "beta": 0.5,
                 "rhs": "cos(x) - 0.1*x*sin(u)"}


@pytest.fixture(scope="module")
def scalar_solution(tmp_path_factory):
    """``get(name, n)``: a cached solution of ex1-ex3 or ``SCALAR_CONFIG``."""
    path = tmp_path_factory.mktemp("scalar") / "cfg.json"
    path.write_text(json.dumps(SCALAR_CONFIG))
    problems = {name: builtin(name) for name in ("ex1", "ex2", "ex3")}
    problems["cfg"] = load_problem_config(str(path))
    cache = {}

    def get(name, n):
        if (name, n) not in cache:
            problem = problems[name]
            try:
                cache[name, n] = solve_problem(problem, n=n)
            except DomainError:  # ex3 at n = 1 and 2: ln(u) of a negative u
                basis = build_basis(build_w23_kernel(problem.interval), problem.k,
                                    uniform_points(problem.interval, n))
                gamma = np.random.default_rng(n).standard_normal(n)
                cache[name, n] = RkhsSolution(basis, problem, gamma, method="nonlinear")
        return cache[name, n]

    return get


class TestScalarPath:
    """A number takes the per-point path of ``evaluate``; an array the
    vectorized one.  They agree bit for bit, signed zeros included."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(("ex1", "ex2", "ex3", "cfg")),
        n=st.sampled_from((1, 2, 7, 64, 65, 200)),
        kind=st.sampled_from(("node", "a", "T", "inside", "integer")),
        index=st.integers(0, 10**6),
        frac=st.floats(0.0, 1.0),
        deriv=st.sampled_from((0, 1, 2)),
    )
    @example(name="cfg", n=65, kind="integer", index=5, frac=0.0, deriv=2)
    @example(name="ex3", n=1, kind="T", index=0, frac=0.0, deriv=0)
    def test_number_matches_array(self, scalar_solution, name, n, kind, index, frac, deriv):
        sol = scalar_solution(name, n)
        a, T = sol.problem.interval.a, sol.problem.interval.T
        x = {
            "node": lambda: sol.basis.points.values[index % n].item(),
            "a": lambda: a,
            "T": lambda: T,
            "inside": lambda: min(T, a + frac * (T - a)),
            "integer": lambda: float(math.ceil(a) + index % (math.floor(T) - math.ceil(a) + 1)),
        }[kind]()
        want = evaluate(sol, np.array([x]), deriv)[0].hex()
        kinds = (float, np.float64, int) if x.is_integer() else (float, np.float64)
        for make in kinds:
            value = evaluate(sol, make(x), deriv)
            assert type(value) is float
            assert value.hex() == want
            assert sol(make(x), deriv).hex() == want

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "cfg"])
    @pytest.mark.parametrize("n", [1, 7, 64, 65])
    def test_every_node_and_cell(self, scalar_solution, name, n):
        # a, T, every node, and three points inside every cell.
        sol = scalar_solution(name, n)
        a, T = sol.problem.interval.a, sol.problem.interval.T
        nodes = sol.basis.points.values
        ends = np.concatenate([[a], nodes])
        inside = [ends[:-1] + f * np.diff(ends) for f in (0.25, 0.5, 0.875)]
        xs = np.concatenate([[a, T], nodes, *inside])
        for deriv in (0, 1, 2):
            want = [v.hex() for v in evaluate(sol, xs, deriv).tolist()]
            assert [evaluate(sol, x, deriv).hex() for x in xs.tolist()] == want

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zero_solution_is_positive_zero(self, kernel01, unit_interval, sign):
        # gamma = -0 leaves signed zeros in the cells; Horner starts from +0.
        problem = ProblemSpec(name="zero", k=2.0, interval=unit_interval, alpha=0.0,
                              beta=0.0, rhs=lambda x, u: 0.0)
        basis = build_basis(kernel01, 2.0, uniform_points(unit_interval, 7))
        for sol in (solve_problem(problem, n=7),
                    RkhsSolution(basis, problem, sign * np.zeros(7), method="linear")):
            xs = np.concatenate([[0.0, 0.3, 1.0], basis.points.values])
            for deriv in (0, 1, 2):
                assert evaluate(sol, xs, deriv).tobytes() == np.zeros(len(xs)).tobytes()
                for x in xs.tolist():
                    for point in (x, np.float64(x)) + ((int(x),) if x.is_integer() else ()):
                        assert evaluate(sol, point, deriv).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("x,shown", [
        (math.nan, "nan"), (-0.5, "-0.5"), (1.25, "1.25"), (-1, "-1.0"), (2, "2.0"),
    ])
    @pytest.mark.parametrize("make", [lambda x: x, np.float64])
    def test_errors(self, scalar_solution, x, shown, make):
        sol = scalar_solution("ex1", 7)
        for deriv in (0, 1, 2):
            with pytest.raises(DomainError) as info:
                evaluate(sol, make(x), deriv)
            assert str(info.value) == f"evaluation point {shown} outside [0.0, 1.0]"
        for point in (make(x), make(0.5), 0, 1):
            with pytest.raises(ValueError, match="^deriv must be 0, 1 or 2, got 3$"):
                evaluate(sol, point, 3)


class TestResidual:
    def test_exact_solution_has_tiny_residual(self, ex1):
        xs = uniform_points(ex1.interval, 200).values
        u0, u1, u2 = (
            [f(x) for x in xs.tolist()] for f in (ex1.exact.u, ex1.exact.du, ex1.exact.d2u)
        )
        assert np.max(ode_residual(ex1, xs, u0, u1, u2)) <= 1e-8

    def test_decreases_with_n(self, ex1):
        r25 = residual_sup_norm(solve_problem(ex1, n=25))
        r50 = residual_sup_norm(solve_problem(ex1, n=50))
        assert r50 < r25

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_vectorized_pass_matches_scalar_path(self, name):
        problem = builtin(name)
        sol = solve_problem(problem, n=40)
        nodes = sol.basis.points.values
        xs = np.concatenate(
            [np.arange(1, 201) / 200.0, 0.5 * (np.concatenate([[0.0], nodes[:-1]]) + nodes)]
        )
        terms = np.array(
            [
                (sol(x, 2), (problem.k / x) * sol(x, 1), -problem.rhs(x, sol(x)))
                for x in map(float, xs)
            ]
        )
        by_point = float(np.max(np.abs(terms.sum(axis=1))))
        # The residual cancels terms far larger than itself, so agreement is
        # measured against the size of those terms.
        scale = float(np.max(np.abs(terms).sum(axis=1)))
        assert abs(residual_sup_norm(sol) - by_point) <= 1e-14 * scale

    def test_samples_off_the_nodes(self, ex1):
        # At n = 200 every grid point a + j (T - a) / 200 is a node, where the
        # residual vanishes by construction; the node midpoints still see it.
        residuals = [residual_sup_norm(solve_problem(ex1, n=n)) for n in (100, 200, 400)]
        assert residuals[0] > residuals[1] > residuals[2] > 1e-3

    @pytest.mark.parametrize("k", [0.0, 2.0])
    def test_pole_inside_interval_left_out(self, k):
        # On [-1, 1] grid point 100 is x = 0, and at n = 51 a node midpoint
        # rounds to 5.6e-17; k/x must see neither.
        problem = dataclasses.replace(
            manufactured_square(k), interval=Interval(-1.0, 1.0), alpha=1.0, beta=-2.0
        )
        residuals = [residual_sup_norm(solve_problem(problem, n=n)) for n in (25, 51, 99)]
        assert all(math.isfinite(r) for r in residuals)
        assert residuals[0] > residuals[1] > residuals[2]


class TestErrorReport:
    def test_columns(self, ex1):
        sol = solve_problem(ex1, n=50)
        report = error_report(sol, (0.5,))
        row = report.rows[0]
        assert row.x == 0.5
        assert row.absolute == abs(row.exact - row.approximate)
        assert row.relative == pytest.approx(row.absolute / abs(row.exact))

    def test_relative_absent_where_exact_vanishes(self):
        # u = x - x^2 vanishes at the right endpoint; with k=1 the data is
        # beta=1 and L u = 1/x - 4 away from the origin.
        problem = ProblemSpec(
            name="vanishing",
            k=1.0,
            interval=Interval(0.0, 1.0),
            alpha=0.0,
            beta=1.0,
            rhs=lambda x, u: 1.0 / x - 4.0,
            affine=AffineRhs(g=lambda x: 1.0 / x - 4.0, q=lambda x: 0.0),
            exact=ExactSolution(
                u=lambda x: x - x * x, du=lambda x: 1 - 2 * x, d2u=lambda x: -2.0
            ),
        )
        sol = solve_problem(problem, n=40)
        report = error_report(sol, (0.5, 1.0))
        assert report.rows[0].relative is not None
        assert report.rows[1].exact == 0.0
        assert report.rows[1].relative is None
        assert report.max_relative == report.rows[0].relative

    def test_empty_points(self, ex1):
        sol = solve_problem(ex1, n=10)
        report = error_report(sol, ())
        assert report.rows == ()
        assert report.max_absolute is None
        assert report.max_relative is None

    def test_requires_exact(self, ex2, kernel01, unit_interval):
        basis = build_basis(kernel01, ex2.k, uniform_points(unit_interval, 10))
        blind = ProblemSpec(
            name="blind",
            k=ex2.k,
            interval=ex2.interval,
            alpha=0.0,
            beta=0.0,
            rhs=ex2.rhs,
        )
        sol = solve_nonlinear(blind, basis)
        with pytest.raises(ValueError, match="exact"):
            error_report(sol, (0.5,))

    def test_oracle_reference(self, ex2, kernel01, unit_interval):
        basis = build_basis(kernel01, ex2.k, uniform_points(unit_interval, 40))
        blind = dataclasses.replace(ex2, exact=None)
        sol = solve_nonlinear(blind, basis)
        oracle = integrate(blind)
        report = error_report(sol, TABLE_GRID, oracle.u)
        assert [r.x for r in report.rows] == list(TABLE_GRID)
        approx = evaluate(sol, np.array(TABLE_GRID))
        for row, value in zip(report.rows, approx):
            assert row.exact == oracle.u(row.x)
            assert row.approximate == value
            assert row.absolute == abs(row.exact - row.approximate)
        assert report.max_absolute == max(r.absolute for r in report.rows)
        # The oracle agrees with the exact solution far inside the error.
        exact = error_report(solve_nonlinear(ex2, basis), TABLE_GRID)
        assert report.max_absolute == pytest.approx(exact.max_absolute, rel=1e-3)

    def test_reference_overrides_exact(self, ex1):
        sol = solve_problem(ex1, n=20)
        report = error_report(sol, (0.5,), lambda x: 0.0)
        assert report.rows[0].exact == 0.0
        assert report.rows[0].absolute == abs(report.rows[0].approximate)
        assert report.rows[0].approximate == pytest.approx(evaluate(sol, 0.5), rel=1e-14)
