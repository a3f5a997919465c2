"""Solver behavior: linear path, sweep iteration, evaluation, reports."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rkhsivp
from rkhsivp import (
    AffineRhs,
    DomainError,
    ExactSolution,
    Interval,
    NumericError,
    ProblemSpec,
    build_basis,
    builtin,
    error_report,
    evaluate,
    homogenize,
    orthonormalize,
    residual_sup_norm,
    solve_linear,
    solve_nonlinear,
    solve_problem,
    uniform_points,
    w23_inner_product,
)
from rkhsivp.rhs_expr import parse
from rkhsivp.rhs_expr import evaluate as eval_expr

TABLE_GRID = (0.16, 0.32, 0.48, 0.64, 0.80, 0.96)


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

    @pytest.mark.parametrize("k", [math.inf, 1e300])
    def test_overflowing_k_is_numeric_error_without_warnings(self, ex1, k):
        # The linear path never forms G, so its own finiteness check reports it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite"):
                solve_problem(dataclasses.replace(ex1, k=k), n=5)

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

    def test_initial_guess_accepted(self, ex2, kernel01, unit_interval):
        basis = build_basis(kernel01, ex2.k, uniform_points(unit_interval, 60))
        guided = solve_nonlinear(ex2, basis, initial=ex2.exact.u, sweeps=1)
        err = max(abs(evaluate(guided, x) - ex2.exact.u(x)) for x in TABLE_GRID)
        assert err <= 1e-5

    def test_initial_read_at_first_node_only(self, ex2, kernel01, unit_interval):
        basis = build_basis(kernel01, ex2.k, uniform_points(unit_interval, 20))
        calls = []

        def initial(x):
            calls.append(x)
            return ex2.exact.u(x)

        solve_nonlinear(ex2, basis, initial=initial, sweeps=3)
        assert calls == [basis.points.values[0]]

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


def nodal_values_by_inverse(problem, basis):
    """The explicit-inverse formulation: ``(I - M diag(q)) V = M g``.

    ``M = S beta`` with ``S = Psi beta^T`` and ``beta = L^{-1}`` from
    ``orthonormalize``; returns the original unknown at the nodes.
    """
    hom = homogenize(problem)
    pts = basis.points.values
    g = np.array([hom.affine.g(x) for x in pts])
    q = np.array([hom.affine.q(x) for x in pts])
    beta = orthonormalize(basis.gram)
    M = basis.node_psi_matrix @ beta.T @ beta
    V = np.linalg.solve(np.eye(pts.size) - M * q[None, :], M @ g)
    return V + np.array([hom.shift(x) for x in pts])


def first_sweep_by_inverse(problem, basis):
    """The first sweep as ``A_l = (beta f)_l``, ``f`` at the partial sums."""
    hom = homogenize(problem)
    pts = basis.points.values
    beta = orthonormalize(basis.gram)
    S = basis.node_psi_matrix @ beta.T
    A = np.zeros(pts.size)
    f = np.empty(pts.size)
    for l in range(pts.size):
        f[l] = hom.rhs(pts[l], 0.0 if l == 0 else float(S[l, :l] @ A[:l]))
        A[l] = float(beta[l, : l + 1] @ f[: l + 1])
    return A


class TestFactoredSolve:
    """The solvers use the Cholesky factor only; the inverse is an oracle."""

    @pytest.mark.parametrize("n", [50, 400])
    @pytest.mark.parametrize(
        "problem", [builtin("ex1"), shifted_affine_problem()], ids=["ex1", "shifted"]
    )
    def test_linear_matches_inverse_formulation(self, problem, n):
        sol = solve_problem(problem, n=n)
        want = nodal_values_by_inverse(problem, sol.basis)
        got = evaluate(sol, sol.basis.points.values)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [50, 400])
    @pytest.mark.parametrize("name", ["ex2", "ex3"])
    def test_first_sweep_matches_inverse_formulation(self, name, n):
        problem = builtin(name)
        sol = solve_problem(problem, n=n)
        want = first_sweep_by_inverse(problem, sol.basis)
        # Both sides carry rounding of order cond(L) eps; cond(L), the square
        # root of cond(G), is about 3e3 at n = 400.
        assert np.max(np.abs(sol.coefficients - want)) <= 1e-9 * np.max(np.abs(want))

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

    @pytest.mark.parametrize("name", ["ex1", "ex2"])
    def test_solve_never_forms_the_inverse(self, name):
        sol = solve_problem(builtin(name), n=30)
        cached = vars(sol.basis)
        if name == "ex1":
            # The linear path builds its matrix from the generators only.
            assert sol.method == "linear"
            for attr in ("gram", "chol", "node_psi_matrix"):
                assert attr not in cached
        else:
            assert sol.method == "nonlinear"
            assert "chol" in cached
        assert "beta" not in cached


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
        with pytest.raises(ValueError, match="n must be >= 1"):
            solve_problem(ex1, n=0)
        with pytest.raises(ValueError, match="method"):
            solve_problem(ex1, n=10, method="magic")


class TestSolutionObject:
    def test_callable_matches_evaluate(self, ex1):
        sol = solve_problem(ex1, n=30)
        for x in (0.2, 0.77):
            assert sol(x) == evaluate(sol, x)
            assert sol(x, 1) == evaluate(sol, x, 1)

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_array_points_match_scalar_path(self, name, rng):
        sol = solve_problem(builtin(name), n=40)
        xs = np.concatenate([rng.uniform(0.0, 1.0, 50), sol.basis.points.values])
        for deriv in (0, 1, 2):
            by_array = evaluate(sol, xs, deriv)
            by_point = np.array([evaluate(sol, float(x), deriv) for x in xs])
            assert by_array.shape == xs.shape
            scale = np.max(np.abs(by_point))
            assert np.max(np.abs(by_array - by_point)) <= 1e-14 * scale

    def test_derivative_order_validation(self, ex1):
        sol = solve_problem(ex1, n=10)
        sol(0.5, 2)
        with pytest.raises(ValueError):
            sol(0.5, 3)

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


class TestResidual:
    def test_exact_solution_has_tiny_residual(self, ex1):
        u = lambda x, d: (ex1.exact.u, ex1.exact.du, ex1.exact.d2u)[d](x)
        assert residual_sup_norm(u, ex1) <= 1e-8

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

    def test_callable_needs_problem(self, ex1):
        with pytest.raises(ValueError):
            residual_sup_norm(lambda x, d: 0.0)


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
