"""Problem definitions and exact-solution verification."""

import math

import numpy as np
import pytest

from rkhsivp import (
    ConfigError,
    DomainError,
    ExactSolution,
    Interval,
    ProblemSpec,
    builtin,
    verify_exact,
)
from rkhsivp import problem_model
from rkhsivp.problem_model import ode_residual
from rkhsivp.rhs_expr import parse


def parabola(k, a, T, rhs):
    """u = x^2 + 1 on [a, T]; ``rhs`` is taken as given, right or wrong."""
    return ProblemSpec(
        name="parabola",
        k=float(k),
        interval=Interval(float(a), float(T)),
        alpha=a * a + 1.0,
        beta=2.0 * a,
        rhs=rhs,
        exact=ExactSolution(
            u=lambda x: x * x + 1.0, du=lambda x: 2.0 * x, d2u=lambda x: 2.0
        ),
    )


class TestBuiltins:
    def test_roster(self):
        examples = [builtin(name) for name in ("ex1", "ex2", "ex3")]
        assert [p.name for p in examples] == ["ex1", "ex2", "ex3"]
        assert [p.k for p in examples] == [2.0, 2.0, 8.0]
        assert all(p.interval == Interval(0.0, 1.0) for p in examples)
        assert [p.alpha for p in examples] == [0.0, 0.0, 1.0]
        assert all(p.beta == 0.0 for p in examples)

    def test_lookup(self):
        assert builtin("ex2").name == "ex2"
        with pytest.raises(ConfigError) as err:
            builtin("ex9")
        assert "ex1" in str(err.value) and "ex3" in str(err.value)

    def test_linearity_flags(self):
        assert builtin("ex1").is_linear
        assert not builtin("ex2").is_linear
        assert not builtin("ex3").is_linear

    def test_exact_value_pins(self, ex1, ex2, ex3):
        # Frozen six- and seven-decimal reference values for the report grid.
        assert ex1.exact.u(0.16) == pytest.approx(0.029696, abs=5e-7)
        assert ex2.exact.u(0.80) == pytest.approx(-0.9893925, abs=5e-8)
        assert ex3.exact.u(0.32) == pytest.approx(0.851420, abs=5e-7)

    def test_affine_form_matches_rhs(self, ex1):
        for x in (0.1, 0.5, 0.9):
            for u in (-1.0, 0.0, 2.5):
                assert ex1.affine.g(x) + ex1.affine.q(x) * u == pytest.approx(
                    ex1.rhs(x, u), rel=1e-14
                )
        assert ex1.affine.q(0.5) == -1.0

    def test_rhs_values(self, ex1, ex2):
        assert ex1.rhs(1.0, 0.0) == 20.0
        assert ex2.rhs(0.0, 0.0) == -12.0


class TestVerifyExact:
    def test_builtins_pass(self):
        for name in ("ex1", "ex2", "ex3"):
            report = verify_exact(builtin(name))
            assert report.ok
            assert report.max_residual <= 1e-8
            assert report.ic_value_error == 0.0
            assert report.ic_slope_error == 0.0

    def test_detects_wrong_rhs(self, ex1):
        # A quartic leading term is inconsistent with the cubic solution;
        # the residual x^4 - x^2 exceeds 0.1 well inside the interval.
        wrong = ProblemSpec(
            name="ex1-wrong",
            k=ex1.k,
            interval=ex1.interval,
            alpha=ex1.alpha,
            beta=ex1.beta,
            rhs=lambda x, u: x**4 + x**3 + 12 * x + 6 - u,
            exact=ex1.exact,
        )
        report = verify_exact(wrong)
        assert not report.ok
        assert report.max_residual > 0.1

    def test_detects_wrong_exact(self, ex1):
        wrong = ProblemSpec(
            name="ex1-bad-exact",
            k=ex1.k,
            interval=ex1.interval,
            alpha=ex1.alpha,
            beta=ex1.beta,
            rhs=ex1.rhs,
            exact=ExactSolution(
                u=lambda x: x**2, du=lambda x: 2 * x, d2u=lambda x: 2.0
            ),
        )
        assert not verify_exact(wrong).ok

    def test_requires_exact(self, ex1):
        bare = ProblemSpec(
            name="bare",
            k=ex1.k,
            interval=ex1.interval,
            alpha=0.0,
            beta=0.0,
            rhs=ex1.rhs,
        )
        with pytest.raises(ValueError):
            verify_exact(bare)

    def test_grid_point_on_pole_left_out(self):
        # On [-1, 4] the sample a + 5 (T - a) / 25 is x = 0 exactly.
        report = verify_exact(parabola(2, -1, 4, lambda x, u: 6.0))
        assert report.ok
        assert report.max_residual <= 1e-8

    def test_nan_residual_fails(self):
        report = verify_exact(
            parabola(2, 0, 1, lambda x, u: math.nan if x > 0.7 else 6.0)
        )
        assert math.isnan(report.max_residual)
        assert not report.ok


    @pytest.mark.parametrize(
        "a, T, name", [(0.0, 1.0, "u'"), (-1.0, 4.0, "u''")], ids=["slope-at-a", "sample"],
    )
    def test_domain_error_names_function_and_x(self, a, T, name):
        # u = |x|^3: u' and u'' divide by |x|, at a = 0 and at the sample x = 0 of [-1, 4].
        problem = ProblemSpec(
            name="cube", k=2.0, interval=Interval(a, T), alpha=abs(a) ** 3, beta=-3.0 * a * a,
            rhs=lambda x, u: 12.0 * abs(x), exact=ExactSolution.from_expression(parse("abs(x)^3")),
        )
        with pytest.raises(DomainError) as err:
            verify_exact(problem)
        assert str(err.value) == f"exact solution {name} at x=0.0: division by zero in 'x/abs(x)'"


class TestOdeResidual:
    def test_leaves_out_only_near_zero_samples(self):
        # With zero derivatives and F(x, u) = x the residual is |x| itself,
        # so the result shows exactly which samples were kept.
        for T, near_zero, kept in ((1.0, 5.6e-17, 1e-15), (1e6, 5e-10, 1e-9)):
            problem = parabola(2, -T, T, lambda x, u: x)
            xs = np.array([-0.5, -near_zero, 0.0, near_zero, kept, 0.5])
            zeros = np.zeros_like(xs)
            residual = ode_residual(problem, xs, zeros, zeros, zeros)
            np.testing.assert_array_equal(residual, [0.5, kept, 0.5])

    def test_keeps_every_sample_away_from_zero(self):
        problem = parabola(2, 0, 1, lambda x, u: 6.0)
        xs = np.linspace(0.1, 1.0, 10)
        residual = ode_residual(problem, xs, xs**2 + 1, 2 * xs, 2 + 0 * xs)
        assert residual.shape == xs.shape
        assert np.max(residual) <= 1e-14


class TestExactSolutionFromExpression:
    def test_derivatives_are_exact(self):
        exact = ExactSolution.from_expression(parse("sin(x)"))
        for x in (0.3, 1.1, 2.0):
            assert exact.u(x) == math.sin(x)
            assert exact.du(x) == math.cos(x)
            assert exact.d2u(x) == -math.sin(x)

    def test_polynomials_are_exact(self):
        exact = ExactSolution.from_expression(parse("x^3 + x^2"))
        assert exact.du(0.5) == 3 * 0.25 + 1.0
        assert exact.d2u(0.5) == 3 + 2.0

    def test_no_sample_outside_the_interval(self):
        # x^2.5 is undefined for x < 0; every check sample lies in [a, T].
        problem = ProblemSpec(
            name="p", k=2.0, interval=Interval(0.0, 1.0), alpha=0.0, beta=0.0,
            rhs=lambda x, u: 8.75 * x**0.5,
            exact=ExactSolution.from_expression(parse("x^2.5")),
        )
        report = verify_exact(problem)
        assert report.ok
        assert report.max_residual <= 1e-14
        assert report.ic_slope_error == 0.0

    @pytest.mark.parametrize(
        "name,du,d2u",
        [
            ("ex1", lambda x: 3 * x**2 + 2 * x, lambda x: 6 * x + 2),
            ("ex2", lambda x: -4 * x / (1 + x * x), lambda x: -4 * (1 - x * x) / (1 + x * x) ** 2),
            (
                "ex3",
                lambda x: -math.pi * x * math.exp(-0.5 * math.pi * x * x),
                lambda x: (math.pi**2 * x * x - math.pi) * math.exp(-0.5 * math.pi * x * x),
            ),
        ],
        ids=["ex1", "ex2", "ex3"],
    )
    def test_builtins_match_hand_derivatives(self, name, du, d2u):
        exact = builtin(name).exact
        for x in np.linspace(0.0, 1.0, 41).tolist():
            assert exact.du(x) == pytest.approx(du(x), rel=1e-14, abs=1e-15)
            assert exact.d2u(x) == pytest.approx(d2u(x), rel=1e-14, abs=1e-15)

    def test_builtin_builds_only_the_requested_problem(self, monkeypatch):
        parsed = []
        monkeypatch.setattr(problem_model, "parse",
                            lambda text: parsed.append(text) or parse(text))
        builtin("ex2")
        assert parsed == ["-2*ln(1 + x^2)"]
