"""Reference integrator: regularization at the left endpoint, accuracy pins."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from rkhsivp import (
    AffineRhs,
    Interval,
    NumericError,
    ProblemSpec,
    SingularityError,
    builtin,
    integrate,
    regularized_rhs,
)
from rkhsivp import reference_oracle


class TestRegularizedRhs:
    def test_singular_limit_pins(self, ex1, ex2, ex3):
        # u''(0) = F(0, alpha) / (1 + k) for a regular solution at a = 0.
        assert regularized_rhs(ex1, 0.0, ex1.alpha, 0.0) == pytest.approx(
            2.0, rel=1e-15
        )
        assert regularized_rhs(ex2, 0.0, ex2.alpha, 0.0) == pytest.approx(
            -4.0, rel=1e-15
        )
        assert regularized_rhs(ex3, 0.0, ex3.alpha, 0.0) == pytest.approx(
            -math.pi, rel=1e-15
        )

    def test_away_from_endpoint(self, ex1):
        x, u, up = 0.5, 0.1, 0.3
        expected = ex1.rhs(x, u) - (ex1.k / x) * up
        assert regularized_rhs(ex1, x, u, up) == expected

    def test_nonzero_slope_at_origin_rejected(self, ex1):
        tilted = ProblemSpec(
            name="tilted",
            k=ex1.k,
            interval=ex1.interval,
            alpha=0.0,
            beta=1.0,
            rhs=ex1.rhs,
        )
        with pytest.raises(SingularityError):
            regularized_rhs(tilted, 0.0, 0.0, 1.0)

    def test_no_slope_rule_without_pole(self):
        # k = 0: the equation u'' = F has no pole at a = 0, so any slope is regular.
        line = ProblemSpec(
            name="line", k=0.0, interval=Interval(0.0, 1.0), alpha=0.0, beta=1.0,
            rhs=lambda x, u: 3.0 + u,
        )
        assert regularized_rhs(line, 0.0, 0.5, 1.0) == 3.5

    def test_no_regularization_for_positive_left_endpoint(self):
        problem = ProblemSpec(
            name="offset",
            k=3.0,
            interval=Interval(1.0, 2.0),
            alpha=0.0,
            beta=1.0,
            rhs=lambda x, u: 0.0,
        )
        assert regularized_rhs(problem, 1.0, 0.0, 1.0) == -3.0


class TestIntegrationAccuracy:
    PINS = (
        ("ex1", 0.64, 0.671744, 1e-8),
        ("ex2", 0.96, -1.3063163, 1e-7),
        ("ex3", 0.16, 0.960585, 1e-6),
    )

    @pytest.mark.parametrize("name,x,value,tol", PINS)
    def test_pinned_values(self, name, x, value, tol):
        traj = integrate(builtin(name))
        assert traj.u(x) == pytest.approx(value, abs=tol)

    @pytest.mark.parametrize(
        "name,tol", [("ex1", 1e-8), ("ex2", 1e-8), ("ex3", 1e-6)]
    )
    def test_against_exact_on_dense_grid(self, name, tol):
        problem = builtin(name)
        traj = integrate(problem)
        grid = np.linspace(0.0, 1.0, 401)[1:]
        worst = max(abs(traj.u(float(x)) - problem.exact.u(float(x))) for x in grid)
        assert worst <= tol

    def test_logarithm_on_offset_interval(self):
        # u = ln x solves u'' + (1/x) u' = 0 with u(1) = 0, u'(1) = 1.
        problem = ProblemSpec(
            name="log",
            k=1.0,
            interval=Interval(1.0, 2.0),
            alpha=0.0,
            beta=1.0,
            rhs=lambda x, u: 0.0,
            affine=AffineRhs(g=lambda x: 0.0, q=lambda x: 0.0),
        )
        traj = integrate(problem)
        grid = np.linspace(1.0, 2.0, 201)
        worst = max(abs(traj.u(float(x)) - math.log(x)) for x in grid)
        assert worst <= 1e-9

    @pytest.mark.parametrize(
        "rhs, exact, tol",
        [(lambda x, u: 0.0, lambda x: x, 1e-15), (lambda x, u: u, math.sinh, 2e-10)],
        ids=["line", "sinh"],
    )
    def test_slope_at_origin_without_pole(self, rhs, exact, tol):
        # k = 0, a = 0, beta = 1: u'' = F has no pole, and u = x or sinh x.
        problem = ProblemSpec(
            name="k0", k=0.0, interval=Interval(0.0, 1.0), alpha=0.0, beta=1.0, rhs=rhs,
        )
        traj = integrate(problem)
        grid = np.linspace(0.0, 1.0, 201)
        assert max(abs(traj.u(float(x)) - exact(x)) for x in grid) <= tol

    def test_self_convergence(self, ex2):
        # Tightening the tolerance must not move the answer by more than the
        # looser tolerance's own error scale.
        loose = integrate(ex2, tol=1e-6)
        tight = integrate(ex2, tol=1e-10)
        gap = max(abs(loose.u(x) - tight.u(x)) for x in (0.3, 0.6, 0.9))
        assert gap <= 1e-5


class TestTrajectory:
    def test_sample_invariants(self, ex1):
        traj = integrate(ex1)
        assert np.all(np.diff(traj.ts) > 0)
        assert traj.ts[0] == 0.0 and traj.ts[-1] == 1.0
        assert traj.ys[0].tolist() == [ex1.alpha, ex1.beta]
        assert (traj.u(0.0), traj.du(0.0)) == (ex1.alpha, ex1.beta)
        assert traj.accepted_steps == len(traj.ts) - 1 == len(traj.Q) > 0

    def test_arrays_read_only(self, ex1):
        traj = integrate(ex1)
        for arr in (traj.ts, traj.ys, traj.Q):
            with pytest.raises(ValueError):
                arr[0] = 99.0

    def test_derivative_interpolation(self, ex1):
        traj = integrate(ex1)
        for x in (0.25, 0.5, 0.75):
            assert traj.du(x) == pytest.approx(ex1.exact.du(x), abs=1e-7)


class TestValidation:
    def test_tol_must_be_positive(self, ex1):
        with pytest.raises(ValueError):
            integrate(ex1, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_tol_must_be_finite(self, ex1, tol):
        # Refused before any step: a step with h = NaN is rejected forever.
        def never(x, u):
            raise AssertionError(f"F called at x={x}")

        with pytest.raises(ValueError, match="positive and finite"):
            integrate(dataclasses.replace(ex1, rhs=never), tol=tol)

    def test_nonfinite_stage_is_a_rejected_step(self, ex1):
        # F = inf past x = 0.5: each step there fails the error test, silently,
        # until the step floor stops the integration.
        blowup = dataclasses.replace(ex1, rhs=lambda x, u: math.inf if x > 0.5 else 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="step size below"):
                integrate(blowup)

    def test_step_budget(self, ex1, monkeypatch):
        monkeypatch.setattr(reference_oracle, "_MAX_STEPS", 3)
        with pytest.raises(NumericError) as err:
            integrate(ex1)
        assert str(err.value) == "reference integration needs more than 3 steps (budget 3)"

    def test_singular_slope_rejected_up_front(self, ex1):
        def never(x, u):
            raise AssertionError(f"F called at x={x}")

        tilted = ProblemSpec(
            name="tilted",
            k=ex1.k,
            interval=ex1.interval,
            alpha=0.0,
            beta=1.0,
            rhs=never,
        )
        with pytest.raises(SingularityError) as err:
            integrate(tilted)
        assert str(err.value) == (
            "a = 0 requires u'(a) = 0 for a regular solution; got beta = 1.0"
        )


def parabola_across_origin(k, T):
    """u = x^2 + 1 from a = -1: smooth through x = 0, where k/x has its pole."""
    return ProblemSpec(
        name="parabola",
        k=k,
        interval=Interval(-1.0, T),
        alpha=2.0,
        beta=-2.0,
        rhs=lambda x, u: 2.0 + 2.0 * k,
    )


class TestPoleInsideInterval:
    @pytest.mark.parametrize("T", [1.0, 0.0])
    def test_refused_before_stepping(self, T):
        problem = parabola_across_origin(2.0, T)
        calls = []
        counted = dataclasses.replace(problem, rhs=lambda x, u: calls.append(x) or 6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError, match="cannot integrate through x = 0"):
                integrate(counted)
        assert calls == []

    def test_no_pole_without_k(self):
        # With k = 0, x = 0 is an ordinary point.
        problem = parabola_across_origin(0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(problem)
            assert regularized_rhs(problem, 0.0, 1.0, 0.0) == 2.0
        for x in (-0.5, 0.0, 0.7):
            assert traj.u(x) == pytest.approx(x * x + 1.0, abs=1e-9)
            assert traj.du(x) == pytest.approx(2.0 * x, abs=1e-9)


def offset_problem():
    """A nonlinear problem on [0.5, 2], where k/x is regular throughout."""
    return ProblemSpec(
        name="offset",
        k=3.0,
        interval=Interval(0.5, 2.0),
        alpha=1.0,
        beta=0.5,
        rhs=lambda x, u: math.sin(u) + x,
    )


def solution_by_scipy(problem, tol):
    """scipy's RK45, the implementation of the same pair, with dense output."""
    a, T = problem.interval.a, problem.interval.T

    def rhs(x, y):
        return [y[1], regularized_rhs(problem, x, y[0], y[1])]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy's own rtol floor warning
        sol = solve_ivp(
            rhs, (a, T), [problem.alpha, problem.beta], method="RK45",
            rtol=tol, atol=tol, dense_output=True,
        )
    assert sol.success
    return sol


class TestAgainstScipy:
    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-15])
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "offset"])
    def test_same_steps_and_samples(self, name, tol):
        problem = offset_problem() if name == "offset" else builtin(name)
        a, T = problem.interval.a, problem.interval.T
        sol = solution_by_scipy(problem, tol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj = integrate(problem, tol=tol)
        assert np.array_equal(traj.ts, sol.t)
        assert traj.accepted_steps == len(sol.t) - 1
        xs = np.concatenate([
            np.linspace(a, T, 513), np.random.default_rng(1980).uniform(a, T, 500)
        ])
        want = sol.sol(xs)
        got = np.array([[traj.u(x), traj.du(x)] for x in xs.tolist()]).T
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("name,nfev", [("ex1", 704), ("ex2", 380), ("ex3", 1280)])
    def test_calls_f_as_often_as_scipy(self, name, nfev):
        # One call per stage and two for the initial step: none after the steps.
        problem = builtin(name)
        calls = []
        counted = dataclasses.replace(
            problem, rhs=lambda x, u: calls.append(x) or problem.rhs(x, u)
        )
        integrate(counted, tol=1e-10)
        assert len(calls) == solution_by_scipy(problem, 1e-10).nfev == nfev

    def test_tolerance_floor_warns(self, ex1):
        with pytest.warns(UserWarning, match="raised to"):
            integrate(ex1, tol=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            integrate(ex1, tol=1e-13)
