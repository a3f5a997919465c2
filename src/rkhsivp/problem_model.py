"""Problem definitions for ``u'' + (k/x) u' = F(x, u)`` with initial data at ``a``.

A :class:`ProblemSpec` bundles the singularity strength ``k``, the domain,
the initial values ``u(a) = alpha`` and ``u'(a) = beta``, the right-hand side
``F`` and, when known, the exact solution and an explicit affine form
``F(x, u) = g(x) + q(x) u``.  The affine form is what routes a problem onto
the direct linear solve; there is no black-box linearity detection.
:func:`ode_residual` is the one residual of the equation, read by
:func:`verify_exact` and the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError, ExpressionDomainError, ExpressionSyntaxError
from .kernel_space import Interval
from .rhs_expr import MAX_DERIVATIVE_HEIGHT, Expr, derivative, evaluate, height, parse

__all__ = [
    "AffineRhs",
    "ExactSolution",
    "ProblemSpec",
    "ExactnessReport",
    "ode_residual",
    "verify_exact",
    "builtin",
]


@dataclass(frozen=True)
class AffineRhs:
    """Right-hand side in the explicit affine form ``g(x) + q(x) u``."""

    g: Callable[[float], float]
    q: Callable[[float], float]


@dataclass(frozen=True)
class ExactSolution:
    """An exact solution together with its first two derivatives."""

    u: Callable[[float], float]
    du: Callable[[float], float]
    d2u: Callable[[float], float]

    @classmethod
    def from_expression(cls, expr: Expr) -> "ExactSolution":
        """``u`` given as an expression in ``x``; ``du`` and ``d2u`` are its exact derivatives.

        Each function walks its tree with :func:`evaluate` (looked up when
        called), at ``u = 0``.  That walk recurses once per level, so a
        derivative tree higher than ``MAX_DERIVATIVE_HEIGHT`` is refused
        before it is derived again or evaluated.
        """
        trees = [expr]
        for name in ("u'", "u''"):
            trees.append(derivative(trees[-1], "x"))
            levels = height(trees[-1])
            if levels > MAX_DERIVATIVE_HEIGHT:
                raise ExpressionSyntaxError(
                    f"exact solution's {name} is {levels} levels high, "
                    f"more than the {MAX_DERIVATIVE_HEIGHT} that evaluation allows", None
                )
        return cls(*(lambda x, tree=tree: evaluate(tree, x, 0.0) for tree in trees))


@dataclass(frozen=True)
class ProblemSpec:
    """One singular initial value problem instance."""

    name: str
    k: float
    interval: Interval
    alpha: float
    beta: float
    rhs: Callable[[float, float], float]
    affine: Optional[AffineRhs] = None
    exact: Optional[ExactSolution] = None

    @property
    def is_linear(self) -> bool:
        return self.affine is not None


def ode_residual(problem: ProblemSpec, xs, u, du, d2u) -> np.ndarray:
    """``|u'' + (k/x) u' - F(x, u)|`` from the values ``u``, ``du``, ``d2u`` at ``xs``.

    Samples at the pole, ``|x| <= 4 eps max(|a|, |T|)`` (a node midpoint
    can round to 5.6e-17), are left out, as every grid leaves out ``a``;
    inf and NaN stay in the result.  A domain error of ``F`` names ``x`` and
    ``u``.
    """
    xs, u, du, d2u = (np.asarray(v, dtype=float) for v in (xs, u, du, d2u))
    a, T = problem.interval.a, problem.interval.T
    keep = np.abs(xs) > 4 * np.finfo(float).eps * max(abs(a), abs(T))
    xs, u, du, d2u = xs[keep], u[keep], du[keep], d2u[keep]
    f = np.empty(xs.size)
    for j, (x, v) in enumerate(zip(xs.tolist(), u.tolist())):
        try:
            f[j] = problem.rhs(x, v)
        except (ExpressionDomainError, ValueError) as exc:
            raise DomainError(f"right-hand side domain error at x={x}, u={v}: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(d2u + (problem.k / xs) * du - f)


@dataclass(frozen=True)
class ExactnessReport:
    """Consistency of a claimed exact solution with its problem."""

    max_residual: float
    ic_value_error: float
    ic_slope_error: float

    @property
    def ok(self) -> bool:
        return self.max_residual <= 1e-6 and self.ic_value_error <= 1e-7 and self.ic_slope_error <= 1e-7


def verify_exact(problem: ProblemSpec) -> ExactnessReport:
    """Check the claimed exact solution against the ODE and the initial data.

    :func:`ode_residual` is sampled at ``a + j (T - a) / 25``, ``j = 1..24``;
    a NaN residual fails the check.  A domain error of ``u``, ``u'`` or
    ``u''`` names the function and its ``x``; one of ``F`` names the check.
    """
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution to verify")
    ex = problem.exact
    a, T = problem.interval.a, problem.interval.T

    def at(x: float, f: Callable[[float], float], name: str) -> float:
        try:
            return f(x)
        except ExpressionDomainError as exc:
            raise DomainError(f"exact solution {name} at x={x}: {exc}") from exc

    xs = [a + (j / 25) * (T - a) for j in range(1, 25)]
    d2u, du, u = zip(*((at(x, ex.d2u, "u''"), at(x, ex.du, "u'"), at(x, ex.u, "u"))
                       for x in xs))
    try:
        residual = ode_residual(problem, xs, u, du, d2u)
    except DomainError as exc:
        raise DomainError(f"exact solution check: {exc}") from exc
    return ExactnessReport(
        max_residual=float(np.max(residual)),
        ic_value_error=abs(at(a, ex.u, "u") - problem.alpha),
        ic_slope_error=abs(at(a, ex.du, "u'") - problem.beta),
    )


def _example_1() -> ProblemSpec:
    # u'' + (2/x) u' + u = x^3 + x^2 + 12 x + 6, exact u = x^3 + x^2.
    def g(x: float) -> float:
        return x**3 + x**2 + 12.0 * x + 6.0

    return ProblemSpec(
        name="ex1",
        k=2.0,
        interval=Interval(0.0, 1.0),
        alpha=0.0,
        beta=0.0,
        rhs=lambda x, u: g(x) - u,
        affine=AffineRhs(g=g, q=lambda x: -1.0),
        exact=ExactSolution.from_expression(parse("x^3 + x^2")),
    )


def _example_2() -> ProblemSpec:
    # u'' + (2/x) u' + 4 (2 e^u + e^(u/2)) = 0, exact u = -2 ln(1 + x^2).
    return ProblemSpec(
        name="ex2",
        k=2.0,
        interval=Interval(0.0, 1.0),
        alpha=0.0,
        beta=0.0,
        rhs=lambda x, u: -4.0 * (2.0 * math.exp(u) + math.exp(0.5 * u)),
        exact=ExactSolution.from_expression(parse("-2*ln(1 + x^2)")),
    )


def _example_3() -> ProblemSpec:
    # u'' + (8/x) u' + 9 pi u + 2 pi u ln(u) = 0 with u(0) = 1,
    # exact u = exp(-pi x^2 / 2).  The logarithm makes positivity of the
    # iterates part of the problem's domain.
    pi = math.pi
    return ProblemSpec(
        name="ex3",
        k=8.0,
        interval=Interval(0.0, 1.0),
        alpha=1.0,
        beta=0.0,
        rhs=lambda x, u: -9.0 * pi * u - 2.0 * pi * u * math.log(u),
        exact=ExactSolution.from_expression(parse("exp(-0.5*pi*x*x)")),
    )


_BUILTINS = {"ex1": _example_1, "ex2": _example_2, "ex3": _example_3}


def builtin(name: str) -> ProblemSpec:
    """Look up a bundled problem by name (``ex1``, ``ex2``, ``ex3``)."""
    if name not in _BUILTINS:
        raise ConfigError(f"unknown problem {name!r} (known: {', '.join(_BUILTINS)})")
    return _BUILTINS[name]()
