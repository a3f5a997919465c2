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

from .errors import ConfigError
from .kernel_space import Interval

__all__ = [
    "AffineRhs",
    "ExactSolution",
    "ProblemSpec",
    "ExactnessReport",
    "ode_residual",
    "verify_exact",
    "builtin_examples",
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
    def from_function(cls, f: Callable[[float], float]) -> "ExactSolution":
        """Derivatives by fourth-order central differences with step ``1e-3``.

        Used for solutions supplied only as expressions (problem definition
        files).  The stencil reaches ``2e-3`` beyond the evaluation point, so
        ``f`` must tolerate arguments slightly outside the domain.
        """
        h = 1e-3

        def du(x: float) -> float:
            return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)

        def d2u(x: float) -> float:
            return (
                -f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)
            ) / (12 * h * h)

        return cls(u=f, du=du, d2u=d2u)


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
    inf and NaN stay in the result.
    """
    xs, u, du, d2u = (np.asarray(v, dtype=float) for v in (xs, u, du, d2u))
    a, T = problem.interval.a, problem.interval.T
    keep = np.abs(xs) > 4 * np.finfo(float).eps * max(abs(a), abs(T))
    xs, u, du, d2u = xs[keep], u[keep], du[keep], d2u[keep]
    f = np.array([problem.rhs(float(x), float(v)) for x, v in zip(xs, u)])
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
    a NaN residual fails the check.
    """
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution to verify")
    ex = problem.exact
    a, T = problem.interval.a, problem.interval.T
    xs = [a + (j / 25) * (T - a) for j in range(1, 25)]
    d2u, du, u = zip(*((ex.d2u(x), ex.du(x), ex.u(x)) for x in xs))
    residual = ode_residual(problem, xs, u, du, d2u)
    return ExactnessReport(
        max_residual=float(np.max(residual)),
        ic_value_error=abs(ex.u(a) - problem.alpha),
        ic_slope_error=abs(ex.du(a) - problem.beta),
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
        exact=ExactSolution(
            u=lambda x: x**3 + x**2,
            du=lambda x: 3.0 * x**2 + 2.0 * x,
            d2u=lambda x: 6.0 * x + 2.0,
        ),
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
        exact=ExactSolution(
            u=lambda x: -2.0 * math.log1p(x * x),
            du=lambda x: -4.0 * x / (1.0 + x * x),
            d2u=lambda x: -4.0 * (1.0 - x * x) / (1.0 + x * x) ** 2,
        ),
    )


def _example_3() -> ProblemSpec:
    # u'' + (8/x) u' + 9 pi u + 2 pi u ln(u) = 0 with u(0) = 1,
    # exact u = exp(-pi x^2 / 2).  The logarithm makes positivity of the
    # iterates part of the problem's domain.
    pi = math.pi

    def u_exact(x: float) -> float:
        return math.exp(-0.5 * pi * x * x)

    return ProblemSpec(
        name="ex3",
        k=8.0,
        interval=Interval(0.0, 1.0),
        alpha=1.0,
        beta=0.0,
        rhs=lambda x, u: -9.0 * pi * u - 2.0 * pi * u * math.log(u),
        exact=ExactSolution(
            u=u_exact,
            du=lambda x: -pi * x * u_exact(x),
            d2u=lambda x: (pi * pi * x * x - pi) * u_exact(x),
        ),
    )


def builtin_examples() -> list[ProblemSpec]:
    """The three bundled benchmark problems."""
    return [_example_1(), _example_2(), _example_3()]


def builtin(name: str) -> ProblemSpec:
    """Look up a bundled problem by name (``ex1``, ``ex2``, ``ex3``)."""
    for p in builtin_examples():
        if p.name == name:
            return p
    known = ", ".join(p.name for p in builtin_examples())
    raise ConfigError(f"unknown problem {name!r} (known: {known})")
