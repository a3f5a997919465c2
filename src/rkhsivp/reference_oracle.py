"""Independent adaptive Runge-Kutta reference for the singular problems.

This oracle shares no machinery with the kernel solver: it integrates the
first-order system ``(u, u')`` with an embedded 4/5 pair and serves solution
values through cubic Hermite interpolation on a fine sample grid.  The only
subtlety is the coefficient ``k/x`` at a left endpoint ``a = 0``: there a
regular solution needs ``u'(a) = 0`` and the limit ``(k/x) u' -> k u''(a)``
turns the equation into ``u''(a) = F(a, alpha) / (1 + k)``, which is what the
right-hand side returns inside a small radius of the endpoint.  For ``a > 0``
the equation is not singular anywhere on the domain and no regularization is
applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExpressionDomainError, NumericError, SingularityError
from .problem_model import ProblemSpec

__all__ = ["SINGULAR_RADIUS", "OracleTrajectory", "regularized_rhs", "integrate"]

SINGULAR_RADIUS = 1e-8


def regularized_rhs(problem: ProblemSpec, x: float, u: float, up: float) -> float:
    """Value of ``u''`` at state ``(x, u, u')``, finite at a singular endpoint."""
    a, k = problem.interval.a, problem.k
    if a == 0.0 and x <= a + SINGULAR_RADIUS:
        if problem.beta != 0.0:
            raise SingularityError(
                "a = 0 requires u'(a) = 0 for a regular solution; "
                f"got beta = {problem.beta}"
            )
        return problem.rhs(x, u) / (1.0 + k)
    return problem.rhs(x, u) - (k / x) * up


@dataclass(frozen=True, eq=False)
class OracleTrajectory:
    """Sampled trajectory with cubic Hermite interpolation between samples.

    ``xs`` is strictly increasing and starts at ``a`` with ``(alpha, beta)``
    exactly.  ``upps`` holds the second derivative at the samples so the
    first derivative interpolates with Hermite data of its own.
    """

    xs: np.ndarray
    us: np.ndarray
    ups: np.ndarray
    upps: np.ndarray
    tol: float
    accepted_steps: int

    def __post_init__(self):
        for arr in (self.xs, self.us, self.ups, self.upps):
            arr.setflags(write=False)

    def _hermite(self, x: float, values: np.ndarray, slopes: np.ndarray) -> float:
        xs = self.xs
        i = int(np.searchsorted(xs, x, side="right")) - 1
        i = min(max(i, 0), xs.size - 2)
        h = xs[i + 1] - xs[i]
        t = (x - xs[i]) / h
        t2, t3 = t * t, t * t * t
        return float(
            (2 * t3 - 3 * t2 + 1) * values[i]
            + (t3 - 2 * t2 + t) * h * slopes[i]
            + (-2 * t3 + 3 * t2) * values[i + 1]
            + (t3 - t2) * h * slopes[i + 1]
        )

    def u(self, x: float) -> float:
        return self._hermite(x, self.us, self.ups)

    def du(self, x: float) -> float:
        return self._hermite(x, self.ups, self.upps)

    def __call__(self, x: float, deriv: int = 0) -> float:
        if deriv == 0:
            return self.u(x)
        if deriv == 1:
            return self.du(x)
        raise ValueError(f"deriv must be 0 or 1, got {deriv}")


def integrate(
    problem: ProblemSpec,
    tol: float = 1e-10,
    max_steps: int = 100_000,
    samples: int = 513,
) -> OracleTrajectory:
    """Integrate ``problem`` over its interval with local error bound ``tol``."""
    # scipy.integrate is slow to import and only this oracle uses it.
    from scipy.integrate import solve_ivp

    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if samples < 2:
        raise ValueError("samples must be at least 2")
    a, T = problem.interval.a, problem.interval.T
    if a == 0.0 and problem.beta != 0.0:
        raise SingularityError(
            "a = 0 requires u'(a) = 0 for a regular solution; "
            f"got beta = {problem.beta}"
        )

    def rhs(x, y):
        try:
            return [y[1], regularized_rhs(problem, x, y[0], y[1])]
        except (ExpressionDomainError, ValueError) as exc:
            raise DomainError(f"right-hand side domain error at x={x}: {exc}") from exc

    sol = solve_ivp(
        rhs,
        (a, T),
        [problem.alpha, problem.beta],
        method="RK45",
        rtol=tol,
        atol=tol,
        dense_output=True,
    )
    if not sol.success:
        raise NumericError(f"reference integration failed: {sol.message}")
    accepted = len(sol.t) - 1
    if accepted > max_steps:
        raise NumericError(
            f"reference integration used {accepted} steps (budget {max_steps})"
        )

    xs = np.linspace(a, T, samples)
    ys = sol.sol(xs)
    us, ups = ys[0].copy(), ys[1].copy()
    us[0], ups[0] = problem.alpha, problem.beta
    upps = np.array([regularized_rhs(problem, x, u, up) for x, u, up in zip(xs, us, ups)])
    return OracleTrajectory(
        xs=xs, us=us, ups=ups, upps=upps, tol=tol, accepted_steps=accepted
    )
