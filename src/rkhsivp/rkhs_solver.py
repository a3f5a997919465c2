"""Series solver in the collocation basis.

The homogenized unknown is ``v_n = sum_i gamma_i psi_i = sum_i A_i psibar_i``
with ``A = L^T gamma``, where ``G = L L^T`` is the Cholesky factorization of
the Gram matrix; no inverse of ``L`` is formed.  For an affine right-hand
side ``g(x) + q(x) v`` collocation is one LU solve of ``(G - diag(q) Psi)
gamma = g``, whose matrix is one product of the basis generators.  Otherwise
a single forward sweep computes ``A`` in node order by forward substitution
with ``L``, evaluating the right-hand side at the running partial sums;
optional further sweeps re-feed the previous full solution until the nodal
values settle.

Evaluation undoes the homogenization shift, so solutions report the original
unknown and satisfy the initial data at ``a`` to floating-point accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .collocation import CollocationBasis, build_basis, solve_lower, uniform_points
from .errors import DomainError, ExpressionDomainError, NumericError
from .kernel_space import build_w23_kernel
from .problem_model import HomogenizedProblem, ProblemSpec, homogenize

__all__ = [
    "RkhsSolution",
    "ErrorRow",
    "ErrorReport",
    "solve_linear",
    "solve_nonlinear",
    "solve_problem",
    "evaluate",
    "residual_sup_norm",
    "error_report",
]


class RkhsSolution:
    """Truncated series solution; immutable, callable as ``sol(x, deriv)``.

    ``gamma`` are the coefficients of the ``psi_i``; ``coefficients`` those of
    the orthonormal ``psibar_i``, ``A = L^T gamma``.
    """

    def __init__(
        self,
        basis: CollocationBasis,
        problem: ProblemSpec,
        gamma: np.ndarray,
        method: str,
        sweeps_used: int = 1,
        final_change: Optional[float] = None,
    ):
        gamma = np.asarray(gamma, dtype=float).copy()
        gamma.setflags(write=False)
        self.basis = basis
        self.problem = problem
        self.gamma = gamma
        self.method = method
        self.sweeps_used = sweeps_used
        self.final_change = final_change

    @cached_property
    def coefficients(self) -> np.ndarray:
        """``A = L^T gamma``; factors the Gram matrix on first read."""
        out = self.basis.chol.T @ self.gamma
        out.setflags(write=False)
        return out

    @property
    def n(self) -> int:
        return self.basis.n

    def __call__(self, x: float, deriv: int = 0) -> float:
        return evaluate(self, x, deriv)


def evaluate(sol: RkhsSolution, x, deriv: int = 0):
    """Value or first/second derivative of the solution at ``x``.

    A number ``x`` gives a float; an array of points gives an array of the
    same shape, from one matrix product.
    """
    if deriv not in (0, 1, 2):
        raise ValueError(f"deriv must be 0, 1 or 2, got {deriv}")
    p = sol.problem
    # x goes to psi_values as given, so that a float takes the scalar fast
    # path of Interval.require.
    out = sol.basis.psi_values(x, deriv) @ sol.gamma
    if deriv == 0:
        out = out + (p.alpha + p.beta * (np.asarray(x, dtype=float) - p.interval.a))
    elif deriv == 1:
        out = out + p.beta
    return float(out) if out.ndim == 0 else out


def _rhs_at_node(
    hom: HomogenizedProblem, index: int, x: float, v: float
) -> float:
    """Homogenized right-hand side with node-referenced domain reporting."""
    try:
        value = hom.rhs(x, v)
    except (ExpressionDomainError, ValueError) as exc:
        raise DomainError(
            f"right-hand side domain error at node {index + 1}, "
            f"x={x}, u={v + hom.shift(x)}: {exc}"
        ) from exc
    if math.isnan(value):
        raise NumericError(
            f"right-hand side returned NaN at node {index + 1}, x={x}"
        )
    return value


def solve_linear(problem: ProblemSpec, basis: CollocationBasis) -> RkhsSolution:
    """Direct solve for problems with an explicit affine right-hand side.

    With ``v = sum_i gamma_i psi_i`` the collocation conditions ``(L v)(x_j)
    = g(x_j) + q(x_j) v(x_j)`` read ``(G - diag(q) Psi) gamma = g``, where
    ``Psi[j, i] = psi_i(x_j)``: one LU solve, with no orthonormalization.
    """
    if problem.affine is None:
        raise ValueError(f"problem {problem.name!r} has no affine right-hand side form")
    hom = homogenize(problem)
    aff = hom.affine
    pts = basis.points.values
    gv = np.array([aff.g(x) for x in pts])
    K = basis.collocation_matrix([aff.q(x) for x in pts])
    try:
        gamma = np.linalg.solve(K, gv)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"collocation system is singular (cond ~ {np.linalg.cond(K):.3e})"
        ) from exc
    if not np.all(np.isfinite(gamma)):
        raise NumericError("collocation solve produced non-finite values")
    return RkhsSolution(basis, problem, gamma, method="linear")


def solve_nonlinear(
    problem: ProblemSpec,
    basis: CollocationBasis,
    initial: Optional[Callable[[float], float]] = None,
    sweeps: int = 1,
    tol: float = 1e-10,
) -> RkhsSolution:
    """Sequential forward sweep for general right-hand sides.

    The first sweep solves ``L A = f`` row by row in node order, with ``f_l``
    the right-hand side at the partial sum built so far and ``f_1`` at
    ``initial(x_1)`` (the original unknown; defaults to the homogenization
    shift).  Additional sweeps re-evaluate ``f`` at the nodal values ``Psi
    gamma``, solve ``L L^T gamma = f`` and stop once the largest nodal change
    is at most ``tol``.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    hom = homogenize(problem)
    pts = basis.points.values
    n = basis.n
    L = basis.chol
    # For i < l, psibar_i(x_l) = M[l] . C Y[i] with Y = L^{-1} U, so the
    # partial sum at x_l is M[l] . C z for the running z = sum_{i<l} A_i Y[i].
    Y = solve_lower(L, basis.U)
    MC = basis.M @ basis.kernel.C

    v0 = 0.0 if initial is None else initial(pts[0]) - hom.shift(pts[0])
    A = np.zeros(n)
    z = np.zeros(6)
    for l in range(n):
        f_l = _rhs_at_node(hom, l, pts[l], v0 if l == 0 else float(MC[l] @ z))
        A[l] = (f_l - float(L[l, :l] @ A[:l])) / L[l, l]
        z += A[l] * Y[l]
    if not np.all(np.isfinite(A)):
        raise NumericError("forward sweep produced non-finite coefficients")

    gamma = solve_lower(L, A, trans=True)
    sweeps_used = 1
    final_change = None
    if sweeps > 1:
        V = basis.node_psi_matrix @ gamma
    for sweeps_used in range(2, sweeps + 1):
        f = np.array([_rhs_at_node(hom, l, pts[l], V[l]) for l in range(n)])
        gamma_next = solve_lower(L, solve_lower(L, f), trans=True)
        if not np.all(np.isfinite(gamma_next)):
            raise NumericError("sweep produced non-finite coefficients")
        V_next = basis.node_psi_matrix @ gamma_next
        final_change = float(np.max(np.abs(V_next - V)))
        gamma, V = gamma_next, V_next
        if final_change <= tol:
            break
    return RkhsSolution(
        basis,
        problem,
        gamma,
        method="nonlinear",
        sweeps_used=sweeps_used,
        final_change=final_change,
    )


def solve_problem(
    problem: ProblemSpec,
    n: int = 100,
    method: str = "auto",
    sweeps: int = 1,
    tol: float = 1e-10,
    initial: Optional[Callable[[float], float]] = None,
) -> RkhsSolution:
    """Build kernel, nodes and basis for ``problem`` and solve it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if method not in ("auto", "linear", "nonlinear"):
        raise ValueError(f"method must be auto, linear or nonlinear, got {method!r}")
    kernel = build_w23_kernel(problem.interval)
    basis = build_basis(kernel, problem.k, uniform_points(problem.interval, n))
    if method == "auto":
        method = "linear" if problem.is_linear else "nonlinear"
    if method == "linear":
        return solve_linear(problem, basis)
    return solve_nonlinear(problem, basis, initial=initial, sweeps=sweeps, tol=tol)


def residual_sup_norm(
    sol: Union[RkhsSolution, Callable[[float, int], float]],
    problem: Optional[ProblemSpec] = None,
    m: int = 200,
) -> float:
    """Max of ``|u'' + (k/x) u' - F(x, u)|`` over interior sample points.

    The samples are the grid ``a + j (T - a) / m``, ``j = 1..m``, which never
    touches the singular endpoint, and for an ``RkhsSolution`` also the
    midpoints between its nodes (and between ``a`` and the first node), where
    the residual is not zero by construction.  An ``RkhsSolution`` is
    evaluated in one vectorized pass; ``sol`` may also be any ``(x, deriv)``
    callable, which lets the exact solution (or an oracle) be measured with
    the same ruler, point by point.
    """
    if problem is None:
        if not isinstance(sol, RkhsSolution):
            raise ValueError("problem is required when sol is a bare callable")
        problem = sol.problem
    if m < 1:
        raise ValueError("m must be >= 1")
    if not callable(sol):  # pragma: no cover - RkhsSolution is callable
        raise ValueError("sol must be callable")
    a = problem.interval.a
    xs = uniform_points(problem.interval, m).values
    if isinstance(sol, RkhsSolution):
        nodes = sol.basis.points.values
        xs = np.concatenate([xs, 0.5 * (np.concatenate([[a], nodes[:-1]]) + nodes)])
        u0, u1, u2 = (evaluate(sol, xs, d) for d in range(3))
    else:
        u0, u1, u2 = (np.array([sol(float(x), d) for x in xs]) for d in range(3))
    f = np.array([problem.rhs(float(x), float(v)) for x, v in zip(xs, u0)])
    return float(np.max(np.abs(u2 + (problem.k / xs) * u1 - f)))


@dataclass(frozen=True)
class ErrorRow:
    """One comparison point; relative error is absent where exact is zero."""

    x: float
    exact: float
    approximate: float
    absolute: float
    relative: Optional[float]


@dataclass(frozen=True)
class ErrorReport:
    rows: tuple[ErrorRow, ...]
    max_absolute: Optional[float]
    max_relative: Optional[float]


def error_report(
    sol: RkhsSolution,
    points: Iterable[float],
    problem: Optional[ProblemSpec] = None,
) -> ErrorReport:
    """Tabulate exact vs. approximate values over ``points``."""
    problem = problem or sol.problem
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    xs = np.array([float(x) for x in points])
    rows = []
    for x, approx in zip(xs.tolist(), evaluate(sol, xs).tolist()):
        exact = problem.exact.u(x)
        absolute = abs(exact - approx)
        relative = absolute / abs(exact) if exact != 0.0 else None
        rows.append(ErrorRow(x, exact, approx, absolute, relative))
    max_abs = max((r.absolute for r in rows), default=None)
    rels = [r.relative for r in rows if r.relative is not None]
    max_rel = max(rels) if rels else None
    return ErrorReport(rows=tuple(rows), max_absolute=max_abs, max_relative=max_rel)
