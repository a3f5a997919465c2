"""Series solver in the collocation basis.

The kernel space holds functions with zero value and slope at ``a``, so the
solver owns the shift ``s(x) = alpha + beta (x - a)``: ``v = u - s`` solves
``v'' + (k/x) v' = F(x, v + s) - (k/x) beta`` with ``v(a) = v'(a) = 0``, and
evaluation adds ``s`` back, so solutions satisfy the initial data at ``a`` to
floating-point accuracy.

The shifted unknown is ``v_n = sum_i gamma_i psi_i = sum_i A_i psibar_i``
with ``A = L^T gamma``, where ``G = L L^T`` is the Cholesky factorization of
the Gram matrix; no inverse of ``L`` is formed.  For an affine right-hand
side ``g(x) + q(x) u`` collocation is one solve of ``(G - diag(q) Psi) gamma
= g + q s - (k/x) beta``, a block LU built from the basis generators in O(n)
time and memory, with no n x n matrix and no Cholesky factor.  Otherwise
a single forward sweep computes ``A`` in node order by forward substitution
with ``L``, evaluating the right-hand side at the running partial sums;
optional further sweeps re-feed the previous full solution until the nodal
values settle.
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
from .problem_model import ProblemSpec, ode_residual

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

    def __call__(self, x: float, deriv: int = 0) -> float:
        return evaluate(self, x, deriv)


def evaluate(sol: RkhsSolution, x, deriv: int = 0):
    """Value or first/second derivative of the solution at ``x``.

    A number ``x`` gives a float; an array of points gives an array of the
    same shape, from one matrix product.
    """
    if deriv not in (0, 1, 2):
        raise ValueError(f"deriv must be 0, 1 or 2, got {deriv}")
    # x goes to psi_values as given, so that a float takes the scalar fast
    # path of Interval.require.
    out = sol.basis.psi_values(x, deriv) @ sol.gamma
    if deriv == 0:
        out = out + _shift(sol.problem, x)[0]
    elif deriv == 1:
        out = out + sol.problem.beta
    return float(out) if out.ndim == 0 else out


def _shift(problem: ProblemSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """``s(x) = alpha + beta (x - a)`` and the slope term ``(k/x) beta`` at ``x``.

    The slope term is 0 when ``k`` or ``beta`` is, so a k = 0 node at x = 0
    stays finite.  No node sits on the pole otherwise (``build_basis``
    refuses it); :func:`evaluate` may ask there, and reads only ``s``.
    """
    p = problem
    x = np.asarray(x, dtype=float)
    s = p.alpha + p.beta * (x - p.interval.a)
    if p.k == 0.0 or p.beta == 0.0:
        return s, np.zeros_like(s)
    with np.errstate(divide="ignore"):
        return s, (p.k / x) * p.beta


def _rhs_at_node(f: Callable[..., float], index: int, x: float, *u: float) -> float:
    """``f(x, *u)`` at node ``index``, naming the node when it fails.

    ``f`` is the right-hand side ``F(x, u)`` or one of its affine pieces
    ``g(x)`` and ``q(x)``.
    """
    try:
        value = f(x, *u)
    except (ExpressionDomainError, ValueError) as exc:
        at = "".join(f", u={v}" for v in u)
        raise DomainError(
            f"right-hand side domain error at node {index + 1}, x={x}{at}: {exc}"
        ) from exc
    if math.isnan(value):
        raise NumericError(
            f"right-hand side returned NaN at node {index + 1}, x={x}"
        )
    return value


def solve_linear(problem: ProblemSpec, basis: CollocationBasis) -> RkhsSolution:
    """Direct solve for problems with an explicit affine right-hand side.

    With ``v = u - s = sum_i gamma_i psi_i`` the collocation conditions
    ``(L v)(x_j) = g(x_j) + q(x_j) (v(x_j) + s(x_j)) - (k/x_j) beta`` read
    ``(G - diag(q) Psi) gamma = g + q s - (k/x) beta``, where ``Psi[j, i] =
    psi_i(x_j)``: one block LU solve from the basis generators
    (:meth:`CollocationBasis.solve_collocation`), with no n x n matrix formed.
    """
    aff = problem.affine
    if aff is None:
        raise ValueError(f"problem {problem.name!r} has no affine right-hand side form")
    pts = basis.points.values
    s, slope = _shift(problem, pts)
    q = np.array([_rhs_at_node(aff.q, j, x) for j, x in enumerate(pts)])
    g = np.array([_rhs_at_node(aff.g, j, x) for j, x in enumerate(pts)])
    gamma = basis.solve_collocation(q, g + q * s - slope)
    return RkhsSolution(basis, problem, gamma, method="linear")


def solve_nonlinear(
    problem: ProblemSpec,
    basis: CollocationBasis,
    sweeps: int = 1,
    tol: float = 1e-10,
) -> RkhsSolution:
    """Sequential forward sweep for general right-hand sides.

    The first sweep solves ``L A = f`` row by row in node order, with ``f_l
    = F(x_l, v_l + s_l) - (k/x_l) beta`` at the partial sum ``v_l`` built
    so far (zero at the first node).  Additional sweeps re-evaluate ``f`` at
    the nodal values ``Psi gamma``, solve ``L L^T gamma = f`` and stop once
    the largest nodal change is at most ``tol``.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    F = problem.rhs
    pts = basis.points.values
    s, slope = _shift(problem, pts)
    n = basis.n
    L = basis.chol
    # For i < l, psibar_i(x_l) = M[l] . C Y[i] with Y = L^{-1} U, so the
    # partial sum at x_l is M[l] . C z for the running z = sum_{i<l} A_i Y[i].
    Y = solve_lower(L, basis.U)
    MC = basis.M @ basis.kernel.C

    A = np.zeros(n)
    z = np.zeros(6)
    for l in range(n):
        f_l = _rhs_at_node(F, l, pts[l], float(MC[l] @ z) + s[l]) - slope[l]
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
        f = np.array([_rhs_at_node(F, l, pts[l], V[l] + s[l]) for l in range(n)]) - slope
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
    return solve_nonlinear(problem, basis, sweeps=sweeps, tol=tol)


def residual_sup_norm(
    sol: Union[RkhsSolution, Callable[[float, int], float]],
    problem: Optional[ProblemSpec] = None,
) -> float:
    """Max of :func:`ode_residual` over interior sample points.

    The samples are the grid ``a + j (T - a) / 200``, ``j = 1..200``, which
    never touches the singular endpoint, and for an ``RkhsSolution`` also the
    midpoints between its nodes (and between ``a`` and the first node), where
    the residual is not zero by construction; a sample at the pole ``x = 0``
    is left out.  An ``RkhsSolution`` is
    evaluated in one vectorized pass; ``sol`` may also be any ``(x, deriv)``
    callable, which lets the exact solution (or an oracle) be measured with
    the same ruler, point by point.
    """
    if problem is None:
        if not isinstance(sol, RkhsSolution):
            raise ValueError("problem is required when sol is a bare callable")
        problem = sol.problem
    a = problem.interval.a
    xs = uniform_points(problem.interval, 200).values
    if isinstance(sol, RkhsSolution):
        nodes = sol.basis.points.values
        xs = np.concatenate([xs, 0.5 * (np.concatenate([[a], nodes[:-1]]) + nodes)])
        u0, u1, u2 = (evaluate(sol, xs, d) for d in range(3))
    else:
        u0, u1, u2 = (np.array([sol(float(x), d) for x in xs]) for d in range(3))
    return float(np.max(ode_residual(problem, xs, u0, u1, u2)))


@dataclass(frozen=True)
class ErrorRow:
    """One point; ``exact`` is the reference value, and no relative error where it is 0."""

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
    reference: Optional[Callable[[float], float]] = None,
) -> ErrorReport:
    """Tabulate ``reference`` (default: the exact ``u``) vs. approximate values at ``points``."""
    if reference is None:
        if sol.problem.exact is None:
            raise ValueError(f"problem {sol.problem.name!r} has no exact solution")
        reference = sol.problem.exact.u
    xs = np.array([float(x) for x in points])
    rows = []
    for x, approx in zip(xs.tolist(), evaluate(sol, xs).tolist()):
        exact = reference(x)
        absolute = abs(exact - approx)
        relative = absolute / abs(exact) if exact != 0.0 else None
        rows.append(ErrorRow(x, exact, approx, absolute, relative))
    max_abs = max((r.absolute for r in rows), default=None)
    rels = [r.relative for r in rows if r.relative is not None]
    max_rel = max(rels) if rels else None
    return ErrorReport(rows=tuple(rows), max_absolute=max_abs, max_relative=max_rel)
