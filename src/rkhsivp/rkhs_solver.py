"""Series solver in the orthonormalized collocation basis.

The homogenized unknown is expanded as ``v_n(x) = sum_i A_i psibar_i(x)``.
For an affine right-hand side ``g(x) + q(x) v`` the nodal values solve one
dense linear system and the coefficients follow directly.  Otherwise a single
forward sweep computes the coefficients in node order, evaluating the
right-hand side at the running partial sums; optional further sweeps re-feed
the previous full solution until the nodal values settle.

Evaluation undoes the homogenization shift, so solutions report the original
unknown and satisfy the initial data at ``a`` to floating-point accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .collocation import CollocationBasis, build_basis, uniform_points
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
    """Truncated series solution; immutable, callable as ``sol(x, deriv)``."""

    def __init__(
        self,
        basis: CollocationBasis,
        problem: ProblemSpec,
        coefficients: np.ndarray,
        method: str,
        sweeps_used: int = 1,
        final_change: Optional[float] = None,
    ):
        coefficients = np.asarray(coefficients, dtype=float).copy()
        coefficients.setflags(write=False)
        self.basis = basis
        self.problem = problem
        self.coefficients = coefficients
        self.method = method
        self.sweeps_used = sweeps_used
        self.final_change = final_change
        # Collapse the double sum once: u part = gamma . psi-values.
        gamma = basis.beta.T @ coefficients
        gamma.setflags(write=False)
        self._gamma = gamma

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
    p.interval.require(x, "evaluation point")
    x = np.asarray(x, dtype=float)
    out = sol.basis.psi_values(x, deriv) @ sol._gamma
    if deriv == 0:
        out = out + (p.alpha + p.beta * (x - p.interval.a))
    elif deriv == 1:
        out = out + p.beta
    return float(out) if out.ndim == 0 else out


def _rhs_at_node(
    hom: HomogenizedProblem, index: int, x: float, v: float
) -> float:
    """Homogenized right-hand side with node-referenced domain reporting."""
    try:
        value = hom.rhs(x, v)
    except ExpressionDomainError as exc:
        raise DomainError(
            f"right-hand side domain error at node {index + 1}, "
            f"x={x}, u={v + hom.shift(x)}: {exc}"
        ) from exc
    except ValueError as exc:
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

    Nodal values satisfy ``(I - M diag(q)) V = M g`` with ``M[j, l] =
    sum_i psibar_i(x_j) beta[i, l]``; the series coefficients are ``beta @
    (g + q V)``.
    """
    aff_base = problem.affine
    if aff_base is None:
        raise ValueError(f"problem {problem.name!r} has no affine right-hand side form")
    hom = homogenize(problem)
    aff = hom.affine
    pts = basis.points.values
    n = basis.n
    gv = np.array([aff.g(x) for x in pts])
    qv = np.array([aff.q(x) for x in pts])
    M = basis.node_psibar_matrix @ basis.beta
    K = np.eye(n) - M * qv[None, :]
    try:
        V = np.linalg.solve(K, M @ gv)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"nodal system is singular (cond ~ {np.linalg.cond(K):.3e})"
        ) from exc
    if not np.all(np.isfinite(V)):
        raise NumericError("nodal solve produced non-finite values")
    coeffs = basis.beta @ (gv + qv * V)
    return RkhsSolution(basis, problem, coeffs, method="linear")


def solve_nonlinear(
    problem: ProblemSpec,
    basis: CollocationBasis,
    initial: Optional[Callable[[float], float]] = None,
    sweeps: int = 1,
    tol: float = 1e-10,
) -> RkhsSolution:
    """Sequential forward sweep for general right-hand sides.

    The first sweep follows the node order: the coefficient of basis function
    ``i`` uses the right-hand side evaluated at the partial sums built so
    far, seeded by ``initial`` (the original unknown; defaults to the
    homogenization shift, i.e. a zero homogenized iterate).  Additional
    sweeps re-evaluate the right-hand side at the previous sweep's full
    nodal values and stop once the largest nodal change is at most ``tol``.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    hom = homogenize(problem)
    pts = basis.points.values
    n = basis.n
    beta = basis.beta
    S = basis.node_psibar_matrix

    if initial is None:
        v0 = np.zeros(n)
    else:
        v0 = np.array([initial(x) - hom.shift(x) for x in pts])

    f = np.empty(n)
    A = np.zeros(n)
    for l in range(n):
        varg = v0[l] if l == 0 else float(S[l, :l] @ A[:l])
        f[l] = _rhs_at_node(hom, l, pts[l], varg)
        A[l] = float(beta[l, : l + 1] @ f[: l + 1])
    if not np.all(np.isfinite(A)):
        raise NumericError("forward sweep produced non-finite coefficients")

    sweeps_used = 1
    final_change = None
    V = S @ A
    for _ in range(1, sweeps):
        f = np.array([_rhs_at_node(hom, l, pts[l], V[l]) for l in range(n)])
        A_next = beta @ f
        if not np.all(np.isfinite(A_next)):
            raise NumericError("sweep produced non-finite coefficients")
        V_next = S @ A_next
        final_change = float(np.max(np.abs(V_next - V)))
        A, V = A_next, V_next
        sweeps_used += 1
        if final_change <= tol:
            break
    return RkhsSolution(
        basis,
        problem,
        A,
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
    a, T = problem.interval.a, problem.interval.T
    xs = a + np.arange(1, m + 1) * (T - a) / m
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
