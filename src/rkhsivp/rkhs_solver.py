"""Series solver in the collocation basis.

The kernel space holds functions with zero value and slope at ``a``, so the
solver owns the shift ``s(x) = alpha + beta (x - a)``: ``v = u - s`` solves
``v'' + (k/x) v' = F(x, v + s) - (k/x) beta`` with ``v(a) = v'(a) = 0``, and
evaluation adds ``s`` back, so solutions satisfy the initial data at ``a`` to
floating-point accuracy.

The shifted unknown is ``v_n = sum_i gamma_i psi_i = sum_i A_i psibar_i``
with ``A = L^T gamma`` and ``G = L L^T``.  For an affine right-hand side
``g(x) + q(x) u`` collocation is one solve of ``(G - diag(q) Psi) gamma = g
+ q s - (k/x) beta`` (:meth:`~rkhsivp.collocation.CollocationBasis.solve_collocation`).
Otherwise the first sweep computes ``A`` in node order
(:meth:`~rkhsivp.collocation.CollocationBasis.forward_sweep`), calling back
here for ``F`` at each running partial sum; optional further sweeps re-feed
the previous full solution until the nodal values settle.  This module owns
the problem side (the shift, the calls of ``F``, the sweep count and the
cell tables); the basis owns every product with its generators and factor,
each O(n) in time and memory.

Between adjacent nodes ``v_n`` is a single quintic in ``x - a``, so a
solution is stored as ``n + 1`` pieces: :class:`RkhsSolution` keeps the
coefficients of ``v_n``, ``v_n'`` and ``v_n''`` on every cell, built in O(n)
from prefix sums of ``gamma_i U[i]``.  :func:`evaluate` finds the cell by
bisection and runs one Horner pass, O(log n) per point instead of a sum over
all ``n`` basis functions.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

import numpy as np

from .collocation import CollocationBasis, build_basis, uniform_points
from .errors import DomainError, ExpressionDomainError, NumericError
from .kernel_space import build_w23_kernel, quintic_derivative_weights
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
    the orthonormal ``psibar_i``, ``A = L^T gamma``.  ``cells[d]`` holds the
    ``d``-th derivative of the shifted unknown ``v`` as one polynomial in
    ``x - a`` per cell (:meth:`CollocationBasis.cell_coefficients`), highest
    power first: ``cells[d][p, j]`` multiplies ``(x - a)^(5 - d - p)`` on the
    cell after node ``j``.  A table that overflows (``gamma`` near the
    largest float) raises ``NumericError``.
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
        cells = []
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            table = basis.cell_coefficients(gamma)
            for d in range(3):
                # d-th derivative of t^p is perm(p, d) t^(p - d), the weights at t = 1.
                rows = table[:, d:] * quintic_derivative_weights(1.0, d)[d:]
                rows = np.ascontiguousarray(rows[:, ::-1].T)
                rows.setflags(write=False)
                cells.append(rows)
        for name, rows in zip(("u", "u'", "u''"), cells):
            if not np.all(np.isfinite(rows)):
                raise NumericError(
                    f"cell table of {name} is not finite (max |gamma| "
                    f"{np.max(np.abs(gamma)):.3g}): the solution overflows"
                )
        self.cells = tuple(cells)

    @cached_property
    def coefficients(self) -> np.ndarray:
        """``A = L^T gamma = L^{-1} (G gamma)`` (:meth:`CollocationBasis.psibar_coefficients`)."""
        out = self.basis.psibar_coefficients(self.gamma)
        out.setflags(write=False)
        return out

    @cached_property
    def _scalar(self) -> tuple:
        """What the per-point path of :func:`evaluate` reads, as Python objects.

        The nodes, ``cells`` with one tuple per cell, ``a``, ``T``, ``alpha``
        and ``beta``.
        """
        p = self.problem
        return (self.basis.points.values.tolist(),
                [list(map(tuple, c.T.tolist())) for c in self.cells],
                p.interval.a, p.interval.T, float(p.alpha), float(p.beta))

    def __call__(self, x: float, deriv: int = 0) -> float:
        return evaluate(self, x, deriv)


def evaluate(sol: RkhsSolution, x, deriv: int = 0):
    """Value or first/second derivative of the solution at ``x``.

    The cell of ``x`` is the number of nodes ``x_i <= x``; one Horner pass
    over its row of ``sol.cells`` gives ``v``, and the shift is added.  A
    Python number (a float, which includes ``np.float64``, or an int) in
    ``[a, T]`` is made a float and goes straight to a bisection and six
    float operations over Python copies of the nodes and cells, with no
    numpy call; an array of points gives an array of the same shape
    through the same operations, so both paths agree bit for bit.
    """
    if isinstance(x, (float, int)):
        x = float(x)
        nodes, cells, a, T, alpha, beta = sol._scalar
        if a <= x <= T and deriv in (0, 1, 2):
            t, j = x - a, bisect_right(nodes, x)
            # The array path's Horner loop, written out: it starts from 0.0.
            if deriv == 0:
                c0, c1, c2, c3, c4, c5 = cells[0][j]
                return ((((((0.0 * t + c0) * t + c1) * t + c2) * t + c3) * t + c4) * t + c5
                        + (alpha + beta * t))
            if deriv == 1:
                c0, c1, c2, c3, c4 = cells[1][j]
                return (((((0.0 * t + c0) * t + c1) * t + c2) * t + c3) * t + c4) + beta
            c0, c1, c2, c3 = cells[2][j]
            return ((((0.0 * t + c0) * t + c1) * t + c2) * t + c3)
    if deriv not in (0, 1, 2):
        raise ValueError(f"deriv must be 0, 1 or 2, got {deriv}")
    p = sol.problem
    interval = p.interval
    interval.require(x, "evaluation point")
    x = np.asarray(x, dtype=float)
    cell = np.searchsorted(sol.basis.points.values, x, side="right")
    t = x - interval.a
    out = 0.0
    for c in sol.cells[deriv]:
        out = out * t + c[cell]
    if deriv == 0:
        out = out + (p.alpha + p.beta * t)
    elif deriv == 1:
        out = out + p.beta
    return out if out.ndim else float(out)


def _shift(problem: ProblemSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """``s(x) = alpha + beta (x - a)`` and the slope term ``(k/x) beta`` at ``x``.

    The slope term is 0 when ``k`` or ``beta`` is, so a k = 0 node at x = 0
    stays finite; no other node sits on the pole (``build_basis`` refuses
    it).
    """
    p = problem
    x = np.asarray(x, dtype=float)
    s = p.alpha + p.beta * (x - p.interval.a)
    if p.k == 0.0 or p.beta == 0.0:
        return s, np.zeros_like(s)
    return s, (p.k / x) * p.beta


def _rhs_at_node(f: Callable[..., float], index: int, x: float, *u: float) -> float:
    """``f(x, *u)`` at node ``index``, naming the node when it fails.

    ``f`` is the right-hand side ``F(x, u)`` or one of its affine pieces
    ``g(x)`` and ``q(x)``.
    """
    try:
        value = f(x, *u)
    except (ExpressionDomainError, ValueError) as exc:
        raise _domain_error(exc, index, x, u) from exc
    if not math.isfinite(value):
        raise _not_finite(value, index, x)
    return value


def _domain_error(exc: Exception, index: int, x: float, u: tuple) -> DomainError:
    at = "".join(f", u={v}" for v in u)
    return DomainError(f"right-hand side domain error at node {index + 1}, x={x}{at}: {exc}")


def _not_finite(value: float, index: int, x: float) -> NumericError:
    shown = "NaN" if math.isnan(value) else value
    return NumericError(f"right-hand side returned {shown} at node {index + 1}, x={x}")


def _rhs_at_nodes(
    f: Callable[..., float], xs: np.ndarray, u: Optional[np.ndarray] = None
) -> np.ndarray:
    """``f(x_j)``, or ``f(x_j, u_j)`` when ``u`` is given, at every node, as an array.

    One loop over Python floats calls ``f`` once per node and stops at the
    first node that fails, with the error :func:`_rhs_at_node` raises there.
    """
    xs = xs.tolist()
    us = None if u is None else u.tolist()
    values = []
    try:
        if us is None:
            for x in xs:
                value = f(x)
                if not math.isfinite(value):
                    break
                values.append(value)
        else:
            for x, v in zip(xs, us):
                value = f(x, v)
                if not math.isfinite(value):
                    break
                values.append(value)
    except (ExpressionDomainError, ValueError) as exc:
        j = len(values)
        raise _domain_error(exc, j, xs[j], () if us is None else (us[j],)) from exc
    if len(values) < len(xs):
        raise _not_finite(value, len(values), xs[len(values)])
    return np.array(values)


def solve_linear(problem: ProblemSpec, basis: CollocationBasis) -> RkhsSolution:
    """Direct solve for problems with an explicit affine right-hand side.

    With ``v = u - s = sum_i gamma_i psi_i`` the collocation conditions
    ``(L v)(x_j) = g(x_j) + q(x_j) (v(x_j) + s(x_j)) - (k/x_j) beta`` read
    ``(G - diag(q) Psi) gamma = g + q s - (k/x) beta``, where ``Psi[j, i] =
    psi_i(x_j)``: one block LU solve from the basis generators
    (:meth:`CollocationBasis.solve_collocation`), with no n x n matrix formed.
    ``g`` and then ``q`` are evaluated at the nodes in one loop each
    (:func:`_rhs_at_nodes`).
    """
    aff = problem.affine
    if aff is None:
        raise ValueError(f"problem {problem.name!r} has no affine right-hand side form")
    pts = basis.points.values
    s, slope = _shift(problem, pts)
    # g first: where F is infinite, the message names g's inf, not a NaN in q.
    g = _rhs_at_nodes(aff.g, pts)
    q = _rhs_at_nodes(aff.q, pts)
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
    the largest nodal change is at most ``tol``; nodal values that overflow
    raise ``NumericError`` naming the sweep.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    F = problem.rhs
    pts = basis.points.values
    s, slope = _shift(problem, pts)
    factor = basis.gram_factor
    A = basis.forward_sweep(s, lambda l, u: _rhs_at_node(F, l, pts[l], u) - slope[l])
    gamma = factor.backward(A)
    sweeps_used, final_change = 1, None
    if sweeps > 1:
        V = _node_values(basis, gamma, 1)
    for sweeps_used in range(2, sweeps + 1):
        f = _rhs_at_nodes(F, pts, V + s) - slope
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            gamma_next = factor.backward(factor.forward(f))
        if not np.all(np.isfinite(gamma_next)):
            raise NumericError("sweep produced non-finite coefficients")
        V_next = _node_values(basis, gamma_next, sweeps_used)
        final_change = float(np.max(np.abs(V_next - V)))
        gamma, V = gamma_next, V_next
        if final_change <= tol:
            break
    return RkhsSolution(basis, problem, gamma, method="nonlinear",
                        sweeps_used=sweeps_used, final_change=final_change)


def _node_values(basis: CollocationBasis, gamma: np.ndarray, sweep: int) -> np.ndarray:
    """``Psi gamma`` after sweep ``sweep``; values that overflow raise ``NumericError``."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        V = basis.node_values(gamma)
    if not np.all(np.isfinite(V)):
        raise NumericError(
            f"nodal values after sweep {sweep} are not finite (max |gamma| "
            f"{np.max(np.abs(gamma)):.3g}): the solution overflows"
        )
    return V


def solve_problem(
    problem: ProblemSpec,
    n: int = 100,
    method: str = "auto",
    sweeps: int = 1,
    tol: float = 1e-10,
) -> RkhsSolution:
    """Build kernel, nodes and basis for ``problem`` and solve it."""
    if method not in ("auto", "linear", "nonlinear"):
        raise ValueError(f"method must be auto, linear or nonlinear, got {method!r}")
    kernel = build_w23_kernel(problem.interval)
    basis = build_basis(kernel, problem.k, uniform_points(problem.interval, n))
    if method == "auto":
        method = "linear" if problem.is_linear else "nonlinear"
    if method == "linear":
        return solve_linear(problem, basis)
    return solve_nonlinear(problem, basis, sweeps=sweeps, tol=tol)


def residual_sup_norm(sol: RkhsSolution) -> float:
    """Max of :func:`ode_residual` over interior sample points.

    The samples are the grid ``a + j (T - a) / 200``, ``j = 1..200``, which
    never touches the singular endpoint, and the midpoints between the nodes
    of ``sol`` (and between ``a`` and the first node), where the residual is
    not zero by construction; a sample at the pole ``x = 0`` is left out.
    The solution is evaluated in one vectorized pass.  A domain error of
    ``F`` names the residual, ``x`` and ``u``.
    """
    problem, nodes = sol.problem, sol.basis.points.values
    a = problem.interval.a
    xs = uniform_points(problem.interval, 200).values
    xs = np.concatenate([xs, 0.5 * (np.concatenate([[a], nodes[:-1]]) + nodes)])
    u0, u1, u2 = (evaluate(sol, xs, d) for d in range(3))
    try:
        return float(np.max(ode_residual(problem, xs, u0, u1, u2)))
    except DomainError as exc:
        raise DomainError(f"residual sup-norm: {exc}") from exc


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
