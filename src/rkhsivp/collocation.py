"""Collocation points, operator-image basis and its orthonormalization.

For nodes ``x_1 < ... < x_n`` inside ``(a, T]`` the basis functions are the
operator images ``psi_i(x) = d2/dy2 R_x(y) + (k/x_i) d/dy R_x(y)`` at
``y = x_i``, where ``R`` is the piecewise-quintic kernel.  Writing the kernel
as ``R(x, y) = m(x - a) . C m(y - a)`` on ``y <= x`` (``C^T`` otherwise) and
letting ``U[i]`` be the operator applied to the monomials ``m(y - a)`` at
``y = x_i``, every kernel matrix is rows times ``C U[i]`` (or ``C^T U[i]``):

    psi_i(x)  = m(x - a) . C U[i]         (x_i <= x; C^T otherwise)
    G[j, i]   = U[j] . C U[i]             (x_i <= x_j; C^T otherwise)
    Psi[j, i] = M[j] . C U[i]             (likewise; M[j] = m(x_j - a))

and ``K = G - diag(q) Psi`` takes the rows ``U - diag(q) M``.  No quadrature
and no finite differences enter; the quadrature inner product exists only as
an independent oracle in the tests.

So off its diagonal every such matrix is a 6-wide product of generators: it
is quasiseparable of rank 6.  The linear solve with ``K`` uses that directly
(:meth:`CollocationBasis.solve_collocation`, a block LU in O(n) time and
memory); the dense ``K`` is built only as the tests' reference.  The
nonlinear path factors the dense Gram matrix, ``G = L L^T``, and never
inverts ``L``: the orthonormal system is ``psibar = L^{-1} psi`` (the
classical Gram-Schmidt recurrence, but stable at the node counts the
benchmark tables need), and each product with ``L^{-1}`` is a blocked
substitution (:func:`solve_lower`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericError, SingularityError
from .kernel_space import Interval, W23Kernel, quintic_derivative_weights

__all__ = [
    "PointSet",
    "CollocationBasis",
    "uniform_points",
    "gram_matrix",
    "orthonormalize",
    "build_basis",
    "solve_lower",
]

# Width of the diagonal blocks in solve_lower, and the largest block of
# _block_lu_solve.
_BLOCK = 64
# Backward errors of the linear solve: refinement stops at _REFINED, and a
# system still above _SINGULAR after _REFINE_STEPS steps is refused.
_REFINED, _SINGULAR, _REFINE_STEPS = 1e-14, 1e-10, 3


@dataclass(frozen=True)
class PointSet:
    """Strictly increasing, finite collocation nodes."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("point set must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("point set must be finite")
        if not np.all(np.diff(arr) > 0):
            raise ValueError("point set must be strictly increasing")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def uniform_points(interval: Interval, n: int) -> PointSet:
    """``x_i = a + i (T - a) / n`` for ``i = 1..n``; never includes ``a``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, T = interval.a, interval.T
    x = a + np.arange(1, n + 1, dtype=float) * (T - a) / n
    x[-1] = T  # a + n (T - a) / n can round above T
    return PointSet(x)


def _require_inside(points: PointSet, interval: Interval) -> None:
    if points.values[0] <= interval.a or points.values[-1] > interval.T:
        raise DomainError(
            f"collocation nodes must lie in ({interval.a}, {interval.T}]"
        )


def _require_regular(points: PointSet, k: float) -> None:
    """Reject a node at ``x = 0`` (possible when ``a < 0 < T``) unless ``k = 0``."""
    if k != 0.0:
        at_zero = np.flatnonzero(points.values == 0.0)
        if at_zero.size:
            raise SingularityError(
                f"collocation node {int(at_zero[0]) + 1} is x = 0, where k/x is singular"
            )


def gram_matrix(kernel: W23Kernel, k: float, points: PointSet) -> np.ndarray:
    """Pairwise inner products of the basis functions, ``G[i, j] = <psi_i, psi_j>``."""
    return build_basis(kernel, k, points).gram


def _cholesky(gram: np.ndarray) -> np.ndarray:
    """Lower-triangular ``L`` with ``L @ L.T = gram`` and a positive diagonal."""
    try:
        return np.linalg.cholesky(np.asarray(gram, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"Gram matrix is not positive definite ({exc}); "
            "reduce the node count or check for repeated nodes"
        ) from exc


def solve_lower(L: np.ndarray, B: np.ndarray, trans: bool = False) -> np.ndarray:
    """``X`` with ``L X = B`` (or ``L^T X = B`` when ``trans``), ``L`` lower.

    Blocked substitution: each diagonal block of ``_BLOCK`` rows is solved
    with ``np.linalg.solve`` after one matrix product removes the part of
    ``B`` already accounted for by the solved blocks.  ``B`` may be a vector
    or a matrix; ``X`` has its shape.
    """
    X = np.array(B, dtype=float)
    n = L.shape[0]
    starts = range(0, n, _BLOCK)
    for j0 in reversed(starts) if trans else starts:
        j1 = min(j0 + _BLOCK, n)
        if trans:
            X[j0:j1] -= L[j1:, j0:j1].T @ X[j1:]
            X[j0:j1] = np.linalg.solve(L[j0:j1, j0:j1].T, X[j0:j1])
        else:
            X[j0:j1] -= L[j0:j1, :j0] @ X[:j0]
            X[j0:j1] = np.linalg.solve(L[j0:j1, j0:j1], X[j0:j1])
    return X


def orthonormalize(gram: np.ndarray) -> np.ndarray:
    """Lower-triangular ``beta`` with ``beta @ gram @ beta.T = I``.

    Computed as the inverse Cholesky factor; the diagonal is positive.  The
    solvers never form it; it serves the orthonormality checks.
    """
    return _inverse_lower(_cholesky(gram))


def _inverse_lower(L: np.ndarray) -> np.ndarray:
    # The pivoted block solves leave rounding-level values above the
    # diagonal, where L^{-1} is zero.
    return np.tril(solve_lower(L, np.eye(len(L))))


class CollocationBasis:
    """Kernel, nodes and the generators: operator rows ``U``, node monomials ``M``.

    ``gram``, ``chol``, ``beta`` and ``node_psi_matrix`` are built from them
    on first read.  Immutable; all returned arrays are read-only.  ``psi_values``
    supports derivative orders 0..3 in the evaluation variable (order 3 exists
    for the quadrature oracles; the public solution interface stops at 2).
    """

    def __init__(self, kernel: W23Kernel, k: float, points: PointSet):
        _require_inside(points, kernel.interval)
        _require_regular(points, k)
        self.kernel = kernel
        self.k = float(k)
        self.points = points
        # U[i] = (d2/dy2 + (k/x_i) d/dy) m(y - a) at y = x_i; M[i] = m(x_i - a).
        eta = points.values - kernel.interval.a
        self.U = quintic_derivative_weights(eta, 2)
        self.M = quintic_derivative_weights(eta, 0)
        # The Gram finiteness check is the contract for bad inputs (such as an
        # infinite k), so overflow warnings here carry no information.
        with np.errstate(invalid="ignore", over="ignore"):
            if self.k != 0.0:
                self.U += self.k / points.values[:, None] * quintic_derivative_weights(eta, 1)
            # C U^T and C^T U^T, kept because point evaluation reads them per call.
            self._left, self._right = kernel.C @ self.U.T, kernel.C.T @ self.U.T
        self.U.setflags(write=False)
        self.M.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.points)

    def _kernel_rows(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Column i: ``rows . C U[i]`` where ``x_i <= x``, else ``rows . C^T U[i]``."""
        out = rows @ self._left
        np.copyto(out, rows @ self._right, where=self.points.values > x[..., None])
        return out

    def psi_values(self, x, order: int = 0) -> np.ndarray:
        """Values of every ``psi_i`` (or an x-derivative) at ``x``.

        A number ``x`` gives shape ``(n,)``; an array of points gives one row
        per point, ``out[..., i] = psi_i(x)``.
        """
        if order not in (0, 1, 2, 3):
            raise ValueError(f"order must be in 0..3, got {order}")
        interval = self.kernel.interval
        interval.require(x, "evaluation point")
        x = np.asarray(x, dtype=float)
        return self._kernel_rows(quintic_derivative_weights(x - interval.a, order), x)

    @cached_property
    def gram(self) -> np.ndarray:
        """``G[j, i] = U[j] . C U[i]`` for ``x_i <= x_j``, with ``C^T`` above."""
        with np.errstate(invalid="ignore", over="ignore"):
            out = self._kernel_rows(self.U, self.points.values)
        if not np.all(np.isfinite(out)):
            i, j = np.argwhere(~np.isfinite(out))[0]
            raise NumericError(f"non-finite Gram entry at ({int(i) + 1}, {int(j) + 1})")
        out.setflags(write=False)
        return out

    @cached_property
    def chol(self) -> np.ndarray:
        """Cholesky factor ``L`` of the Gram matrix, ``G = L L^T``."""
        out = _cholesky(self.gram)
        out.setflags(write=False)
        return out

    @cached_property
    def beta(self) -> np.ndarray:
        """``L^{-1}``, so that ``psibar = beta psi``; built only on request."""
        out = _inverse_lower(self.chol)
        out.setflags(write=False)
        return out

    def psibar_values(self, x, order: int = 0) -> np.ndarray:
        """Values of the orthonormalized functions at ``x``."""
        return self.psi_values(x, order) @ self.beta.T

    @cached_property
    def node_psi_matrix(self) -> np.ndarray:
        """``Psi[j, i] = psi_i(x_j)``."""
        out = self._kernel_rows(self.M, self.points.values)
        out.setflags(write=False)
        return out

    def collocation_matrix(self, q: np.ndarray) -> np.ndarray:
        """``K = G - diag(q) Psi``, built from the rows ``U - diag(q) M``.

        The solvers never form it (see :meth:`solve_collocation`); it is the
        dense reference the tests compare against.
        """
        rows = self.U - np.asarray(q, dtype=float)[:, None] * self.M
        with np.errstate(invalid="ignore", over="ignore"):  # the solve checks finiteness
            return self._kernel_rows(rows, self.points.values)

    def solve_collocation(self, q: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``gamma`` with ``(G - diag(q) Psi) gamma = g``, without forming the matrix.

        With ``P = U - diag(q) M`` the matrix ``K`` has ``K[i, j] = P[i] . C
        U[j]`` for ``j <= i`` and ``P[i] . C^T U[j]`` for ``j > i``: it is
        quasiseparable of rank 6, and :func:`_block_lu_solve` factors it in
        O(n) time and memory.  That factor pivots only within its blocks, so
        the backward error ``|g - K gamma| / (max|K_ii| |gamma|)`` is measured
        with the same generators; above ``_REFINED`` it is brought down by up
        to ``_REFINE_STEPS`` steps of iterative refinement.  A system still
        above ``_SINGULAR`` is singular to working precision (cond(K) beyond
        about 1e16, where a growing mode outruns double precision) and raises
        ``NumericError``.
        """
        g = np.asarray(g, dtype=float)
        P = self.U - np.asarray(q, dtype=float)[:, None] * self.M
        Qt, Rt = self._left, self._right
        # Overflow (such as an infinite k) shows as a non-finite block.
        with np.errstate(invalid="ignore", over="ignore"):
            scale = np.max(np.abs(np.einsum("ip,pi->i", P, Qt)))  # max |K_ii|
            gamma = _block_lu_solve(P, Qt, Rt, g)
            for _ in range(_REFINE_STEPS):
                residual = g - _quasiseparable_product(P, Qt, Rt, gamma)
                if np.max(np.abs(residual)) <= _REFINED * scale * np.max(np.abs(gamma)):
                    return gamma
                gamma = gamma + _block_lu_solve(P, Qt, Rt, residual)
            residual = np.abs(g - _quasiseparable_product(P, Qt, Rt, gamma))
        error = np.max(residual) / (scale * np.max(np.abs(gamma)))
        if not error <= _SINGULAR:
            raise NumericError(
                "collocation system is singular to working precision: backward error "
                f"{error:.1e} after {_REFINE_STEPS} refinement steps, largest at node "
                f"{int(np.argmax(residual)) + 1}"
            )
        return gamma


def _quasiseparable_product(P: np.ndarray, Qt: np.ndarray, Rt: np.ndarray,
                            x: np.ndarray) -> np.ndarray:
    """``K x`` for ``K[i, j] = P[i] . Qt[:, j]`` (``j <= i``), ``P[i] . Rt[:, j]`` (``j > i``)."""
    lower = np.cumsum(Qt * x, axis=1)
    upper = np.zeros_like(lower)
    upper[:, :-1] = np.cumsum((Rt * x)[:, :0:-1], axis=1)[:, ::-1]
    return np.einsum("ip,pi->i", P, lower + upper)


def _block_lu_solve(P: np.ndarray, Qt: np.ndarray, Rt: np.ndarray,
                    g: np.ndarray) -> np.ndarray:
    """``x`` with ``K x = g``, ``K`` as in :func:`_quasiseparable_product`.

    A block LU whose off-diagonal blocks are kept as one 6x6 state ``S``.
    The nodes are cut into near-equal blocks of at most ``_BLOCK`` (a short
    trailing block cost digits).  Block ``J`` forms only its diagonal block
    ``D_J = K_JJ - P_J S R_J^T``, with ``R_J^T = Rt[:, J]`` and ``Q_J^T =
    Qt[:, J]``, and solves it, pivoting within the block, for ``y_J = g_J -
    P_J z`` and ``E_J = P_J (I - S)`` at once.  With ``X_J^T = Q_J^T - S
    R_J^T`` the forward pass moves on by ``S += X_J^T D_J^{-1} E_J`` and ``z
    += X_J^T D_J^{-1} y_J``; the backward pass is ``x_J = D_J^{-1} (y_J - E_J
    w)``, ``w += R_J^T x_J``.
    """
    n = len(g)
    edges = np.linspace(0, n, -(-n // _BLOCK) + 1).round().astype(int)
    blocks = [slice(j0, j1) for j0, j1 in zip(edges[:-1], edges[1:])]
    lower = np.tri(_BLOCK, dtype=bool)
    S, z = np.zeros((6, 6)), np.zeros(6)
    Y, F = np.empty(n), np.empty((n, 6))  # D_J^{-1} y_J and D_J^{-1} E_J
    for J in blocks:
        PJ, RJt = P[J], Rt[:, J]
        Xt = Qt[:, J] - S @ RJt
        E = PJ - PJ @ S
        b = len(PJ)
        D = np.where(lower[:b, :b], PJ @ Xt, E @ RJt)
        try:
            sol = np.linalg.solve(D, np.column_stack([g[J] - PJ @ z, E]))
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"collocation system is singular at {_nodes(J)}") from exc
        _require_finite(sol, J)
        Y[J], F[J] = sol[:, 0], sol[:, 1:]
        S += Xt @ F[J]
        z += Xt @ Y[J]
    x, w = np.empty(n), np.zeros(6)
    for J in reversed(blocks):
        x[J] = Y[J] - F[J] @ w
        _require_finite(x[J], J)
        w += Rt[:, J] @ x[J]
    return x


def _nodes(J: slice) -> str:
    return f"nodes {J.start + 1}..{J.stop}"


def _require_finite(values: np.ndarray, J: slice) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericError(f"collocation solve produced non-finite values at {_nodes(J)}")


def build_basis(kernel: W23Kernel, k: float, points: PointSet) -> CollocationBasis:
    """The collocation basis of ``kernel`` at ``points`` for the coefficient ``k``."""
    return CollocationBasis(kernel, k, points)
