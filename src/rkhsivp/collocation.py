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

and ``K = G - diag(q) Psi`` takes the rows ``U - diag(q) M``.  A combination
``sum_i gamma_i psi_i`` is one quintic on each cell between adjacent nodes,
with coefficients from prefix and suffix sums of ``gamma_i C U[i]`` and
``gamma_i C^T U[i]`` (:meth:`CollocationBasis.cell_coefficients`).  No quadrature
and no finite differences enter; the quadrature inner product exists only as
an independent oracle in the tests.

So off its diagonal every such matrix is a product of generators as wide as
``C``: it is quasiseparable of that rank, and each solve factors it in O(n)
time and memory.  The linear path's ``K`` is a block LU
(:meth:`CollocationBasis.solve_collocation`); the nonlinear path works in the
orthonormal system ``psibar = L^{-1} psi`` (the classical Gram-Schmidt
recurrence, but stable) with ``G = L L^T`` factored blockwise
(:class:`GramFactor`).  Its first sweep is a forward substitution with ``L``
that asks the solver for each row's right-hand side at the partial sum so
far (:meth:`CollocationBasis.forward_sweep`).  The same factor gives the
values and coefficients of ``psibar`` (:meth:`CollocationBasis.psibar_values`,
:meth:`CollocationBasis.psibar_coefficients`).  Only the
check API, :func:`gram_matrix` and :func:`orthonormalize`, returns dense
n x n arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

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
]

# The largest diagonal block of _block_lu_solve and GramFactor.
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
    """Pairwise inner products of the basis functions, ``G[i, j] = <psi_i, psi_j>``.

    ``G[j, i] = U[j] . C U[i]`` for ``x_i <= x_j``, with ``C^T`` above.
    """
    basis = build_basis(kernel, k, points)
    with np.errstate(invalid="ignore", over="ignore"):
        out = basis._kernel_rows(basis.U, points.values)
    if not np.all(np.isfinite(out)):
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise NumericError(f"non-finite Gram entry at ({int(i) + 1}, {int(j) + 1})")
    return out


def _cholesky(gram: np.ndarray) -> np.ndarray:
    """Lower-triangular ``L`` with ``L @ L.T = gram`` and a positive diagonal."""
    try:
        return np.linalg.cholesky(np.asarray(gram, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"Gram matrix is not positive definite ({exc}); "
            "reduce the node count or check for repeated nodes"
        ) from exc


def orthonormalize(gram: np.ndarray) -> np.ndarray:
    """Lower-triangular ``beta`` with ``beta @ gram @ beta.T = I``.

    Computed as the inverse Cholesky factor; the diagonal is positive.  The
    solvers never form it; it serves the orthonormality checks.
    """
    return np.tril(np.linalg.inv(_cholesky(gram)))


class CollocationBasis:
    """Kernel, nodes and the generators: operator rows ``U``, node monomials ``M``.

    ``gram_factor`` (``G = L L^T`` in O(n)) is built from them on first read.
    Immutable; the generators are read-only.  ``psi_values`` supports
    derivative orders 0..3 in the evaluation variable (order 3 exists for the
    quadrature oracles; the public solution interface stops at 2).
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
        # The factors' finiteness checks are the contract for bad inputs (such
        # as an infinite k), so overflow warnings here carry no information.
        with np.errstate(invalid="ignore", over="ignore"):
            if self.k != 0.0:
                self.U += self.k / points.values[:, None] * quintic_derivative_weights(eta, 1)
            # C U^T and C^T U^T: every kernel matrix, the block solve and the
            # cell table read them.
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

    def cell_coefficients(self, gamma: np.ndarray) -> np.ndarray:
        """Coefficients of ``sum_i gamma_i psi_i`` on each cell, shape ``(n + 1, len(C))``.

        Between adjacent nodes the sum is one quintic in ``x - a``.  Row ``j``
        holds it on the cell after node ``j``: ``x_j <= x < x_{j+1}``, with
        ``x_0 = a`` and no right end for ``j = n``.  There the first ``j`` nodes
        use ``C`` and the rest ``C^T``, so row ``j`` is ``sum_{i <= j} gamma_i
        C U[i] + sum_{i > j} gamma_i C^T U[i]`` (nodes counted from 1).
        """
        gamma = np.asarray(gamma, dtype=float)
        out = np.zeros((len(self._left), len(gamma) + 1))
        np.cumsum(self._left * gamma, axis=1, out=out[:, 1:])
        out[:, :-1] += np.cumsum((self._right * gamma)[:, ::-1], axis=1)[:, ::-1]
        return out.T

    def _product(self, P: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``K x`` for ``K[i, j] = P[i] . C U[j]`` (``j <= i``), ``P[i] . C^T U[j]`` (``j > i``)."""
        return np.einsum("ip,ip->i", P, self.cell_coefficients(x)[1:])

    def psibar_values(self, x, order: int = 0) -> np.ndarray:
        """Values of the orthonormalized functions at ``x``: ``L^{-1} psi(x)``.

        One forward substitution with :attr:`gram_factor`, the points as its
        right-hand sides; the shape is that of :meth:`psi_values`.
        """
        psi = self.psi_values(x, order)
        return self.gram_factor.forward(psi.reshape(-1, self.n).T).T.reshape(psi.shape)

    @cached_property
    def gram_factor(self) -> "GramFactor":
        """``G = L L^T`` from the generators, in O(n) time and memory."""
        return GramFactor(self.U, self.kernel.C)

    def psibar_coefficients(self, gamma: np.ndarray) -> np.ndarray:
        """``A = L^{-1} (G gamma)``: ``sum_i gamma_i psi_i = sum_i A_i psibar_i``, in O(n)."""
        return self.gram_factor.forward(self._product(self.U, gamma))

    def forward_sweep(self, s: np.ndarray, f: Callable[[int, float], float]) -> np.ndarray:
        """``A`` with ``L A = (f(l, u_l))_l``, where ``u_l = s_l + sum_{i < l} A_i psibar_i(x_l)``.

        Row ``l`` needs ``f`` at the partial sum of the rows before it.  For
        ``i < l``, ``psibar_i(x_l) = M[l] . W[:, i]`` and ``L[l, i] = U[l] .
        W[:, i]``, so ``t = sum_i A_i W[:, i]`` over the blocks done carries
        both the partial sums and the substitution terms into a block; ``acc``
        gathers them within it, each sum starting from ``s_l``.
        """
        factor = self.gram_factor
        A, t = np.empty(self.n), np.zeros(len(factor.W))
        with np.errstate(invalid="ignore", over="ignore"):  # checked below
            for J, LJ in zip(factor.blocks, factor.diag):
                W, b = factor.W[:, J], len(LJ)
                acc = np.concatenate([self.M[J] @ t + s[J], self.U[J] @ t])
                shares = np.hstack([np.tril(self.M[J] @ W, -1).T, np.tril(LJ, -1).T])
                d = np.diag(LJ)
                for i, l in enumerate(range(J.start, J.stop)):
                    A[l] = a = (f(l, acc[i]) - acc[b + i]) / d[i]
                    acc += a * shares[i]  # node l's part of the later nodes' sums and terms
                t += W @ A[J]
        if not np.all(np.isfinite(A)):
            raise NumericError("forward sweep produced non-finite coefficients")
        return A

    def node_values(self, gamma: np.ndarray) -> np.ndarray:
        """``Psi gamma``, the values of ``sum_i gamma_i psi_i`` at the nodes, in O(n)."""
        return self._product(self.M, gamma)

    def solve_collocation(self, q: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``gamma`` with ``(G - diag(q) Psi) gamma = g``, without forming the matrix.

        With ``P = U - diag(q) M`` the matrix ``K`` has ``K[i, j] = P[i] . C
        U[j]`` for ``j <= i`` and ``P[i] . C^T U[j]`` for ``j > i``: it is
        quasiseparable of rank ``len(C)``, and :meth:`_block_lu_solve` factors it in
        O(n) time and memory.  That factor pivots only within its blocks, so
        the backward error ``|g - K gamma| / (max|K_ii| |gamma|)`` is measured
        with the same generators; above ``_REFINED`` it is brought down by up
        to ``_REFINE_STEPS`` steps of iterative refinement.  A system still
        above ``_SINGULAR`` is singular to working precision (cond(K) beyond
        about 1e16, where a growing mode outruns double precision) and raises
        ``NumericError``.
        """
        g = np.asarray(g, dtype=float)
        # Overflow (such as an infinite k or a huge q) shows as a non-finite block.
        with np.errstate(invalid="ignore", over="ignore"):
            P = self.U - np.asarray(q, dtype=float)[:, None] * self.M
            scale = np.max(np.abs(np.einsum("ip,pi->i", P, self._left)))  # max |K_ii|
            gamma = self._block_lu_solve(P, g)
            for _ in range(_REFINE_STEPS):
                residual = g - self._product(P, gamma)
                if np.max(np.abs(residual)) <= _REFINED * scale * np.max(np.abs(gamma)):
                    return gamma
                gamma = gamma + self._block_lu_solve(P, residual)
            residual = np.abs(g - self._product(P, gamma))
        error = np.max(residual) / (scale * np.max(np.abs(gamma)))
        if not error <= _SINGULAR:
            raise NumericError(
                "collocation system is singular to working precision: backward error "
                f"{error:.1e} after {_REFINE_STEPS} refinement steps, largest at node "
                f"{int(np.argmax(residual)) + 1}"
            )
        return gamma

    def _block_lu_solve(self, P: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``x`` with ``K x = g``, ``K`` as in :meth:`_product`.

        A block LU over :func:`_blocks` whose off-diagonal blocks are kept as
        one square state ``S``.  Block ``J`` forms only its diagonal block ``D_J
        = K_JJ - P_J S R_J^T``, with ``Q_J^T = (C U^T)[:, J]`` and ``R_J^T = (C^T
        U^T)[:, J]``, and solves it, pivoting within the block, for ``y_J = g_J - P_J z`` and
        ``E_J = P_J (I - S)`` at once.  With ``X_J^T = Q_J^T - S
        R_J^T`` the forward pass moves on by ``S += X_J^T D_J^{-1} E_J`` and ``z
        += X_J^T D_J^{-1} y_J``; the backward pass is ``x_J = D_J^{-1} (y_J - E_J
        w)``, ``w += R_J^T x_J``.
        """
        n, blocks = len(g), _blocks(len(g))
        lower = np.tri(_BLOCK, dtype=bool)
        S, z = np.zeros_like(self.kernel.C), np.zeros(len(self._left))
        Y, F = np.empty(n), np.empty((n, len(S)))  # D_J^{-1} y_J and D_J^{-1} E_J
        for J in blocks:
            PJ, RJt = P[J], self._right[:, J]
            Xt = self._left[:, J] - S @ RJt
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
        x, w = np.empty(n), np.zeros(len(S))
        for J in reversed(blocks):
            x[J] = Y[J] - F[J] @ w
            _require_finite(x[J], J)
            w += self._right[:, J] @ x[J]
        return x


class GramFactor:
    """``G = L L^T`` from the generators, kept as blocks ``L_J`` and ``W``.

    With ``W = C (L^{-1} U)^T`` (``len(C)`` x n), ``L[r, i] = U[r] . W[:, i]`` for all
    ``i < r``.  Block ``J`` of :func:`_blocks` factors ``G_JJ - U_J S U_J^T``,
    the lower triangle of ``U_J (C - S) U_J^T``, as ``L_J L_J^T``; then ``W_J
    = (C - S) U_J^T L_J^{-T}`` and ``S += W_J W_J^T``.  Substitutions carry
    one vector of ``len(C)`` between blocks, O(n * _BLOCK) each.
    """

    def __init__(self, U: np.ndarray, C: np.ndarray):
        self.U, self.blocks, self.diag = U, _blocks(len(U)), []
        self.W, S = np.empty((len(C), len(U))), np.zeros_like(C)
        for J in self.blocks:
            CS = C - S
            with np.errstate(invalid="ignore", over="ignore"):  # checked just below
                D = U[J] @ CS @ U[J].T  # np.linalg.cholesky reads the lower triangle
            _require_finite(D, J)
            self.diag.append(_cholesky(D))
            self.W[:, J] = np.linalg.solve(self.diag[-1], U[J] @ CS.T).T
            S += self.W[:, J] @ self.W[:, J].T

    def forward(self, f: np.ndarray) -> np.ndarray:
        """``y`` with ``L y = f``; ``f`` may hold one right-hand side per column."""
        y, t = np.empty(f.shape), np.zeros((len(self.W),) + f.shape[1:])
        for J, LJ in zip(self.blocks, self.diag):
            y[J] = np.linalg.solve(LJ, f[J] - self.U[J] @ t)
            t += self.W[:, J] @ y[J]
        return y

    def backward(self, y: np.ndarray) -> np.ndarray:
        """``x`` with ``L^T x = y``."""
        x, w = np.empty(len(y)), np.zeros(len(self.W))
        for J, LJ in zip(reversed(self.blocks), reversed(self.diag)):
            x[J] = np.linalg.solve(LJ.T, y[J] - w @ self.W[:, J])
            if J.start:  # nothing reads w after the first block
                w += x[J] @ self.U[J]
        return x


def _blocks(n: int) -> list[slice]:
    """Near-equal blocks of at most ``_BLOCK`` nodes (a short trailing block cost digits)."""
    edges = np.linspace(0, n, -(-n // _BLOCK) + 1).round().astype(int)
    return [slice(j0, j1) for j0, j1 in zip(edges[:-1], edges[1:])]


def _nodes(J: slice) -> str:
    return f"nodes {J.start + 1}..{J.stop}"


def _require_finite(values: np.ndarray, J: slice) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericError(f"collocation solve produced non-finite values at {_nodes(J)}")


def build_basis(kernel: W23Kernel, k: float, points: PointSet) -> CollocationBasis:
    """The collocation basis of ``kernel`` at ``points`` for the coefficient ``k``."""
    return CollocationBasis(kernel, k, points)
