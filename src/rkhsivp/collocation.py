"""Collocation points, operator-image basis and its orthonormalization.

For nodes ``x_1 < ... < x_n`` inside ``(a, T]`` the basis functions are the
operator images ``psi_i(x) = d2/dy2 R_x(y) + (k/x_i) d/dy R_x(y)`` at
``y = x_i``, where ``R`` is the piecewise-quintic kernel.  Writing the kernel
as ``R(x, y) = m(x - a) . C m(y - a)`` on ``y <= x`` (``C^T`` otherwise) and
letting ``U[i]`` be the operator applied to the monomials ``m(y - a)`` at
``y = x_i``, every quantity is a matrix product:

    psi_i(x) = m(x - a) . C U[i]          (x_i <= x; C^T otherwise)
    G[i, j]  = U[j] . C U[i]              (x_i <= x_j)

so the Gram matrix is the mirrored lower triangle of ``U C U^T`` and the
basis values at many points are one product each.  No quadrature and no
finite differences enter; the quadrature inner product exists only as an
independent oracle in the tests.

The basis keeps the Cholesky factor ``G = L L^T`` and never inverts it: the
orthonormal system is ``psibar = L^{-1} psi`` (the classical Gram-Schmidt
recurrence, but stable at the node counts the benchmark tables need), and
each product with ``L^{-1}`` the solvers need is a triangular solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DomainError, NumericError
from .kernel_space import Interval, W23Kernel, quintic_derivative_weights

__all__ = [
    "PointSet",
    "CollocationBasis",
    "uniform_points",
    "gram_matrix",
    "orthonormalize",
    "build_basis",
]


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

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


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


def _operator_rows(points: np.ndarray, k: float, a: float) -> np.ndarray:
    """``U[i] = (d2/dy2 + (k/x_i) d/dy) m(y - a)`` at ``y = x_i``, shape (n, 6)."""
    eta = points - a
    k_over_x = (k / points)[:, None]
    return quintic_derivative_weights(eta, 2) + k_over_x * quintic_derivative_weights(eta, 1)


def gram_matrix(kernel: W23Kernel, k: float, points: PointSet) -> np.ndarray:
    """Pairwise inner products of the basis functions.

    For ``x_i <= x_j``, ``G[i, j] = U[j] . C U[i]``: the lower triangle of
    ``U C U^T``, which is mirrored onto the upper one.
    """
    _require_inside(points, kernel.interval)
    # The finiteness check below is the contract for bad inputs (such as an
    # infinite k), so intermediate overflow warnings carry no information.
    with np.errstate(invalid="ignore", over="ignore"):
        U = _operator_rows(points.values, k, kernel.interval.a)
        G = U @ (kernel.C @ U.T)
    for i in range(G.shape[0] - 1):
        G[i, i + 1 :] = G[i + 1 :, i]
    if not np.all(np.isfinite(G)):
        i, j = np.argwhere(~np.isfinite(G))[0]
        raise NumericError(f"non-finite Gram entry at ({int(i) + 1}, {int(j) + 1})")
    return G


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
    return solve_triangular(_cholesky(gram), np.eye(len(gram)), lower=True)


class CollocationBasis:
    """Kernel, nodes, Gram matrix and its Cholesky factor.

    Immutable after construction; all returned arrays are read-only views of
    internal state.  ``psi_values`` supports derivative orders 0..3 in the
    evaluation variable (order 3 exists for the quadrature oracles; the
    public solution interface stops at 2).
    """

    def __init__(
        self,
        kernel: W23Kernel,
        k: float,
        points: PointSet,
        gram: np.ndarray,
        chol: np.ndarray,
    ):
        self.kernel = kernel
        self.k = float(k)
        self.points = points
        gram = np.asarray(gram, dtype=float).copy()
        chol = np.asarray(chol, dtype=float).copy()
        gram.setflags(write=False)
        chol.setflags(write=False)
        self.gram = gram
        self.chol = chol
        U = _operator_rows(points.values, self.k, kernel.interval.a)
        # psi_i(x) = m(x - a) . left[:, i] when x_i <= x, else . right[:, i].
        self._left = kernel.C @ U.T
        self._right = kernel.C.T @ U.T
        self._left.setflags(write=False)
        self._right.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.points)

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
        mx = quintic_derivative_weights(x - interval.a, order)
        out = mx @ self._left
        np.copyto(out, mx @ self._right, where=self.points.values > x[..., None])
        return out

    @cached_property
    def beta(self) -> np.ndarray:
        """``L^{-1}``, so that ``psibar = beta psi``; built only on request."""
        out = solve_triangular(self.chol, np.eye(self.n), lower=True)
        out.setflags(write=False)
        return out

    def psibar_values(self, x, order: int = 0) -> np.ndarray:
        """Values of the orthonormalized functions at ``x``."""
        return self.psi_values(x, order) @ self.beta.T

    @cached_property
    def node_psi_matrix(self) -> np.ndarray:
        """``Psi[j, i] = psi_i(x_j)``."""
        out = self.psi_values(self.points.values)
        out.setflags(write=False)
        return out

    @cached_property
    def node_psibar_matrix(self) -> np.ndarray:
        """``S[j, i] = psibar_i(x_j)``, i.e. ``S = Psi L^{-T}``."""
        out = solve_triangular(self.chol, self.node_psi_matrix.T, lower=True).T
        out.setflags(write=False)
        return out


def build_basis(kernel: W23Kernel, k: float, points: PointSet) -> CollocationBasis:
    """Assemble the Gram matrix for the given nodes and factor it."""
    gram = gram_matrix(kernel, k, points)
    return CollocationBasis(kernel, k, points, gram, _cholesky(gram))
