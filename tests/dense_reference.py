"""Dense references for the solves that work from the basis generators.

The package never forms these n x n matrices on a solve; the tests build
them here to check the O(n) solves and the blocked factor against plain
dense linear algebra.
"""

import numpy as np

from rkhsivp import gram_matrix


def dense_gram(basis):
    """``G[i, j] = <psi_i, psi_j>`` by :func:`gram_matrix` at the basis's nodes."""
    return gram_matrix(basis.kernel, basis.k, basis.points)


def node_psi_matrix(basis):
    """``Psi[j, i] = psi_i(x_j)``."""
    return basis.psi_values(basis.points.values)


def collocation_matrix(basis, q):
    """``K = G - diag(q) Psi``, built from the rows ``U - diag(q) M``.

    These are the rows that ``solve_collocation`` factors.
    """
    rows = basis.U - np.asarray(q, dtype=float)[:, None] * basis.M
    with np.errstate(invalid="ignore", over="ignore"):
        return basis._kernel_rows(rows, basis.points.values)


def cholesky_factor(basis):
    """``L`` with ``G = L L^T``, by ``np.linalg.cholesky`` of the dense Gram matrix."""
    return np.linalg.cholesky(dense_gram(basis))
