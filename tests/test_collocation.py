"""Collocation points, operator-image basis, Gram matrix, orthonormalization.

The Gram assembly and the triangular orthonormalization each get an
independent oracle: adaptive quadrature of the defining inner products for
the former, the classical Gram-Schmidt recurrence for the latter.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from rkhsivp import (
    DomainError,
    Interval,
    NumericError,
    SingularityError,
    build_basis,
    build_w23_kernel,
    eval_kernel,
    gram_matrix,
    orthonormalize,
    uniform_points,
    w23_inner_product,
)
from rkhsivp.collocation import PointSet, solve_lower


def beta_by_recurrence(gram):
    """Classical Gram-Schmidt normal equations, solved row by row.

    With c_im = <psi_i, psibar_m> = sum_l beta_ml G_il and
    d_i = sqrt(G_ii - sum_m c_im^2), row i of beta is
    (e_i - sum_m c_im beta_m) / d_i.  Numerically fragile beyond small n,
    which is exactly why it serves as an independent oracle here.
    """
    n = gram.shape[0]
    beta = np.zeros((n, n))
    for i in range(n):
        c = np.array([beta[m] @ gram[i] for m in range(i)])
        d2 = gram[i, i] - float(c @ c) if i else gram[0, 0]
        if d2 <= 0:
            raise ValueError("lost positive definiteness")
        d = math.sqrt(d2)
        row = np.zeros(n)
        row[i] = 1.0
        for m in range(i):
            row -= c[m] * beta[m]
        beta[i] = row / d
    return beta


class TestUniformPoints:
    def test_quarters(self, unit_interval):
        pts = uniform_points(unit_interval, 4)
        assert np.allclose(pts.values, [0.25, 0.5, 0.75, 1.0])

    def test_excludes_left_endpoint(self, unit_interval):
        pts = uniform_points(unit_interval, 100)
        assert pts.values[0] == pytest.approx(0.01, abs=1e-15)
        assert pts.values[-1] == 1.0
        assert pts.values[0] > 0.0

    def test_shifted_interval(self):
        pts = uniform_points(Interval(1.0, 2.0), 2)
        assert np.allclose(pts.values, [1.5, 2.0])

    def test_rejects_nonpositive_n(self, unit_interval):
        with pytest.raises(ValueError, match="n must be >= 1"):
            uniform_points(unit_interval, 0)

    def test_single_point(self, unit_interval):
        assert uniform_points(unit_interval, 1).values.tolist() == [1.0]

    def test_last_node_is_right_endpoint(self):
        # a + n (T - a) / n rounds above T = 0.7 for most n on [-2, 0.7].
        interval = Interval(-2.0, 0.7)
        for n in range(1, 2001):
            assert uniform_points(interval, n).values[-1] == 0.7


class TestPointSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            PointSet([0.5, 0.25])
        with pytest.raises(ValueError):
            PointSet([0.5, 0.5])
        with pytest.raises(ValueError):
            PointSet([])
        with pytest.raises(ValueError):
            PointSet([0.1, math.nan])

    def test_container_protocol(self):
        pts = PointSet([0.2, 0.4, 0.9])
        assert len(pts) == 3

    def test_read_only(self):
        pts = PointSet([0.2, 0.4])
        with pytest.raises(ValueError):
            pts.values[0] = 0.0


class TestPsiEval:
    """``CollocationBasis.psi_values`` against the kernel it is built from."""

    def test_pinned_value(self, kernel01):
        # Hand-derived from the closed form on the upper branch at
        # x=0.25, x_i=0.5, k=2: d2 = (20x^3+60x^2)/120 and
        # d1 = (-5x^4+20yx^3+60yx^2)/120 at y=x_i.
        basis = build_basis(kernel01, 2.0, PointSet([0.5]))
        assert basis.psi_values(0.25)[0] == pytest.approx(0.1009114583333333, abs=1e-10)

    def test_matches_kernel_derivatives(self, kernel01, rng):
        k = 2.0
        nodes = np.sort(rng.uniform(0.05, 1.0, 10))
        basis = build_basis(kernel01, k, PointSet(nodes))
        for x in rng.uniform(0.0, 1.0, 10):
            got = basis.psi_values(float(x))
            for i, x_i in enumerate(map(float, nodes)):
                direct = eval_kernel(kernel01, x, x_i, 2) + (k / x_i) * eval_kernel(
                    kernel01, x, x_i, 1
                )
                assert got[i] == pytest.approx(direct, rel=1e-13)

    def test_vanishes_at_origin_section(self, kernel01):
        basis = build_basis(kernel01, 2.0, PointSet([0.1, 0.5, 1.0]))
        assert np.all(np.abs(basis.psi_values(0.0)) <= 1e-12)

    def test_node_at_singularity_rejected(self, kernel01):
        with pytest.raises(DomainError, match="collocation nodes"):
            build_basis(kernel01, 2.0, PointSet([0.0, 0.5]))
        with pytest.raises(DomainError, match="collocation nodes"):
            build_basis(kernel01, 2.0, PointSet([-0.1, 0.5]))

    def test_interior_node_at_origin(self):
        # On [-2, 0.7] with n = 27 node 20 is x = 0, where k/x has its pole.
        interval = Interval(-2.0, 0.7)
        pts = uniform_points(interval, 27)
        assert pts.values[19] == 0.0
        kernel = build_w23_kernel(interval)
        with pytest.raises(SingularityError, match="collocation node 20 is x = 0"):
            build_basis(kernel, 2.0, pts)
        # Without the singular coefficient the node is an ordinary one.
        gram = build_basis(kernel, 0.0, pts).gram
        assert np.all(np.isfinite(gram))

    def test_reduces_to_second_derivative_for_k_zero(self, kernel01):
        x_i, x = 0.4, 0.7
        basis = build_basis(kernel01, 0.0, PointSet([x_i]))
        assert basis.psi_values(x)[0] == pytest.approx(
            eval_kernel(kernel01, x, x_i, 2), rel=1e-14
        )


class TestGramMatrix:
    def test_single_point_is_positive_norm(self, kernel01, unit_interval):
        gram = gram_matrix(kernel01, 2.0, uniform_points(unit_interval, 1))
        assert gram.shape == (1, 1)
        assert gram[0, 0] > 0.0

    def test_symmetric(self, kernel01, unit_interval):
        gram = gram_matrix(kernel01, 2.0, uniform_points(unit_interval, 10))
        assert np.max(np.abs(gram - gram.T)) <= 1e-9 * np.max(np.abs(gram))

    def test_against_quadrature(self, kernel01, unit_interval):
        k = 2.0
        pts = uniform_points(unit_interval, 5)
        basis = build_basis(kernel01, k, pts)
        gram = basis.gram
        nodes = tuple(float(x) for x in pts.values)

        def psi(i):
            def f(y, order=0):
                return float(basis.psi_values(y, order)[i])

            return f

        for i in range(5):
            for j in range(i, 5):
                by_quad = w23_inner_product(
                    psi(i), psi(j), unit_interval, breakpoints=nodes
                )
                assert gram[i, j] == pytest.approx(by_quad, abs=1e-6)

    def test_adjoint_identity(self, kernel01, unit_interval):
        # <u, psi_i> recovers u'' + (k/x_i) u' at the node for u in the space.
        k = 2.0
        pts = uniform_points(unit_interval, 4)
        basis = build_basis(kernel01, k, pts)
        u = lambda y, m=0: (y**3, 3 * y**2, 6 * y, 6.0)[m]
        nodes = tuple(float(x) for x in pts.values)
        for i, x_i in enumerate(nodes):
            def psi(y, order=0):
                return float(basis.psi_values(y, order)[i])

            got = w23_inner_product(u, psi, unit_interval, breakpoints=nodes)
            want = 6 * x_i + (k / x_i) * 3 * x_i**2
            assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("a, T", [(0.5, 3.0), (1.0, 11.0)])
    def test_against_quadrature_on_shifted_intervals(self, a, T):
        interval = Interval(a, T)
        k = 2.0
        pts = uniform_points(interval, 4)
        kernel = build_w23_kernel(interval)
        gram = gram_matrix(kernel, k, pts)
        basis = build_basis(kernel, k, pts)
        nodes = tuple(float(x) for x in pts.values)

        def psi(i):
            return lambda y, order=0: float(basis.psi_values(y, order)[i])

        scale = np.max(np.abs(gram))
        for i in range(4):
            for j in range(4):
                by_quad = w23_inner_product(psi(i), psi(j), interval, breakpoints=nodes)
                assert abs(gram[i, j] - by_quad) <= 1e-11 * scale

    def test_nonfinite_entries_reported(self, kernel01, unit_interval):
        with pytest.raises(NumericError, match="Gram"):
            gram_matrix(kernel01, math.inf, uniform_points(unit_interval, 3))


class TestOrthonormalize:
    def test_identity(self):
        beta = orthonormalize(np.eye(4))
        assert np.allclose(beta, np.eye(4))

    def test_two_by_two_pinned(self):
        beta = orthonormalize(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[0.5, 0.0], [-0.3535533905932738, 0.7071067811865476]])
        assert np.allclose(beta, expected, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NumericError):
            orthonormalize(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_lower_triangular_positive_diagonal(self, basis100):
        beta = basis100.beta
        assert np.allclose(beta, np.tril(beta))
        assert np.all(np.diag(beta) > 0.0)

    def test_whitens_gram(self, basis100):
        n = basis100.n
        err = np.max(np.abs(basis100.beta @ basis100.gram @ basis100.beta.T - np.eye(n)))
        assert err <= 1e-8

    def test_matches_recurrence_for_small_n(self, kernel01, unit_interval):
        for n in (2, 4, 6):
            gram = gram_matrix(kernel01, 2.0, uniform_points(unit_interval, n))
            fast = orthonormalize(gram)
            slow = beta_by_recurrence(gram)
            assert np.max(np.abs(fast - slow)) <= 1e-8


class TestSolveLower:
    """Blocked substitution against scipy's triangular solver as the oracle."""

    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 1600])
    def test_matches_solve_triangular(self, n, trans, rng):
        # A well-conditioned factor: Cholesky of X X^T / n + I.
        X = rng.standard_normal((n, n))
        L = np.linalg.cholesky(X @ X.T / n + np.eye(n))
        for B in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            before = B.copy()
            got = solve_lower(L, B, trans=trans)
            want = solve_triangular(L, B, lower=True, trans="T" if trans else "N")
            assert got.shape == B.shape
            assert np.array_equal(B, before)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("trans", [False, True])
    def test_gram_factor(self, trans, kernel01, unit_interval):
        # The factor the solvers use: cond(L) ~ 1e3 here, and its
        # off-diagonal entries exceed the diagonal, so the block solves pivot.
        basis = build_basis(kernel01, 2.0, uniform_points(unit_interval, 200))
        L = basis.chol
        for B in (basis.node_psi_matrix[7], basis.node_psi_matrix.T):
            got = solve_lower(L, B, trans=trans)
            want = solve_triangular(L, B, lower=True, trans="T" if trans else "N")
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_inverse_is_exactly_lower_triangular(self, kernel01, unit_interval):
        gram = gram_matrix(kernel01, 2.0, uniform_points(unit_interval, 150))
        beta = orthonormalize(gram)
        assert np.array_equal(beta, np.tril(beta))


class TestCollocationMatrix:
    """``collocation_matrix`` against ``G - diag(q) Psi`` assembled densely."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        k=st.floats(0.0, 10.0),
        a=st.floats(0.0, 3.0),
        length=st.floats(0.5, 10.0),
        n=st.integers(1, 300),
        q_scale=st.sampled_from([0.0, 1e-3, 1.0, 1e2, 1e4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_gram_minus_q_psi(self, k, a, length, n, q_scale, seed):
        interval = Interval(a, a + length)
        basis = build_basis(build_w23_kernel(interval), k, uniform_points(interval, n))
        q = q_scale * np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        U, C, M = basis.U, basis.kernel.C, basis.M
        # G as the lower triangle of U C U^T, mirrored; Psi by its two branches.
        G = np.tril(U @ C @ U.T)
        G = G + np.tril(G, -1).T
        Psi = np.tril(M @ C @ U.T) + np.triu(M @ C.T @ U.T, 1)
        want = G - q[:, None] * Psi
        got = basis.collocation_matrix(q)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestCollocationBasis:
    def test_shapes_and_immutability(self, basis100):
        n = basis100.n
        assert basis100.gram.shape == (n, n)
        assert basis100.beta.shape == (n, n)
        with pytest.raises(ValueError):
            basis100.gram[0, 0] = 0.0
        with pytest.raises(ValueError):
            basis100.beta[0, 0] = 0.0

    def test_psibar_is_beta_times_psi(self, kernel01, unit_interval):
        basis = build_basis(kernel01, 2.0, uniform_points(unit_interval, 8))
        for x in (0.15, 0.6, 1.0):
            direct = basis.beta @ basis.psi_values(x)
            assert np.allclose(basis.psibar_values(x), direct, atol=1e-13)

    def test_node_matrices(self, kernel01, unit_interval):
        pts = uniform_points(unit_interval, 6)
        basis = build_basis(kernel01, 2.0, pts)
        psi_mat = basis.node_psi_matrix
        for j, xj in enumerate(pts.values):
            assert np.allclose(psi_mat[j], basis.psi_values(float(xj)), atol=1e-13)

    @pytest.mark.parametrize("a, T", [(0.0, 1.0), (0.5, 3.0), (1.0, 11.0)])
    def test_array_points_match_scalar_path(self, a, T, rng):
        interval = Interval(a, T)
        pts = uniform_points(interval, 30)
        basis = build_basis(build_w23_kernel(interval), 2.0, pts)
        xs = np.concatenate([rng.uniform(a, T, 40), pts.values, [a, T]])
        for order in range(4):
            by_array = basis.psi_values(xs, order)
            by_point = np.array([basis.psi_values(float(x), order) for x in xs])
            assert by_array.shape == (xs.size, pts.values.size)
            scale = np.max(np.abs(by_point))
            assert np.max(np.abs(by_array - by_point)) <= 1e-14 * scale

    def test_orthonormality_by_quadrature(self, kernel01, unit_interval):
        pts = uniform_points(unit_interval, 5)
        basis = build_basis(kernel01, 2.0, pts)
        nodes = tuple(float(x) for x in pts.values)

        def psibar(i):
            def f(y, order=0):
                return float(basis.psibar_values(y, order)[i])

            return f

        for i in range(5):
            for j in range(i, 5):
                ip = w23_inner_product(
                    psibar(i), psibar(j), unit_interval, breakpoints=nodes
                )
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-5)

    def test_order_validation(self, basis100):
        with pytest.raises(ValueError):
            basis100.psi_values(0.5, order=4)
        with pytest.raises(DomainError):
            basis100.psi_values(1.5)
