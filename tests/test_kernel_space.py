"""Kernel construction checked against independent closed forms.

The kernel on [0,1] has a known closed form on the lower branch,
R_x(y) = (y^5 - 5xy^4 + 10x^2y^3 + 30x^2y^2)/120 for y <= x, with the
upper branch following from symmetry.  Everything here is measured
against that, against hand derivatives of it, against quadrature, or, on
shifted and stretched intervals, against the twelve defining conditions
solved as a linear system inside the test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkhsivp import (
    DomainError,
    Interval,
    build_w23_kernel,
    eval_kernel,
    kernel_section,
    w23_inner_product,
)
from rkhsivp.kernel_space import quintic_derivative_weights


def closed_form(x, y):
    if y > x:
        x, y = y, x
    return (y**5 - 5 * x * y**4 + 10 * x**2 * y**3 + 30 * x**2 * y**2) / 120.0


class TestInterval:
    def test_orders_endpoints(self):
        iv = Interval(0.25, 2.0)
        assert iv.a == 0.25 and iv.T == 2.0 and iv.length == 1.75

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_contains_and_require(self):
        iv = Interval(0.0, 1.0)
        assert iv.contains(0.0) and iv.contains(1.0) and iv.contains(0.5)
        assert not iv.contains(-1e-12) and not iv.contains(1.0 + 1e-12)
        with pytest.raises(DomainError):
            iv.require(1.5, "probe point")


class TestQuinticWeights:
    def test_matches_monomial_derivatives(self):
        y = 0.7
        for order in range(6):
            w = quintic_derivative_weights(y, order)
            for j in range(6):
                coeff = 1.0
                for r in range(order):
                    coeff *= j - r
                expected = coeff * y ** (j - order) if j >= order else 0.0
                assert w[j] == pytest.approx(expected, rel=1e-14)

    def test_zeroth_order_is_powers(self):
        w = quintic_derivative_weights(2.0, 0)
        assert np.allclose(w, [1, 2, 4, 8, 16, 32])


class TestClosedFormAgreement:
    def test_pinned_point(self, kernel01):
        # (x, y) = (0.5, 0.25) sits on the lower branch; the mirrored pair
        # must give the same value by symmetry.
        assert eval_kernel(kernel01, 0.5, 0.25) == pytest.approx(
            0.0041585286458333, abs=1e-13
        )
        assert eval_kernel(kernel01, 0.25, 0.5) == pytest.approx(
            0.0041585286458333, abs=1e-13
        )

    def test_vanishes_at_left_endpoint(self, kernel01):
        for x in (0.1, 0.37, 0.5, 0.99, 1.0):
            assert abs(eval_kernel(kernel01, x, 0.0)) <= 1e-15

    def test_grid_agreement(self, kernel01):
        xs = np.linspace(0.02, 1.0, 40)
        worst = max(
            abs(eval_kernel(kernel01, x, y) - closed_form(x, y))
            for x in xs
            for y in xs
        )
        assert worst <= 1e-10

    def test_second_derivative_pinned(self, kernel01):
        # Upper branch (y > x): d2R/dy2 = (20x^3 + 60x^2)/120, constant in y.
        x = 0.25
        expected = (20 * x**3 + 60 * x**2) / 120.0
        assert eval_kernel(kernel01, x, 0.5, 2) == pytest.approx(expected, abs=1e-12)
        assert eval_kernel(kernel01, x, 0.9, 2) == pytest.approx(expected, abs=1e-12)


class TestSymmetry:
    def test_dense_grid(self, kernel01):
        xs = np.linspace(0.02, 1.0, 50)
        worst = max(
            abs(eval_kernel(kernel01, x, y) - eval_kernel(kernel01, y, x))
            for x in xs
            for y in xs
        )
        assert worst <= 1e-10

    def test_other_interval(self):
        kernel = build_w23_kernel(Interval(1.0, 2.0))
        xs = np.linspace(1.05, 2.0, 12)
        worst = max(
            abs(eval_kernel(kernel, x, y) - eval_kernel(kernel, y, x))
            for x in xs
            for y in xs
        )
        assert worst <= 1e-12


class TestConstructionConditions:
    def conditions(self, kernel, x):
        """All twelve defining residuals for the section at x."""
        a, T = kernel.interval.a, kernel.interval.T
        left = lambda y, m: eval_kernel(kernel, x, y, m, branch="left")
        right = lambda y, m: eval_kernel(kernel, x, y, m, branch="right")
        out = [
            left(a, 0),
            left(a, 1),
            left(a, 2) - left(a, 3),
            right(T, 3),
            right(T, 4),
            right(T, 5),
        ]
        for m in range(5):
            out.append(left(x, m) - right(x, m))
        out.append(left(x, 5) - right(x, 5) - 1.0)
        return out

    def test_random_sections(self, kernel01, rng):
        worst = 0.0
        for x in rng.uniform(0.01, 0.99, size=20):
            worst = max(worst, max(abs(c) for c in self.conditions(kernel01, float(x))))
        assert worst <= 1e-9

    def test_jump_orientation(self, kernel01):
        x = 0.4
        lo = eval_kernel(kernel01, x, x, 5, branch="left")
        hi = eval_kernel(kernel01, x, x, 5, branch="right")
        assert lo - hi == pytest.approx(1.0, abs=1e-10)

    def test_value_continuity_at_seam(self, kernel01):
        x = 0.62
        lo = eval_kernel(kernel01, x, x, 0, branch="left")
        hi = eval_kernel(kernel01, x, x, 0, branch="right")
        assert lo == pytest.approx(hi, abs=1e-14)


def monomial_row(z, order):
    """d^order/dz^order of (1, z, ..., z^5), written out independently."""
    row = np.zeros(6)
    for j in range(order, 6):
        row[j] = math.perm(j, order) * z ** (j - order)
    return row


def condition_system_coefficients(xi, length):
    """Section coefficients at base point a + xi from the defining conditions.

    Unknowns are the left (y <= x) and right (y > x) quintic blocks in
    powers of eta = y - a.  Rows: value, slope, and the second derivative
    over T - a minus the third vanish at eta = 0 on the left block; orders
    3..5 vanish at eta = T - a on the right block; orders 0..4 are continuous
    at the seam and the fifth derivative drops by one across it.
    """
    A = np.zeros((12, 12))
    A[0, :6] = monomial_row(0.0, 0)
    A[1, :6] = monomial_row(0.0, 1)
    A[2, :6] = monomial_row(0.0, 2) / length - monomial_row(0.0, 3)
    for r, order in enumerate((3, 4, 5)):
        A[3 + r, 6:] = monomial_row(length, order)
    for order in range(6):
        A[6 + order, :6] = monomial_row(xi, order)
        A[6 + order, 6:] = -monomial_row(xi, order)
    rhs = np.zeros(12)
    rhs[11] = 1.0
    return np.linalg.solve(A, rhs)


class TestClosedFormProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        a=st.floats(-3.0, 3.0),
        length=st.floats(0.5, 10.0),
        fx=st.floats(0.0, 1.0),
        fy=st.floats(0.0, 1.0),
    )
    def test_matches_condition_system_and_is_symmetric(self, a, length, fx, fy):
        kernel = build_w23_kernel(Interval(a, a + length))
        T = kernel.interval.T
        x = min(a + fx * length, T)
        y = min(a + fy * length, T)
        want = condition_system_coefficients(x - a, T - a)
        got = kernel.coefficient_derivatives(x)[0]
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        rxy = eval_kernel(kernel, x, y)
        assert abs(rxy - eval_kernel(kernel, y, x)) <= 1e-14 * max(1.0, abs(rxy))


class TestReproducingProperty:
    CASES = (
        (
            lambda y, m: (y**2, 2 * y, 2.0, 0.0)[m],
            lambda x: x**2,
        ),
        (
            lambda y, m: (y**3, 3 * y**2, 6 * y, 6.0)[m],
            lambda x: x**3,
        ),
        (
            lambda y, m: (
                y**2 * math.exp(y),
                (y**2 + 2 * y) * math.exp(y),
                (y**2 + 4 * y + 2) * math.exp(y),
                (y**2 + 6 * y + 6) * math.exp(y),
            )[m],
            lambda x: x**2 * math.exp(x),
        ),
    )

    def test_inner_product_evaluates(self, kernel01, unit_interval):
        xs = np.linspace(0.05, 1.0, 20)
        for u, u0 in self.CASES:
            for x in xs:
                x = float(x)
                section = kernel_section(kernel01, x)
                got = w23_inner_product(
                    u, section, unit_interval, breakpoints=(x,)
                )
                assert got == pytest.approx(u0(x), abs=1e-8)

    def test_kernel_section_pair(self, kernel01, unit_interval):
        # The inner product of two sections is itself a kernel value.
        x, z = 0.3, 0.8
        got = w23_inner_product(
            kernel_section(kernel01, x),
            kernel_section(kernel01, z),
            unit_interval,
            breakpoints=(x, z),
        )
        assert got == pytest.approx(eval_kernel(kernel01, x, z), abs=1e-10)


class TestInnerProduct:
    def test_zero(self, unit_interval):
        zero = lambda y, m: 0.0
        assert w23_inner_product(zero, zero, unit_interval) == 0.0

    def test_low_degree_orthogonality(self, unit_interval):
        u = lambda y, m: (y**2, 2 * y, 2.0, 0.0)[m]
        v = lambda y, m: (y**3, 3 * y**2, 6 * y, 6.0)[m]
        assert w23_inner_product(u, v, unit_interval) == pytest.approx(0.0, abs=1e-12)

    def test_cubic_norm(self, unit_interval):
        v = lambda y, m: (y**3, 3 * y**2, 6 * y, 6.0)[m]
        assert w23_inner_product(v, v, unit_interval) == pytest.approx(36.0, abs=1e-9)


class TestEvalKernelContract:
    def test_argument_validation(self, kernel01):
        with pytest.raises(DomainError):
            eval_kernel(kernel01, 1.5, 0.5)
        with pytest.raises(DomainError):
            eval_kernel(kernel01, 0.5, -0.1)
        with pytest.raises(ValueError):
            eval_kernel(kernel01, 0.5, 0.5, 6)
        with pytest.raises(ValueError):
            eval_kernel(kernel01, 0.5, 0.5, 0, branch="middle")

    def test_coefficients_are_cached_and_frozen(self, kernel01):
        first = kernel01.coefficient_derivatives(0.413)
        second = kernel01.coefficient_derivatives(0.413)
        assert first.shape == (4, 12)
        assert first.tobytes() == second.tobytes()
        for rows in (first, second):
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0

    def test_derivative_rows_match_finite_differences(self, kernel01):
        x, h = 0.43, 1e-3
        rows = kernel01.coefficient_derivatives(x)

        def c(z):
            return kernel01.coefficient_derivatives(z)[0]

        fd1 = (c(x + h) - c(x - h)) / (2 * h)
        fd2 = (c(x + h) - 2 * c(x) + c(x - h)) / h**2
        fd3 = (
            c(x + 2 * h) - 2 * c(x + h) + 2 * c(x - h) - c(x - 2 * h)
        ) / (2 * h**3)
        assert np.max(np.abs(rows[1] - fd1)) <= 1e-5
        assert np.max(np.abs(rows[2] - fd2)) <= 1e-4
        assert np.max(np.abs(rows[3] - fd3)) <= 1e-3
