"""Reproducing kernel of the Sobolev-type space behind the collocation solver.

The working space ``W23`` on an interval ``[a, T]`` of length ``L = T - a``
consists of functions with absolutely continuous second derivative, third
derivative in ``L2``, and ``u(a) = u'(a) = 0``; its inner product is

    <u, v> = u''(a) v''(a) / L + integral_a^T u'''(s) v'''(s) ds,

which is ``L^-5`` times the unit interval's under ``x = a + L z``, so the
method keeps its order on long intervals.  Its reproducing kernel has a
closed form.  With ``s`` and ``t`` the larger and smaller of ``x - a`` and
``y - a``,

    R(x, y) = (t^5 - 5 s t^4 + 10 s^2 t^3 + 30 L s^2 t^2) / 120,

a piecewise quintic with a seam at ``y = x``.  In the monomials ``m(z) = (1,
z, ..., z^5)`` this reads ``R(x, y) = m(x - a) . C m(y - a)`` on the branch
``y <= x`` and ``m(x - a) . C^T m(y - a)`` on ``y > x``, for one 6x6 matrix
``C`` per interval length.  Every kernel quantity the solver needs (sections, their
derivatives in either slot, operator images at the nodes) is therefore a
product with ``C`` or ``C^T``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError, ToleranceError

__all__ = [
    "Interval",
    "W23Kernel",
    "build_w23_kernel",
    "eval_kernel",
    "w23_inner_product",
    "kernel_section",
    "quintic_derivative_weights",
]

# FALL[m][j] = j (j-1) ... (j-m+1), the falling factorial entering the m-th
# derivative of y^j.
_FALL = np.array([[math.perm(j, m) for j in range(6)] for m in range(6)], dtype=float)

_POWERS = np.arange(6)
# Absolute tolerance of the quadrature in w23_inner_product.
_QUAD_TOL = 1e-12


@dataclass(frozen=True)
class Interval:
    """Closed interval ``[a, T]`` with ``a < T``, both finite."""

    a: float
    T: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "T", float(self.T))
        if not (math.isfinite(self.a) and math.isfinite(self.T)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.T:
            raise ValueError(f"interval requires a < T, got [{self.a}, {self.T}]")

    @property
    def length(self) -> float:
        return self.T - self.a

    def contains(self, x: float) -> bool:
        return self.a <= x <= self.T

    def require(self, x, what: str = "point") -> None:
        """Raise ``DomainError`` unless ``x`` (a number or an array) lies inside."""
        if isinstance(x, (float, np.floating)) and self.a <= x <= self.T:
            return  # the per-point evaluation path; NaN falls through
        x = np.asarray(x, dtype=float)
        outside = ~((self.a <= x) & (x <= self.T))
        if outside.any():
            raise DomainError(f"{what} {x[outside].flat[0]} outside [{self.a}, {self.T}]")


def quintic_derivative_weights(y, order: int) -> np.ndarray:
    """Weights of the ``order``-th derivative of ``sum_j c_j y^j`` (j = 0..5).

    Returns ``w`` with ``w[..., j] = fall(j, order) * y**(j-order)``, so that
    ``w @ c`` is the derivative value; an array ``y`` gains a trailing axis.
    """
    y = np.asarray(y, dtype=float)[..., None]
    return _FALL[order] * y ** np.maximum(_POWERS - order, 0)


def _closed_form_matrix(length: float) -> np.ndarray:
    """The unit interval's ``C`` scaled to ``length``: ``C[p, q] length^(5 - p - q)``."""
    C = np.zeros((6, 6))
    C[2, 2] = 30.0 / 120.0
    C[2, 3] = 10.0 / 120.0
    C[1, 4] = -5.0 / 120.0
    C[0, 5] = 1.0 / 120.0
    p, q = np.nonzero(C)
    C[p, q] *= length ** (5 - p - q)
    C.setflags(write=False)
    return C


@dataclass(frozen=True)
class W23Kernel:
    """Reproducing kernel of the third-order space on an interval.

    ``C[p, q]`` is the coefficient of ``(x - a)^p (y - a)^q`` in ``R(x, y)``
    on the branch ``y <= x``; the branch ``y > x`` uses ``C.T``.
    """

    interval: Interval

    @cached_property
    def C(self) -> np.ndarray:
        return _closed_form_matrix(self.interval.length)

    def coefficient_derivatives(self, x: float) -> np.ndarray:
        """Section coefficients ``c = [left (y <= x), right (y > x)]`` and their
        first three x-derivatives, shape (4, 12).

        Row ``r`` holds ``d^r c / dx^r``; each block of six multiplies the
        powers ``(y - a)^0 .. (y - a)^5``.  The result is a fresh read-only
        array, bit-identical across calls with the same ``x``.
        """
        self.interval.require(x, "base point")
        rows = np.stack(
            [quintic_derivative_weights(x - self.interval.a, r) for r in range(4)]
        )
        out = np.hstack([rows @ self.C, rows @ self.C.T])
        out.setflags(write=False)
        return out


def build_w23_kernel(interval: Interval) -> W23Kernel:
    """Construct the piecewise-quintic kernel for ``interval``."""
    return W23Kernel(interval)


def eval_kernel(
    kernel: W23Kernel,
    x,
    y,
    dy_order: int = 0,
    *,
    branch: str | None = None,
):
    """Evaluate ``d^m/dy^m R_x(y)`` for ``m = dy_order`` in 0..5.

    ``x`` and ``y`` may be numbers (the result is a float) or arrays that
    broadcast together.  Ties at the seam ``y == x`` use the left
    (``y <= x``) branch.  ``branch`` may force ``"left"`` or ``"right"``
    regardless of the tie-break, which the test suite uses to probe seam
    continuity and the fifth-derivative jump.
    """
    if dy_order not in (0, 1, 2, 3, 4, 5):
        raise ValueError(f"dy_order must be in 0..5, got {dy_order}")
    interval = kernel.interval
    interval.require(x, "base point")
    interval.require(y, "evaluation point")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if branch is None:
        use_left = y <= x
    elif branch == "left":
        use_left = True
    elif branch == "right":
        use_left = False
    else:
        raise ValueError(f"branch must be None, 'left' or 'right', got {branch!r}")
    mx = quintic_derivative_weights(x - interval.a, 0)
    my = quintic_derivative_weights(y - interval.a, dy_order)
    left = ((mx @ kernel.C) * my).sum(axis=-1)
    right = ((mx @ kernel.C.T) * my).sum(axis=-1)
    out = np.where(use_left, left, right)
    return float(out) if out.ndim == 0 else out


def kernel_section(kernel: W23Kernel, x: float) -> Callable[[float, int], float]:
    """The section ``R_x`` as a ``(y, order)`` callable with orders 0..3.

    Suitable as an argument to :func:`w23_inner_product`; pass ``x`` as a
    breakpoint there so the quadrature respects the seam.
    """
    kernel.interval.require(x, "base point")

    def section(y: float, order: int = 0) -> float:
        return eval_kernel(kernel, x, y, order)

    return section


def w23_inner_product(
    u: Callable[[float, int], float],
    v: Callable[[float, int], float],
    interval: Interval,
    breakpoints: Iterable[float] = (),
) -> float:
    """Inner product of the third-order space, by adaptive quadrature.

    ``u`` and ``v`` are ``(y, order)`` callables supplying derivatives up to
    order 3 (analytically, or by finite differences with a stated step).
    The head term of order ``i`` at ``a`` weighs ``L^(2i - 5)``: the space's
    ``1 / L`` for ``i = 2``; orders 0 and 1 vanish on the space.
    Interior ``breakpoints`` (kernel seams, collocation nodes) are forwarded
    to the quadrature so piecewise integrands do not degrade convergence.
    This routine is a test-suite oracle; the solver itself never integrates.
    It is the package's only use of scipy, which is imported here, on the
    first call, and is a dependency of the test extra only.
    """
    from scipy.integrate import IntegrationWarning, quad

    a, T = interval.a, interval.T
    head = sum(u(a, i) * v(a, i) * interval.length ** (2 * i - 5) for i in range(3))

    def integrand(s: float) -> float:
        return u(s, 3) * v(s, 3)

    pts = sorted({float(p) for p in breakpoints if a < p < T})
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            tail, _ = quad(
                integrand,
                a,
                T,
                points=pts or None,
                epsabs=_QUAD_TOL,
                epsrel=1e-11,
                limit=200,
            )
        except IntegrationWarning as exc:
            raise ToleranceError(
                f"inner-product quadrature did not reach tolerance {_QUAD_TOL}: {exc}"
            ) from exc
    return head + tail
