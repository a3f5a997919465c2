"""Independent adaptive Runge-Kutta reference for the singular problems.

This oracle shares no machinery with the kernel solver: it integrates the
first-order system ``(u, u')`` with the Dormand-Prince 5(4) pair (Dormand &
Prince, 1980), advancing with the fifth-order solution and controlling the
step with the embedded fourth-order one as in Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I*, Sec. II.4-II.6: the initial-step
heuristic of Sec. II.4, safety factor 0.9, step changes bounded to [0.2, 10]
with error exponent -1/5, the RMS error norm with scale ``tol + max(|y|,
|y_new|) tol``, and a step floor of ten units in the last place of ``x``.
The free fourth-order dense output of each step is the trajectory: ``u`` and
``u'`` at any point are that step's quartic, with no resampling.

The only subtlety is the coefficient ``k/x`` at a left endpoint ``a = 0``:
there, for ``k != 0``, a regular solution needs ``u'(a) = 0`` and the limit
``(k/x) u' -> k u''(a)`` turns the equation into ``u''(a) = F(a, alpha) / (1 +
k)``, which is what the right-hand side returns inside a small radius of the
endpoint.  For ``a > 0`` or ``k = 0`` the equation is not singular anywhere on
the domain and no regularization is applied.  For ``a < 0 <= T`` and ``k !=
0`` the pole lies on the path of integration, and the oracle refuses the
problem.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExpressionDomainError, NumericError, SingularityError
from .problem_model import ProblemSpec

__all__ = ["SINGULAR_RADIUS", "OracleTrajectory", "regularized_rhs", "integrate"]

SINGULAR_RADIUS = 1e-8


def regularized_rhs(problem: ProblemSpec, x: float, u: float, up: float) -> float:
    """Value of ``u''`` at state ``(x, u, u')``, finite at a singular endpoint."""
    a, k = problem.interval.a, problem.k
    if k == 0.0:  # no pole, so x = 0 (at a, or inside [a, T] when a < 0) is ordinary
        return problem.rhs(x, u)
    if a == 0.0 and x <= a + SINGULAR_RADIUS:
        if problem.beta != 0.0:
            raise SingularityError(
                "a = 0 requires u'(a) = 0 for a regular solution; "
                f"got beta = {problem.beta}"
            )
        return problem.rhs(x, u) / (1.0 + k)
    return problem.rhs(x, u) - (k / x) * up


@dataclass(frozen=True, eq=False)
class OracleTrajectory:
    """The accepted steps and their dense output, all read-only.

    ``ts`` holds the step ends, strictly increasing from ``a`` to ``T``, and
    ``ys[i]`` the state ``(u, u')`` at ``ts[i]``, so ``ys[0]`` is ``(alpha,
    beta)`` exactly.  On step ``i`` of width ``h``, ``y(ts[i] + s h) = ys[i] +
    h Q[i] (s, s^2, s^3, s^4)``; a point on a step boundary is served by the
    earlier step, and a point outside ``[a, T]`` by the nearest one.
    """

    ts: np.ndarray
    ys: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        for arr in (self.ts, self.ys, self.Q):
            arr.setflags(write=False)

    @property
    def accepted_steps(self) -> int:
        return len(self.Q)

    def _state(self, x: float) -> np.ndarray:
        ts = self.ts
        i = min(max(int(np.searchsorted(ts, x, side="left")) - 1, 0), len(self.Q) - 1)
        h = ts[i + 1] - ts[i]
        s = np.cumprod(np.full(4, (x - ts[i]) / h))
        return h * np.dot(self.Q[i], s) + self.ys[i]

    def u(self, x: float) -> float:
        return float(self._state(x)[0])

    def du(self, x: float) -> float:
        return float(self._state(x)[1])


# The Dormand-Prince 5(4) tableau: stage nodes _C, stage weights _A, the
# fifth-order weights _B, the error weights _E (fifth minus fourth order,
# last entry on the first-same-as-last stage) and the free fourth-order dense
# output _P.
_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array(
    [-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40]
)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5
_MIN_RTOL = 100 * np.finfo(float).eps
_MAX_STEPS = 100_000


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size**0.5


def _dormand_prince(fun, t: float, y: np.ndarray, t_bound: float, tol: float):
    """Adaptive steps of the pair from ``t`` to ``t_bound > t``.

    Returns the step ends ``ts``, the states ``ys`` there and the stacked
    dense-output matrices ``Q``, as :class:`OracleTrajectory` holds them.
    """
    atol = rtol = tol
    if rtol < _MIN_RTOL:
        warnings.warn(
            f"reference tolerance {tol:g} is below 100 eps; "
            f"the relative tolerance is raised to {_MIN_RTOL:g}",
            stacklevel=3,
        )
        rtol = _MIN_RTOL
    # The initial step of Hairer, Norsett & Wanner, Sec. II.4.
    f = fun(t, y)
    length = t_bound - t
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, length)

    K = np.empty((7, y.size))
    ts, ys, Q = [t], [y], []
    while t < t_bound:
        if len(Q) == _MAX_STEPS:
            raise NumericError(
                f"reference integration needs more than {_MAX_STEPS} steps "
                f"(budget {_MAX_STEPS})"
            )
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise NumericError(
                    f"reference integration failed: step size below {min_step:.3e} at x={t}"
                )
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t  # the factor below scales the clipped step
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:6].T, _B)
            K[6] = f_new = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(np.dot(K.T, _E) * h / scale)
            if error < 1:
                factor = _MAX_FACTOR
                if error > 0:
                    factor = min(factor, _SAFETY * error**_ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error**_ERROR_EXPONENT)
            rejected = True
        Q.append(K.T.dot(_P))
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return np.array(ts), np.array(ys), np.array(Q)


def integrate(problem: ProblemSpec, tol: float = 1e-10) -> OracleTrajectory:
    """Integrate ``problem`` over its interval with local error bound ``tol``.

    ``tol`` is both the absolute and the relative tolerance; a relative
    tolerance below ``100 eps`` is raised to that floor with a warning.  With
    ``a < 0 <= T`` and ``k != 0`` the pole ``x = 0`` of ``k/x`` lies on the
    path, and a ``SingularityError`` is raised before any step; with ``a =
    0``, ``k != 0`` and ``beta != 0`` :func:`regularized_rhs` raises it at
    its first call.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    a, T = problem.interval.a, problem.interval.T
    if a < 0.0 <= T and problem.k != 0.0:
        raise SingularityError(
            f"the reference oracle cannot integrate through x = 0 on [{a:g}, {T:g}], "
            "where k/x is singular; give the config an exact solution ('exact')"
        )

    def rhs(x, y):
        try:
            return np.array([y[1], regularized_rhs(problem, x, y[0], y[1])])
        except (ExpressionDomainError, ValueError) as exc:
            raise DomainError(f"right-hand side domain error at x={x}: {exc}") from exc

    y0 = np.array([problem.alpha, problem.beta])
    # A non-finite stage fails the error test and counts as a rejected step.
    with np.errstate(invalid="ignore", over="ignore"):
        return OracleTrajectory(*_dormand_prince(rhs, a, y0, T, tol))
