"""Seeded inputs, exact references and correctness bounds.

Everything here is the benchmark's own: the exact solutions of the builtin
problems are written out again rather than read from ``rkhsivp``, and the
manufactured problems are handed to the program only as JSON configs, so
no reference value is derived from the code under test.  Only the standard
library is used, which keeps the ``cli_cold`` runner free of numpy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

# The paper's six-point report grid, the CLI's default ``--grid``.
REPORT_GRID = (0.16, 0.32, 0.48, 0.64, 0.80, 0.96)

Fn = Callable[[float], float]


@dataclass(frozen=True)
class Exact:
    """An exact solution with its first two derivatives."""

    u: Fn
    du: Fn
    d2u: Fn

    def deriv(self, order: int) -> Fn:
        return (self.u, self.du, self.d2u)[order]


def _ex3(x: float) -> float:
    return math.exp(-0.5 * math.pi * x * x)


BUILTIN_EXACT = {
    "ex1": Exact(
        u=lambda x: x**3 + x**2,
        du=lambda x: 3 * x**2 + 2 * x,
        d2u=lambda x: 6 * x + 2,
    ),
    "ex2": Exact(
        u=lambda x: -2 * math.log1p(x * x),
        du=lambda x: -4 * x / (1 + x * x),
        d2u=lambda x: -4 * (1 - x * x) / (1 + x * x) ** 2,
    ),
    "ex3": Exact(
        u=_ex3,
        du=lambda x: -math.pi * x * _ex3(x),
        d2u=lambda x: (math.pi**2 * x * x - math.pi) * _ex3(x),
    ),
}

# Correctness bounds.  The method converges as O(n^-2) in u, u' and u''
# (ROADMAP baseline: the ex1 error falls 4.05-4.3x per doubling of n), so
# every bound has the form C / n^2 with C fixed here, about ten times the
# largest constant observed over the workload's problem family at the seed
# commit.  A result above its bound counts as a failed op.
ERROR_CONSTANT = {
    "cli_cold": 0.5,  # u on the report grid, n = 100: 5e-5
    "big_linear": 0.5,  # u, n = 1600: 2e-7 (observed 0.042 / n^2)
    "dense_eval": (1.0, 10.0, 150.0),  # u, u', u'' at off-node points
}
# The reference integrator runs at tolerance 1e-10; its values must match
# the exact solution far inside the collocation error.
ORACLE_BOUND = 1e-7


def error_bound(workload: str, n: int, order: int = 0) -> float:
    c = ERROR_CONSTANT[workload]
    if isinstance(c, tuple):
        c = c[order]
    return c / (n * n)


# ---------------------------------------------------------------------------
# Manufactured nonlinear problems
#
# The exact solution is u = alpha + c * g(s x^2) on [0, 1] with g from a small
# family, so u'(0) = 0 and u'/x stays analytic at the singular endpoint.
# The right-hand side is F(x, u) = N(u) + h(x) with h = L[u] - N(u_exact),
# L[u] = u'' + (k/x) u', and N a nonlinearity from a second family.  The
# program sees only the expression string.

# name: (g, g', g'') as expressions of {t}, then as functions of t.
_G = {
    "exp": (("exp({t})", "exp({t})", "exp({t})"), (math.exp, math.exp, math.exp)),
    "log": (
        ("ln(1+{t})", "1/(1+{t})", "(-1)/(1+{t})^2"),
        (math.log1p, lambda t: 1 / (1 + t), lambda t: -1 / (1 + t) ** 2),
    ),
    "rat": (
        ("1/(1+{t})", "(-1)/(1+{t})^2", "2/(1+{t})^3"),
        (lambda t: 1 / (1 + t), lambda t: -1 / (1 + t) ** 2, lambda t: 2 / (1 + t) ** 3),
    ),
}
_N = {
    "square": "({})^2",
    "sin": "sin({})",
    "cube": "(-0.5)*({})^3",
    "exp": "0.5*exp({})",
}
FAMILY = tuple((g, nl) for g in _G for nl in _N)
# The CLI workload runs few config ops per run, so it cycles one member per
# nonlinearity and every run meets all four.
CLI_FAMILY = (("exp", "square"), ("log", "sin"), ("rat", "cube"), ("exp", "exp"))


def _num(v: float) -> str:
    return f"({v!r})"


@dataclass(frozen=True)
class Manufactured:
    config: dict
    exact: Exact


def manufactured(rng: random.Random, name: str, g: str, nl: str) -> Manufactured:
    """One seeded member of the (g, N) family.

    The structure (g, N) sets the difficulty; the seed moves each parameter
    by about one percent around a fixed nominal value, so every op is a
    fresh input while the worst error of a run stays steady from seed to
    seed.
    """

    def jitter(nominal: float) -> float:
        return nominal * rng.uniform(0.99, 1.01)

    k, s, c = jitter(3.0), jitter(0.75), jitter(0.475)
    alpha = rng.uniform(-0.01, 0.01)
    exprs, (g0, g1, g2) = _G[g]
    t = f"{_num(s)}*x^2"
    g_expr, g1_expr, g2_expr = (e.format(t=t) for e in exprs)
    u_expr = f"({_num(alpha)}+{_num(c)}*{g_expr})"
    # u' = 2 c s x g'(s x^2), u'' = 2 c s g' + 4 c s^2 x^2 g'', so
    # L[u] = 2 (1 + k) c s g' + 4 c s^2 x^2 g''.
    lu_expr = f"{_num(2 * (1 + k) * c * s)}*{g1_expr}+{_num(4 * c * s * s)}*x^2*{g2_expr}"
    n_form = _N[nl]
    rhs = f"{n_form.format('u')}+{lu_expr}-{n_form.format(u_expr)}"
    exact = Exact(
        u=lambda x: alpha + c * g0(s * x * x),
        du=lambda x: 2 * c * s * x * g1(s * x * x),
        d2u=lambda x: 2 * c * s * g1(s * x * x) + 4 * c * s * s * x * x * g2(s * x * x),
    )
    config = {
        "name": name,
        "k": k,
        "a": 0.0,
        "T": 1.0,
        "alpha": exact.u(0.0),
        "beta": 0.0,
        "rhs": rhs,
    }
    return Manufactured(config, exact)


def family_pool(rng: random.Random, prefix: str, family: tuple = FAMILY) -> list[Manufactured]:
    """One seeded problem per family member, in seeded order.

    Ops cycle through the pool, so any run of at least ``len(family)`` ops
    meets every structure and its worst error depends on the seed alone.
    """
    order = list(family)
    rng.shuffle(order)
    return [manufactured(rng, f"{prefix}{i}-{g}-{nl}", g, nl) for i, (g, nl) in enumerate(order)]


def stratified_points(rng: random.Random, count: int) -> list[float]:
    """One uniform draw in each of ``count`` equal cells of (0, 1].

    Seeded and almost surely off every node, yet spread evenly, so the
    largest error over them is close to the supremum for every seed.
    """
    return [(j + 1 - rng.random()) / count for j in range(count)]
