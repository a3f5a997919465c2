"""Reproducing-kernel collocation solver for singular second-order IVPs.

Solves ``u'' + (k/x) u' = F(x, u)`` on ``[a, T]`` with ``u(a) = alpha``,
``u'(a) = beta`` by orthonormal-basis collocation in a cubic Sobolev space.
"""

from .collocation import (
    CollocationBasis,
    PointSet,
    build_basis,
    gram_matrix,
    orthonormalize,
    uniform_points,
)
from .errors import (
    ConfigError,
    DomainError,
    ExpressionDomainError,
    ExpressionSyntaxError,
    NumericError,
    RkhsError,
    SingularityError,
    ToleranceError,
)
from .kernel_space import (
    Interval,
    W23Kernel,
    build_w23_kernel,
    eval_kernel,
    kernel_section,
    w23_inner_product,
)
from .problem_model import (
    AffineRhs,
    ExactSolution,
    ExactnessReport,
    ProblemSpec,
    builtin,
    verify_exact,
)
from .reference_oracle import OracleTrajectory, integrate, regularized_rhs
from .rkhs_solver import (
    ErrorReport,
    ErrorRow,
    RkhsSolution,
    error_report,
    evaluate,
    residual_sup_norm,
    solve_linear,
    solve_nonlinear,
    solve_problem,
)

__all__ = [
    "AffineRhs",
    "CollocationBasis",
    "ConfigError",
    "DomainError",
    "ErrorReport",
    "ErrorRow",
    "ExactSolution",
    "ExactnessReport",
    "ExpressionDomainError",
    "ExpressionSyntaxError",
    "Interval",
    "NumericError",
    "OracleTrajectory",
    "PointSet",
    "ProblemSpec",
    "RkhsError",
    "RkhsSolution",
    "SingularityError",
    "ToleranceError",
    "W23Kernel",
    "build_basis",
    "build_w23_kernel",
    "builtin",
    "error_report",
    "eval_kernel",
    "evaluate",
    "gram_matrix",
    "integrate",
    "kernel_section",
    "orthonormalize",
    "regularized_rhs",
    "residual_sup_norm",
    "solve_linear",
    "solve_nonlinear",
    "solve_problem",
    "uniform_points",
    "verify_exact",
    "w23_inner_product",
]

__version__ = "0.1.0"
