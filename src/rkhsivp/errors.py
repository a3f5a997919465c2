"""Exception types shared across the package.

The command line maps these onto process exit codes, so the hierarchy is part
of the public contract: configuration problems, expression syntax problems,
linear-algebra/floating-point failures and mathematical domain violations are
kept distinct.
"""


class RkhsError(Exception):
    """Base class for every error raised deliberately by this package."""


class ConfigError(RkhsError):
    """A run configuration or problem definition file is invalid."""


class ExpressionSyntaxError(RkhsError):
    """A right-hand-side expression string failed to parse.

    Carries the zero-based character offset of the offending token, or None
    for a derived tree, which has no place in the text.
    """

    def __init__(self, message: str, offset: int | None):
        super().__init__(message if offset is None else f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class NumericError(RkhsError):
    """A numerical step failed: singular system, lost positive-definiteness,
    non-finite intermediate values, or an exhausted step budget."""


class ToleranceError(NumericError):
    """Adaptive quadrature could not reach the requested tolerance."""


class DomainError(RkhsError):
    """An argument lies outside the mathematical domain of an operation."""


class ExpressionDomainError(DomainError):
    """Evaluating an expression hit a domain violation (log of a
    non-positive number, division by zero, fractional power of a negative
    base).  Carries the offending sub-expression, pretty-printed."""

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in '{subexpression}'")
        self.subexpression = subexpression


class SingularityError(DomainError):
    """An operation would evaluate the singular coefficient k/x at its pole."""
