"""Exception types shared across the package."""


class LcwError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LcwError):
    """Syntax or structural error in a metric file or expression.

    Carries the 1-based line and column of the offending token.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DomainError(LcwError):
    """Evaluation hit a pole or branch point (division by zero constant
    term, log/sqrt of a nonpositive constant term)."""


class DimensionError(LcwError):
    """Operation not defined in this dimension."""


class SingularMetric(LcwError):
    """Metric matrix is not invertible (or too ill-conditioned) at the
    evaluation point."""


class SymmetryViolation(LcwError):
    """Input tensor fails a required symmetry beyond tolerance."""


class ConstraintViolation(LcwError):
    """Structured input violates one of its defining constraints."""


class NotOrthogonal(LcwError):
    """Matrix expected to be orthogonal is not."""


class PreconditionViolation(LcwError):
    """Numeric precondition (trace/determinant bounds) not met."""


class NotPositiveDefinite(LcwError):
    """A perturbed metric stopped being positive definite on the bump
    support."""


class UnknownEntry(LcwError):
    """Requested catalog entry does not exist."""
