"""Exception types shared across the library."""

__all__ = ["LogSumProxError", "DomainError", "RegimeError", "ConvergenceError", "PreconditionError",
           "MatrixFormatError"]


class LogSumProxError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LogSumProxError):
    """An argument lies outside the mathematical domain of the operation."""


class RegimeError(LogSumProxError):
    """The operation is only defined in the other parameter regime."""


class ConvergenceError(LogSumProxError):
    """An iterative routine exhausted its iteration budget."""


class PreconditionError(LogSumProxError):
    """A structured-input precondition was violated."""


class MatrixFormatError(LogSumProxError):
    """A matrix file could not be parsed.

    ``line`` is the 1-based offending line for CSV input, or ``None`` for
    binary input.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
