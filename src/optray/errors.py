"""Exception types shared across the package."""


class OptrayError(Exception):
    """Base class for all package errors."""


class ParseError(OptrayError):
    """Malformed input file (carries the offending row number in the message)."""


class ValidationError(OptrayError):
    """Input violates a documented precondition or enumeration."""


class DegenerateDataError(OptrayError):
    """Dataset cannot be processed (e.g. every feature vector is zero)."""


class LPError(OptrayError):
    """Simplex solver failed to terminate or returned an infeasible point."""

    def __init__(self, message: str, iterations: int = -1):
        super().__init__(message)
        self.iterations = iterations


class ConvergenceError(OptrayError):
    """Iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message: str, best: float = float("nan"), iterations: int = -1):
        super().__init__(message)
        self.best = best
        self.iterations = iterations


class NotSeparableError(OptrayError):
    """Margin solver received data with no positive margin."""


class NumericalError(OptrayError):
    """An internal numerical invariant failed (overflow, nonpositive curvature, ...)."""
