"""Exception types shared across the package."""


class SolverError(Exception):
    """Base class for errors raised while solving a boundary problem."""


class FundamentalSystemError(SolverError):
    """No fundamental system can be computed for the given operator."""


class WronskianError(SolverError):
    """The Wronskian is not an invertible exponential monomial."""


class NotRegularError(SolverError):
    """The boundary problem has a singular evaluation matrix."""

    def __init__(self, message, matrix=None):
        super().__init__(message)
        self.matrix = matrix


class VerificationError(SolverError):
    """The construction's certificates refute a computed Green's operator."""


class DegenerateDomainError(SolverError):
    """Fewer than two breakpoints; an explicit interval is required."""


class NotEquitableError(SolverError):
    """The operator still contains global boundary terms."""


class ParseError(ValueError):
    """Malformed expression or problem document."""
