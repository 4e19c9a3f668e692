"""Exception types raised across the package."""


class SumspacesError(Exception):
    """Base class for all package-specific errors."""


class AllZeroInput(SumspacesError, ValueError):
    """Raised when a spanning set contains only numerically zero columns.

    ``index`` is the position of that spanning set among those given to
    ``orthonormalize_all``; it is 0 when raised by ``orthonormalize``.
    """

    def __init__(self, message, index=0):
        super().__init__(message)
        self.index = index


class DimensionMismatch(SumspacesError, ValueError):
    """Raised when objects that must share an ambient dimension do not."""


class NumericalError(SumspacesError, ArithmeticError):
    """Raised when a computed quantity violates a bound it must satisfy
    mathematically (signals broken input or a numerical bug)."""


class InconsistencyError(SumspacesError, ArithmeticError):
    """Raised when equivalent formulations of the spectral criterion
    disagree outside the boundary dead zone."""


class CriterionNotSatisfied(SumspacesError, RuntimeError):
    """Raised when a certified convergence bound is requested but the
    spectral criterion does not hold.  Carries the criterion report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class NotBoundary(SumspacesError, ValueError):
    """Raised when a boundary-case construction is requested for a matrix
    whose spectral radius is not 1 (after any permitted rescaling)."""


class NotPositiveDefinite(SumspacesError, ValueError):
    """Raised when a matrix expected to be positive definite fails the
    eigenvalue check."""


class VerificationFailed(SumspacesError, RuntimeError):
    """Raised when a constructed counterexample family fails one of its
    verification checks.  Carries the full verification record."""

    def __init__(self, message, record):
        super().__init__(message)
        self.record = record
