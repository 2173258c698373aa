"""Exception types shared across the package."""


class QDephaseError(Exception):
    """Base class for all package errors."""


class DomainError(QDephaseError, ValueError):
    """An argument lies outside the valid domain (time window, grid range, ...)."""


class GridMismatchError(QDephaseError, ValueError):
    """Two objects that must share a time grid do not."""


class NotPositiveDefiniteError(QDephaseError):
    """A kernel matrix that must be positive definite is not."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class SingularKernelError(QDephaseError):
    """Factorization of a kernel matrix failed."""


class IndefiniteCovarianceError(QDephaseError):
    """A covariance matrix is indefinite beyond the jitter policy."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class InvalidModelError(QDephaseError, ValueError):
    """Model parameters violate a validity condition."""


class ModelMismatchError(QDephaseError):
    """A parametric fit produced coefficients incompatible with the model class."""


class UnderdeterminedError(QDephaseError):
    """A reconstruction problem does not constrain all requested unknowns."""

    def __init__(self, message: str, unconstrained: tuple[int, ...] = ()):
        super().__init__(message)
        self.unconstrained = unconstrained


class IllConditionedError(QDephaseError):
    """A conditioning step is numerically unreliable."""

    def __init__(self, message: str, condition_number: float | None = None):
        super().__init__(message)
        self.condition_number = condition_number


class PaddingWarning(UserWarning):
    """The pad around the window leaves edge correlations above ``edge_tol``."""
