"""Exception types shared across the package."""


class DomainError(ValueError):
    """Raised when an argument falls outside a function's mathematical domain."""


class DegenerateSampleError(ValueError):
    """Raised when a sample carries no dispersion information (all values equal,
    or a single observation), so the gamma shape cannot be fitted."""


class NoConvergenceError(RuntimeError):
    """Raised when the Newton shape solver does not converge. No finite
    positive sample reaches it: its log-moment gap is below 1454.3, and
    Newton converges on every gap up to about 1e5."""


class CorrectionUnavailableError(ValueError):
    """Raised when bias correction is requested but cannot be performed.

    Carries the uncorrected report so callers can still use it.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
