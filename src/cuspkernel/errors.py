"""Exception types shared across the package."""


class CuspKernelError(Exception):
    """Base class for all package errors."""


class CutoffExceeded(CuspKernelError):
    """Requested truncation tolerance is unreachable within resource limits.

    Carries the best certified tail bound that was achieved.
    """

    def __init__(self, message, best_tail_bound=None):
        super().__init__(message)
        self.best_tail_bound = best_tail_bound


class SupportViolation(CuspKernelError):
    """A test function's support leaves the admissible window or domain."""


class NoCuspForms(CuspKernelError):
    """The requested weight has a zero-dimensional cusp-form space."""


class TailTooLarge(CuspKernelError):
    """A q-series truncation cannot meet the requested tail bound."""
