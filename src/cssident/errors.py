"""Exception types shared across the package."""


class CssIdentError(Exception):
    """Base class for all package-specific errors."""


class InputDomainError(CssIdentError, ValueError):
    """Raised when an argument violates an operation's precondition."""


class NumericalFailureError(CssIdentError, ArithmeticError):
    """Raised when a numerical routine cannot produce a trustworthy result.

    For LAPACK-based routines the message includes the backend's own
    failure text.
    """


class IntegrationFailureError(CssIdentError, ArithmeticError):
    """Raised when ODE integration encounters a non-finite state.

    ``time`` is the integration time at which the failure was detected.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time
