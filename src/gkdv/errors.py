"""Exception types shared across the package."""


class GkdvError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(GkdvError, ValueError):
    """Invalid parameter value (wrong range, wrong shape, wrong ordering)."""


class UnsupportedModelError(ParameterError):
    """Nonlinearity exponent outside the supported subcritical set {2, 3, 4}."""


class DomainTooSmallError(GkdvError, ValueError):
    """Profile tails at the periodic seam exceed the configured threshold."""


class StepSizeError(GkdvError, ValueError):
    """Time step violates the stability gate of the integrator."""


class BlowupError(GkdvError, RuntimeError):
    """Non-finite values appeared during time stepping.

    Carries ``t_last`` (last time known finite) and ``trajectory`` (the
    partial trajectory collected so far, possibly None).
    """

    def __init__(self, message, t_last=None, trajectory=None):
        super().__init__(message)
        self.t_last = t_last
        self.trajectory = trajectory


class GuessFailureError(GkdvError, RuntimeError):
    """Peak detection could not produce the requested number of solitons."""


class DecompositionFailureError(GkdvError, RuntimeError):
    """Damped Newton iteration on the orthogonality system failed.

    Carries the last iterate ``state`` and its ``residuals``.
    """

    def __init__(self, message, state=None, residuals=None, iterations=0):
        super().__init__(message)
        self.state = state
        self.residuals = residuals
        self.iterations = iterations


class DegenerateConfigurationError(GkdvError, RuntimeError):
    """Modulation Jacobian numerically singular (condition number > 1e12)."""


class SpectralFailureError(GkdvError, RuntimeError):
    """Lanczos eigensolver failed to converge.

    Carries the operator applications made (``matvecs``), the smallest Ritz
    residual reached (``residual``) and the last Ritz value (``ritz_value``).
    """

    def __init__(self, message, matvecs=0, residual=None, ritz_value=None):
        super().__init__(message)
        self.matvecs = matvecs
        self.residual = residual
        self.ritz_value = ritz_value


class ConfigValidationError(GkdvError, ValueError):
    """Experiment configuration violates a documented precondition."""
