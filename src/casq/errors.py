"""Exception types shared across the package.

Each maps onto one failure mode of the simulators; the CLI translates them
into distinct process exit codes.
"""


class InvalidParameterError(ValueError):
    """A physical parameter violates its admissible range."""


class NotStableError(RuntimeError):
    """Operation requires the below-threshold regime (lambda_minus > 0)."""

    def __init__(self, message, lambda_minus=None):
        super().__init__(message)
        self.lambda_minus = lambda_minus


class TruncationError(RuntimeError):
    """Fock-space truncation too small: boundary level carries population."""

    def __init__(self, message, boundary_pop=None, suggested_dim=None):
        super().__init__(message)
        self.boundary_pop = boundary_pop
        self.suggested_dim = suggested_dim


class StepSizeError(RuntimeError):
    """Integration step too large for the requested accuracy."""


class ConvergenceError(RuntimeError):
    """A solve missed its residual target, or the moments fit no squeezed frame."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class QFunctionUndefinedError(RuntimeError):
    """Gaussian moment record does not define a normalizable Q function."""


class TrajectoryBlowupError(RuntimeError):
    """A stochastic trajectory exceeded the magnitude guard."""
