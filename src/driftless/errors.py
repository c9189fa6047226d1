"""Exception types shared across the package."""


class DriftlessError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(DriftlessError, ValueError):
    """Vector-field matrix shape disagrees with the declared dimensions."""


class DomainError(DriftlessError, ValueError):
    """Argument lies outside the mathematical domain of the function."""


class RangeError(DriftlessError, ValueError):
    """Argument lies outside the supported evaluation range."""


class DegenerateAttitudeError(DriftlessError, ValueError):
    """The attitude is identically zero; use the degenerate closed form."""


class StoppedRunError(DriftlessError, RuntimeError):
    """A run stopped before its horizon; carries the partial trajectory up to the stop."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class DivergenceError(StoppedRunError):
    """State norm exceeded the divergence guard during integration."""


class SwitchTimeoutError(StoppedRunError):
    """The switching condition was never met before the time horizon."""


class InconclusiveError(DriftlessError, RuntimeError):
    """Trajectory too short for the requested certificate."""
