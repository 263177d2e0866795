"""Exception types shared across the package."""


class ChbsError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ChbsError):
    """Invalid configuration: bad value, unknown key, or malformed file."""


class CompatibilityError(ChbsError):
    """Initial data incompatible with the chosen potential graphs."""


class StepError(ChbsError):
    """Nonlinear solve of a time step failed to converge."""


class NumericalError(ChbsError):
    """A linear solver or eigensolver broke down."""
