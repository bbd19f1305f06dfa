"""Exception types shared across the package."""


class ScreenedHookiumError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ScreenedHookiumError, ValueError):
    """Input outside the mathematical or physical domain of an operation."""


class ConvergenceError(ScreenedHookiumError, RuntimeError):
    """A numerical routine failed to reach its target accuracy."""


class TerminationError(ScreenedHookiumError, ValueError):
    """The series does not truncate at the requested degree for this coupling."""


class ConsistencyError(ScreenedHookiumError, RuntimeError):
    """Two independent computations of the same quantity disagree."""
