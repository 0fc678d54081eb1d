"""Shared exception types."""

__all__ = ["ConfigError", "DomainError", "UnsupportedError", "InsufficientDataError"]


class ConfigError(ValueError):
    """Invalid parameter or configuration value; ``param`` names the offending
    parameter when there is one."""

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message)
        self.param = param


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class UnsupportedError(ValueError):
    """Operation not defined for this input (by design, not by accident)."""


class InsufficientDataError(ValueError):
    """Not enough samples to carry out a numeric procedure."""
