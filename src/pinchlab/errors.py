"""Shared exception types.

Every error deliberately raised by this package derives from PinchLabError so
callers can catch the package's failures without swallowing genuine bugs.
"""

from __future__ import annotations

__all__ = [
    "PinchLabError",
    "DomainError",
    "ConvergenceError",
    "ConfigError",
]


class PinchLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PinchLabError, ValueError):
    """An input lies outside the domain an operation is defined on."""


class ConvergenceError(PinchLabError, RuntimeError):
    """A numerical procedure failed to converge or produced an unusable result."""


class ConfigError(PinchLabError, ValueError):
    """A run configuration violates the schema or a field constraint."""
