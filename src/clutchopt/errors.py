"""Exception types shared across the package, and the integer check that raises one."""

import numpy as np


class InvalidInputError(ValueError):
    """Raised when arguments violate an operation's preconditions."""


class ProblemTooLargeError(RuntimeError):
    """Raised when an enumeration would exceed its configured cap."""


class ConfigError(ValueError):
    """Raised for malformed benchmark configurations."""


def check_integer(name: str, value, low: int = 1) -> None:
    """value is a Python or numpy integer >= low; a bool or a float is not."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidInputError(f"{name} must be >= {low}")
