"""Exception types shared across the package, and the checks that raise them."""

import math
from pathlib import Path

import numpy as np


class InvalidInputError(ValueError):
    """Raised when arguments violate an operation's preconditions."""


class ProblemTooLargeError(RuntimeError):
    """Raised when an enumeration would exceed its configured cap."""


class ConfigError(ValueError):
    """Raised for malformed benchmark configurations."""


def as_float(value) -> float:
    """float(value), reading a number beyond float's range as +-inf, as float() reads the text 1e400.

    float() raises OverflowError for such a number, an int or a Fraction; its TypeError and ValueError pass.
    """
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_integer(name: str, value, low: int = 1) -> None:
    """value is a Python or numpy integer >= low; a bool or a float is not."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidInputError(f"{name} must be >= {low}")


def read_text(path, error: type[ValueError] = InvalidInputError) -> str:
    """The file at path read as UTF-8 text; a file that is not UTF-8 raises error, naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
