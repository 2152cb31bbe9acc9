"""Argument validation helpers with informative error messages.

The constructions of the paper come with many interdependent integer
constraints (``k >= 3``, ``F < (f+1)·⌈k/2⌉``, ``F < N/3``, ``c`` a multiple
of ``3(F+2)(2m)^k`` …).  Validating them eagerly with clear messages makes
mis-parameterised experiments fail fast instead of producing silently wrong
counters.
"""

from __future__ import annotations

import numbers
from typing import Any

__all__ = [
    "is_integer",
    "check_type",
    "check_positive",
    "check_range",
    "check_index",
    "check_probability",
]


def is_integer(value: Any) -> bool:
    """Whether ``value`` is a Python or NumPy integer (a ``bool`` is not)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_type(name: str, value: Any, expected: type | tuple[type, ...]) -> None:
    """Raise :class:`TypeError` unless ``value`` is an instance of ``expected``."""
    if not isinstance(value, expected):
        if isinstance(expected, tuple):
            names = ", ".join(t.__name__ for t in expected)
        else:
            names = expected.__name__
        raise TypeError(f"{name} must be of type {names}, got {type(value).__name__}")
    # bool is a subclass of int; reject it where an int is expected.
    if expected in (int, (int,)) and isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got bool")


def check_positive(name: str, value: int, *, strict: bool = True) -> None:
    """Raise :class:`ValueError` unless ``value`` is positive (or non-negative)."""
    check_type(name, value, int)
    if strict and value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def check_range(name: str, value: int, low: int | None = None, high: int | None = None) -> None:
    """Raise :class:`ValueError` unless ``low <= value <= high`` (inclusive bounds)."""
    check_type(name, value, int)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")


def check_index(name: str, value: int, size: int) -> None:
    """Raise unless ``0 <= value < size`` (the paper's ``[n]`` index sets)."""
    check_type(name, value, int)
    if not 0 <= value < size:
        raise ValueError(f"{name} must be in [0, {size}), got {value}")


def check_probability(name: str, value: float) -> None:
    """Raise unless ``0 <= value <= 1``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not 0.0 <= float(value) <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
