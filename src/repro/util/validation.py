"""Argument validation helpers with consistent error messages."""

from __future__ import annotations

from numbers import Integral


def check_positive_int(value, name: str) -> int:
    """Require ``value`` to be a positive integer; return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        try:
            as_int = int(value)
        except (TypeError, ValueError):
            raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if as_int != value:
            raise TypeError(f"{name} must be an integer, got {value!r}")
        value = as_int
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_seed(value) -> int:
    """Require an RNG seed (a non-negative integer, not a bool) — what
    ``numpy.random.SeedSequence`` accepts; return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"seed must be a non-negative integer, got {value!r}")
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {value}")
    return int(value)


def check_in_range(value, name: str, lo, hi) -> None:
    """Require ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")


def check_probability(value, name: str) -> float:
    """Require a probability in [0, 1]; return it as ``float``."""
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")
    return value
