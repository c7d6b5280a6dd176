"""Argument-validation helpers with consistent error messages."""

from __future__ import annotations


def check_positive(value: float, name: str) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not (value > 0):
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    """Require ``value >= 0``; return it for chaining."""
    if not (value >= 0):
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value

