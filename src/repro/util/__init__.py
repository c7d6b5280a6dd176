"""Shared low-level utilities for the Krak performance-model reproduction.

This subpackage deliberately has no dependencies on the rest of
:mod:`repro`; every other subpackage may depend on it.
"""

from repro.util.artifacts import cache_root, stable_hash
from repro.util.rng import seeded_rng
from repro.util.arrays import (
    as_float_array,
    as_int_array,
    bincount_fixed,
    row_dots,
    sorted_unique,
)
from repro.util.validation import (
    check_positive,
    check_nonnegative,
)

__all__ = [
    "cache_root",
    "stable_hash",
    "seeded_rng",
    "as_float_array",
    "as_int_array",
    "bincount_fixed",
    "row_dots",
    "sorted_unique",
    "check_positive",
    "check_nonnegative",
]
