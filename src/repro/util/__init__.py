"""Shared low-level utilities for the Krak performance-model reproduction.

This subpackage deliberately has no dependencies on the rest of
:mod:`repro`; every other subpackage may depend on it.
"""

from repro.util.artifacts import cache_root, stable_hash
from repro.util.rng import seeded_rng, spawn_rng
from repro.util.units import (
    MICROSECOND,
    MILLISECOND,
    SECOND,
    bytes_to_mib,
    format_bytes,
    format_time,
)
from repro.util.arrays import (
    as_float_array,
    as_int_array,
    bincount_fixed,
    group_sums,
    sorted_unique,
)
from repro.util.validation import (
    check_positive,
    check_nonnegative,
    check_probability,
    check_in_range,
)

__all__ = [
    "cache_root",
    "stable_hash",
    "seeded_rng",
    "spawn_rng",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "bytes_to_mib",
    "format_bytes",
    "format_time",
    "as_float_array",
    "as_int_array",
    "bincount_fixed",
    "sorted_unique",
    "group_sums",
    "check_positive",
    "check_nonnegative",
    "check_probability",
    "check_in_range",
]
