"""Small NumPy helpers used throughout the reproduction.

Following the scientific-Python optimisation guidance, hot paths in this
project are vectorised; these helpers centralise the dtype coercion and
grouped-reduction idioms so call sites stay readable.
"""

from __future__ import annotations

import numpy as np


def as_float_array(values, name: str = "values") -> np.ndarray:
    """Coerce ``values`` to a contiguous ``float64`` array, validating finiteness."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_int_array(values, name: str = "values") -> np.ndarray:
    """Coerce ``values`` to a contiguous ``int64`` array."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        rounded = np.rint(arr)
        if not np.allclose(arr, rounded):
            raise ValueError(f"{name} contains non-integral floats")
        arr = rounded
    return np.ascontiguousarray(arr, dtype=np.int64)


def row_dots(a, b) -> np.ndarray:
    """``a[..., :] @ b[..., :]`` row by row, the other axes broadcast: each
    row is the BLAS ``ddot`` of a 1-D ``a[i] @ b[i]``, bitwise, for
    contiguous rows (a matrix product or a sum may add in another order)."""
    a, b = np.asarray(a), np.asarray(b)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of ``values`` — ``np.unique`` by sorting,
    which on large integer arrays is many times faster than its hashing."""
    out = np.sort(values)
    keep = np.ones(out.shape[0], dtype=bool)
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


def bincount_fixed(labels: np.ndarray, num_bins: int, weights=None) -> np.ndarray:
    """`np.bincount` with a guaranteed output length of ``num_bins``.

    Raises if any label falls outside ``[0, num_bins)`` instead of silently
    growing the output — a mislabelled material or rank id is always a bug.
    """
    labels = as_int_array(labels, "labels")
    if labels.size:
        lo, hi = labels.min(), labels.max()
        if lo < 0 or hi >= num_bins:
            raise ValueError(
                f"labels out of range [0, {num_bins}): min={lo}, max={hi}"
            )
    return np.bincount(labels, weights=weights, minlength=num_bins)[:num_bins]

