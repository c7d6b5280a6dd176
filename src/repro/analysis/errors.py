"""Error metrics used throughout the validation benches."""

from __future__ import annotations

import numpy as np


def mean_absolute_percentage_error(measured, predicted) -> float:
    """MAPE over paired measurement/prediction arrays, in percent."""
    measured = np.asarray(measured, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if measured.shape != predicted.shape or measured.size == 0:
        raise ValueError("measured and predicted must be equal-shape, non-empty")
    if np.any(measured <= 0):
        raise ValueError("measured values must be positive")
    return float(np.mean(np.abs((measured - predicted) / measured)) * 100.0)
