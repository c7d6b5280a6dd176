"""Analysis utilities: validation sweeps, error metrics, and text reports.

The benchmark harness uses these to regenerate every table and figure of the
paper in plain-text form (the repository has no plotting dependency; figures
are emitted as aligned data series ready for any plotting tool).

Sweep execution is layered: :mod:`repro.analysis.runner` expands
declarative grids into one :class:`~repro.core.request.PredictionRequest`
per point and runs each through :func:`repro.core.measure` (serially or
process-parallel), and :mod:`repro.analysis.store` persists finished
points so sweeps resume instead of recomputing.
"""

from repro.analysis.errors import mean_absolute_percentage_error
from repro.analysis.report import TextTable, format_series
from repro.analysis.runner import (
    ClusterSpec,
    SweepOutcome,
    SweepSpec,
    SweepStatus,
    SweepTask,
    ValidationPoint,
    evaluate_point,
    powers_of_two,
    run_points,
    run_sweep,
    sweep_status,
)
from repro.analysis.store import (
    ResultStore,
    calibration_store,
    prediction_store,
)
from repro.core.request import DynamicSpec

__all__ = [
    "mean_absolute_percentage_error",
    "TextTable",
    "format_series",
    "ClusterSpec",
    "SweepOutcome",
    "SweepSpec",
    "SweepStatus",
    "SweepTask",
    "ValidationPoint",
    "evaluate_point",
    "powers_of_two",
    "run_points",
    "run_sweep",
    "sweep_status",
    "ResultStore",
    "calibration_store",
    "prediction_store",
    "DynamicSpec",
]
