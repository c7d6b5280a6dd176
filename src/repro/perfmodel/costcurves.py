"""Piecewise-linear per-cell cost curves (Section 3.1).

"T() returns the per-cell cost from a piecewise linear equation given the
phase and material type" — per-cell cost is tabulated at measured subgrid
sizes and interpolated linearly *in log(cells)* between them, which is how
one reads Figure 3's log-log axes.  Extrapolation clamps to the end values,
matching how the paper's model behaves outside its measured range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import as_float_array


@dataclass(frozen=True)
class CostCurve:
    """Per-cell cost versus cells-per-processor for one (phase, material).

    Attributes
    ----------
    cells:
        Ascending sample subgrid sizes (cells per processor), all positive.
    per_cell:
        Measured per-cell cost (seconds) at each sample size.

    >>> import numpy as np
    >>> curve = CostCurve(cells=np.array([1.0, 100.0]),
    ...                   per_cell=np.array([2.0, 1.0]))
    >>> curve(1.0), curve(100.0)  # exact at every sample
    (2.0, 1.0)
    >>> curve(1000.0)  # clamps outside the sampled range
    1.0
    >>> float(curve.subgrid_time(100.0))  # total phase time: T(n) * n
    100.0
    """

    cells: np.ndarray
    per_cell: np.ndarray

    def __post_init__(self) -> None:
        cells = as_float_array(self.cells, "cells")
        per_cell = as_float_array(self.per_cell, "per_cell")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "per_cell", per_cell)
        if cells.ndim != 1 or cells.shape != per_cell.shape or cells.size == 0:
            raise ValueError("cells and per_cell must be equal-length 1-D arrays")
        if np.any(cells <= 0):
            raise ValueError("sample sizes must be positive")
        if np.any(np.diff(cells) <= 0):
            raise ValueError("sample sizes must be strictly ascending")
        if np.any(per_cell < 0):
            raise ValueError("per-cell costs must be non-negative")

    def __call__(self, n) -> np.ndarray | float:
        """Interpolated per-cell cost at ``n`` cells per processor."""
        n_arr = np.asarray(n, dtype=np.float64)
        if np.any(n_arr <= 0):
            raise ValueError("cells per processor must be positive")
        out = np.interp(np.log(n_arr), np.log(self.cells), self.per_cell)
        # Strictly ascending samples can still collapse onto a duplicated
        # knot in log space (the ULP of log(n) exceeds the log-spacing of
        # close large abscissae), where np.interp answers every query with
        # the *first* colliding sample.  Resolve exact sample hits in the
        # original domain so the curve stays exact at every sample and is
        # right-continuous at duplicated knots.
        idx = np.minimum(np.searchsorted(self.cells, n_arr), self.cells.size - 1)
        out = np.where(self.cells[idx] == n_arr, self.per_cell[idx], out)
        return float(out) if np.isscalar(n) or n_arr.ndim == 0 else out

    def subgrid_time(self, n) -> np.ndarray | float:
        """Total phase time for a pure subgrid of ``n`` cells: ``T(n) · n``."""
        return self(n) * np.asarray(n, dtype=np.float64)


@dataclass(frozen=True)
class CostTable:
    """The full piecewise-linear cost function ``T(phase, material, n)``.

    Attributes
    ----------
    curves:
        ``curves[phase][material]`` → :class:`CostCurve`.
    """

    curves: tuple

    def __post_init__(self) -> None:
        if not self.curves or not all(len(row) == len(self.curves[0]) for row in self.curves):
            raise ValueError("curves must be a non-empty rectangular nested sequence")

    @property
    def num_phases(self) -> int:
        """Number of phases covered."""
        return len(self.curves)

    @property
    def num_materials(self) -> int:
        """Number of materials covered."""
        return len(self.curves[0])

    def per_cell(self, phase: int, material: int, n) -> float:
        """``T(phase, material, n)``: interpolated per-cell cost."""
        return self.curves[phase][material](n)

    def per_cell_grid(self, n) -> np.ndarray:
        """Every curve at subgrid size(s) ``n``: ``(phases, materials) + shape(n)``.

        Curves are elementwise, so evaluating one at an array of sizes
        gives bitwise the values of the scalar calls.
        """
        return np.array([[curve(n) for curve in row] for row in self.curves])

    def to_payload(self) -> dict:
        """Plain-JSON form; exact round trip (doubles serialise via ``repr``)."""
        return {
            "curves": [
                [
                    {"cells": curve.cells.tolist(), "per_cell": curve.per_cell.tolist()}
                    for curve in row
                ]
                for row in self.curves
            ]
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CostTable":
        """Rebuild a table from :meth:`to_payload` output."""
        return cls(
            curves=tuple(
                tuple(
                    CostCurve(
                        cells=np.array(curve["cells"], dtype=np.float64),
                        per_cell=np.array(curve["per_cell"], dtype=np.float64),
                    )
                    for curve in row
                )
                for row in payload["curves"]
            )
        )

    @classmethod
    def from_arrays(cls, cells: np.ndarray, per_cell: np.ndarray) -> "CostTable":
        """Build from a dense sample array ``per_cell[phase, material, sample]``."""
        per_cell = np.asarray(per_cell, dtype=np.float64)
        if per_cell.ndim != 3:
            raise ValueError("per_cell must be (phases, materials, samples)")
        rows = tuple(
            tuple(
                CostCurve(cells=cells, per_cell=per_cell[p, m])
                for m in range(per_cell.shape[1])
            )
            for p in range(per_cell.shape[0])
        )
        return cls(curves=rows)
