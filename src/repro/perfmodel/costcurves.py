"""Piecewise-linear per-cell cost curves (Section 3.1).

"T() returns the per-cell cost from a piecewise linear equation given the
phase and material type" — per-cell cost is tabulated at measured subgrid
sizes and interpolated linearly *in log(cells)* between them, which is how
one reads Figure 3's log-log axes.  Extrapolation clamps to the end values,
matching how the paper's model behaves outside its measured range.  Every
curve of a table shares one knot vector, so a table evaluates all of its
curves at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import as_float_array


def _knot_terms(cells: np.ndarray, costs: np.ndarray) -> tuple:
    """``(cells, log knots, slopes, costs)`` of the curves on the last axis
    of ``costs``, knot axis first, as :func:`_interpolate` reads them.  The
    slopes are ``np.interp``'s; those of knots colliding in log space are
    never read."""
    logk = np.log(cells)
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.diff(costs, axis=-1) / np.diff(logk)
    return cells, logk, np.moveaxis(slopes, -1, 0).copy(), np.moveaxis(costs, -1, 0).copy()


def _interpolate(cells, logk, slopes, costs, n) -> np.ndarray:
    """Every curve of :func:`_knot_terms` at sizes ``n``: ``shape(n) +
    costs.shape[1:]``, each value bitwise ``np.interp(np.log(n), logk,
    curve)`` — the end samples beyond the knots, the sample on a knot, else
    ``slope[j]·(log n − logk[j]) + cost[j]`` for the last knot ``j`` at or
    below.  Close large knots can collide in log space, where that answers
    with the last colliding sample, so exact sample hits are then resolved
    in the cells domain: the curve is exact at every sample."""
    x = np.asarray(n, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError("cells per processor must be positive")
    last = cells.size - 1
    hit = np.minimum(np.searchsorted(cells, x), last)
    if last == 0:
        return costs[hit]
    tail = (...,) + (None,) * (costs.ndim - 1)
    lx = np.log(x)
    below = np.searchsorted(logk, lx, "right") - 1
    j = np.clip(below, 0, last - 1)
    with np.errstate(invalid="ignore"):
        out = slopes[j] * (lx - logk[j])[tail] + costs[j]
    on_knot = (lx < logk[0]) | (lx >= logk[last]) | (lx == logk[j])
    on_sample = cells[hit] == x
    at = np.where(on_sample, hit, np.clip(below, 0, last))
    return np.where((on_knot | on_sample)[tail], costs[at], out)


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
        out = _interpolate(*_knot_terms(self.cells, self.per_cell), n)
        return float(out) if np.isscalar(n) or out.ndim == 0 else out

    def subgrid_time(self, n) -> np.ndarray | float:
        """Total phase time for a pure subgrid of ``n`` cells: ``T(n) · n``."""
        return self(n) * np.asarray(n, dtype=np.float64)


@dataclass(frozen=True)
class CostTable:
    """The full piecewise-linear cost function ``T(phase, material, n)``,
    also held stacked: the knots ``cells`` and ``costs[phase, material, knot]``.

    Attributes
    ----------
    curves:
        ``curves[phase][material]`` → :class:`CostCurve`.
    """

    curves: tuple

    def __post_init__(self) -> None:
        if not self.curves or not all(len(row) == len(self.curves[0]) for row in self.curves):
            raise ValueError("curves must be a non-empty rectangular nested sequence")
        cells = self.curves[0][0].cells
        for phase, row in enumerate(self.curves):
            for material, curve in enumerate(row):
                if not np.array_equal(curve.cells, cells):
                    raise ValueError(f"curve (phase {phase}, material {material}) is "
                                     "sampled at other cells than curve (0, 0)")
        costs = np.array([[curve.per_cell for curve in row] for row in self.curves])
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "_knots", _knot_terms(cells, costs))

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
        """Every curve at subgrid size(s) ``n``: ``shape(n) + (phases, materials)``."""
        return _interpolate(*self._knots, n)

    def to_payload(self) -> dict:
        """Plain-JSON form; exact round trip (doubles serialise via ``repr``)."""
        return {"curves": [
            [{"cells": c.cells.tolist(), "per_cell": c.per_cell.tolist()} for c in row]
            for row in self.curves
        ]}

    @classmethod
    def from_payload(cls, payload: dict) -> "CostTable":
        """Rebuild a table from :meth:`to_payload` output."""
        return cls(curves=tuple(
            tuple(CostCurve(cells=c["cells"], per_cell=c["per_cell"]) for c in row)
            for row in payload["curves"]
        ))

    @classmethod
    def from_arrays(cls, cells: np.ndarray, per_cell: np.ndarray) -> "CostTable":
        """Build from a dense sample array ``per_cell[phase, material, sample]``."""
        per_cell = np.asarray(per_cell, dtype=np.float64)
        if per_cell.ndim != 3:
            raise ValueError("per_cell must be (phases, materials, samples)")
        return cls(curves=tuple(
            tuple(CostCurve(cells=cells, per_cell=curve) for curve in phase)
            for phase in per_cell
        ))
