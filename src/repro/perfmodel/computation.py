"""The computation model: Equations (1)–(3) of the paper.

``T_comp(Phases, PEs, Cells) = Σ_phases max_ranks Σ_materials
T(phase, material, |Cells_j|) · Cells_{j,m}`` — per-phase times are maxima
over processors because phases end in global synchronisations, and the
per-cell cost is evaluated at each processor's *total* local cell count
``|Cells_j|``.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.costcurves import CostTable
from repro.util import row_dots


def _validate(cells_matrix: np.ndarray, table: CostTable) -> np.ndarray:
    cells_matrix = np.asarray(cells_matrix, dtype=np.float64)
    if cells_matrix.ndim != 2:
        raise ValueError("cells_matrix must be (num_ranks, num_materials)")
    if cells_matrix.shape[1] != table.num_materials:
        raise ValueError(
            f"cells_matrix has {cells_matrix.shape[1]} materials, "
            f"table covers {table.num_materials}"
        )
    if np.any(cells_matrix < 0):
        raise ValueError("cell counts must be non-negative")
    return cells_matrix


def computation_time_by_phase(table: CostTable, cells_matrix: np.ndarray) -> np.ndarray:
    """Per-phase computation times (the summands of Equation 3).

    Equation (2) for every phase at once: every curve is evaluated once,
    over the totals of every rank that holds cells; each (rank, phase) time
    is that rank's row of per-cell costs contracted with its cell counts
    (:func:`~repro.util.row_dots`), and each phase keeps its slowest rank.
    """
    cells_matrix = _validate(cells_matrix, table)
    totals = cells_matrix.sum(axis=1)
    active = np.flatnonzero(totals > 0)
    #: per_cell[i, p, m]: phase p's per-cell cost of material m on rank active[i].
    per_cell = table.per_cell_grid(totals[active])
    times = row_dots(per_cell, cells_matrix[active][:, None, :])
    return times.max(axis=0, initial=0.0)


def phase_computation_time(
    table: CostTable, phase: int, cells_matrix: np.ndarray
) -> float:
    """Equation (2): max over processors of the phase's subgrid time."""
    return float(computation_time_by_phase(table, cells_matrix)[phase])


def computation_time(table: CostTable, cells_matrix: np.ndarray) -> float:
    """Equation (3): total per-iteration computation time."""
    return float(computation_time_by_phase(table, cells_matrix).sum())
