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


def phase_computation_time(
    table: CostTable, phase: int, cells_matrix: np.ndarray
) -> float:
    """Equation (2): max over processors of the phase's subgrid time.

    Each material's curve is evaluated once, over the totals of every
    rank that holds cells; each rank's time is then its own row of
    per-cell costs contracted with its cell counts.
    """
    cells_matrix = _validate(cells_matrix, table)
    totals = cells_matrix.sum(axis=1)
    active = np.flatnonzero(totals > 0)
    #: per_cell[i, m]: material m's per-cell cost on rank active[i].
    per_cell = np.stack(
        [curve(totals[active]) for curve in table.curves[phase]], axis=1
    )
    best = 0.0
    for row, j in zip(per_cell, active.tolist()):
        t = float(row @ cells_matrix[j])
        if t > best:
            best = t
    return best


def computation_time_by_phase(table: CostTable, cells_matrix: np.ndarray) -> np.ndarray:
    """Per-phase computation times (the summands of Equation 3)."""
    cells_matrix = _validate(cells_matrix, table)
    return np.array(
        [
            phase_computation_time(table, p, cells_matrix)
            for p in range(table.num_phases)
        ]
    )


def computation_time(table: CostTable, cells_matrix: np.ndarray) -> float:
    """Equation (3): total per-iteration computation time."""
    return float(computation_time_by_phase(table, cells_matrix).sum())
