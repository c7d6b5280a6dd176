"""The "general" model of Sections 3.2 / 5.2.

Abstractions (quoted from the paper):

* "Each processor's subdomain is assumed to contain an equal number of
  cells."
* "Each subdomain is assumed to be square, so that each boundary between
  processors contains ``sqrt(Cells/PEs)`` faces" — and four neighbours.
* "The number of ghost nodes on each boundary is one more than the number
  of boundary faces, and half of the ghost nodes on each boundary are
  local … with the remaining half remote."
* "Boundary faces are divided equally among the materials in use."
* **Heterogeneous**: every subgrid holds the global material ratios
  (Table 2) — and, deliberately, identical materials are *not* merged in
  the boundary exchange, which is what makes this variant over-predict at
  scale (Section 5.2).
* **Homogeneous**: each subgrid is a single material; per phase, the most
  computationally taxing material determines the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mesh.deck import NUM_MATERIALS, TABLE2_HETEROGENEOUS
from repro.perfmodel.boundary import boundary_exchange_time
from repro.perfmodel.collectives import collectives_time
from repro.perfmodel.costcurves import CostTable
from repro.perfmodel.ghostmodel import ghost_phase_total
from repro.perfmodel.runtime import PredictedTime
from repro.machine.network import NetworkModel
from repro.util import row_dots

#: Table 2's heterogeneous material ratios, re-exported for the benches.
TABLE2_RATIOS = TABLE2_HETEROGENEOUS

_MODES = ("homogeneous", "heterogeneous")


@dataclass(frozen=True)
class GeneralModel:
    """The scalable general model.

    Attributes
    ----------
    table:
        Calibrated cost table.
    network:
        Message-cost model.
    mode:
        ``"homogeneous"`` (single worst material per subgrid — accurate at
        large processor counts) or ``"heterogeneous"`` (global ratios per
        subgrid — accurate at small counts, over-predicting at scale).
    ratios:
        Global material ratios used by the heterogeneous variant.
    neighbors:
        Neighbours per square subdomain (4).
    """

    table: CostTable
    network: NetworkModel
    mode: str = "homogeneous"
    ratios: tuple = TABLE2_RATIOS
    neighbors: int = 4

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if len(self.ratios) != NUM_MATERIALS:
            raise ValueError(f"need {NUM_MATERIALS} ratios")
        if any(r < 0 for r in self.ratios):
            raise ValueError("ratios must be non-negative")
        if not math.isclose(sum(self.ratios), 1.0, rel_tol=1e-6):
            raise ValueError("ratios must sum to 1")
        if not any(r > 0 for r in self.ratios):
            raise ValueError("at least one material must be in use")
        if self.neighbors < 1:
            raise ValueError("neighbors must be >= 1")

    # ------------------------------------------------------------ computation

    def computation(self, total_cells: int, num_ranks: int) -> float:
        """Equation (3) under the equal-square-subgrid abstraction."""
        n = total_cells / num_ranks
        if n < 1:
            raise ValueError("fewer than one cell per processor")
        per_cell = self.table.per_cell_grid(n)
        if self.mode == "heterogeneous":
            per_phase = row_dots(per_cell, np.asarray(self.ratios) * n)
        else:
            # The most computationally taxing material, per phase.
            per_phase = per_cell.max(axis=1) * n
        total = 0.0
        for t in per_phase.tolist():  # summed in phase order
            total += t
        return total

    # ---------------------------------------------------------- communication

    def boundary_faces_per_side(self, total_cells: int, num_ranks: int) -> float:
        """sqrt(Cells/PEs) faces on each of the four subdomain boundaries."""
        return math.sqrt(total_cells / num_ranks)

    def boundary_exchange(self, total_cells: int, num_ranks: int) -> float:
        """Per-iteration boundary-exchange time (Equation 5, per neighbour)."""
        if num_ranks == 1:
            return 0.0
        b = self.boundary_faces_per_side(total_cells, num_ranks)
        if self.mode == "heterogeneous":
            # "Boundary faces are divided equally among the materials in
            # use"; identical materials deliberately NOT merged (the paper's
            # stated behaviour, and its large-scale failure mode).
            in_use = sum(1 for r in self.ratios if r > 0)
            faces = np.array([b / in_use if r > 0 else 0.0 for r in self.ratios])
        else:
            faces = np.array([b])
        return self.neighbors * boundary_exchange_time(self.network, faces, None)

    def ghost_updates(self, total_cells: int, num_ranks: int) -> float:
        """Per-iteration ghost-update time (Equations 6–7, per neighbour)."""
        if num_ranks == 1:
            return 0.0
        half = (self.boundary_faces_per_side(total_cells, num_ranks) + 1.0) / 2.0
        return self.neighbors * ghost_phase_total(self.network, half, half)

    # ----------------------------------------------------------------- total

    def predict(self, total_cells: int, num_ranks: int) -> PredictedTime:
        """Full per-iteration prediction for ``total_cells`` on ``num_ranks``."""
        if total_cells <= 0 or num_ranks <= 0:
            raise ValueError("total_cells and num_ranks must be positive")
        return PredictedTime(
            computation=self.computation(total_cells, num_ranks),
            boundary_exchange=self.boundary_exchange(total_cells, num_ranks),
            ghost_updates=self.ghost_updates(total_cells, num_ranks),
            collectives=collectives_time(self.network, num_ranks) if num_ranks > 1 else 0.0,
        )
