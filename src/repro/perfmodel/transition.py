"""The heterogeneous→homogeneous *transition* model (the paper's future work).

Section 3.2: "The material composition of each processor's subdomain
transitions from being more heterogeneous (with the ratio of materials
matching the ratio of materials in the global spatial grid when only a
single processor is used) to more homogeneous.  **The Krak model does not
yet have a way to model this transition**; however, at large processor
counts, the homogeneous case seems to adequately model true application
behavior."

This module supplies that missing piece.  The input decks are radially
*layered* (Figure 1), so a square subgrid of side ``s = sqrt(Cells/PEs)``
cells at radial offset ``x`` has a material composition determined entirely
by how ``[x, x + s)`` overlaps the layer intervals.  Equation (2)'s
max-over-processors then becomes a maximisation over ``x``:

``T_phase = n · max_x Σ_m T(phase, m, n) · f_m(x)``

where ``f_m(x)`` is material ``m``'s column-overlap fraction.  The maximum
of this piecewise-linear function is attained at a layer-boundary breakpoint,
so it is evaluated exactly.  Communication uses the *same* worst subgrid:
its boundary carries only the materials present at the maximising offset,
which smoothly reduces the per-material message count from "all materials"
at small P to one material at large P — removing the heterogeneous
variant's large-scale over-prediction by construction.

At ``P = 1`` this model reduces to the heterogeneous variant (global
ratios); at large ``P`` it converges to the homogeneous variant (worst
single material, single-material boundaries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mesh.deck import InputDeck, NUM_MATERIALS
from repro.perfmodel.boundary import boundary_exchange_time
from repro.perfmodel.collectives import collectives_time
from repro.perfmodel.costcurves import CostTable
from repro.perfmodel.ghostmodel import ghost_phase_total
from repro.perfmodel.runtime import PredictedTime
from repro.machine.network import NetworkModel
from repro.util import row_dots


@dataclass(frozen=True)
class LayeredProfile:
    """The deck's radial layer structure in cell columns.

    Attributes
    ----------
    boundaries:
        Cumulative column counts: layer ``m`` spans columns
        ``[boundaries[m], boundaries[m+1])``; length ``NUM_MATERIALS + 1``.
    nx, ny:
        Logical deck extents in cells.
    """

    boundaries: np.ndarray
    nx: int
    ny: int

    def __post_init__(self) -> None:
        b = np.ascontiguousarray(self.boundaries, dtype=np.float64)
        object.__setattr__(self, "boundaries", b)
        if b.shape != (NUM_MATERIALS + 1,):
            raise ValueError(f"need {NUM_MATERIALS + 1} boundaries")
        if b[0] != 0 or b[-1] != self.nx or np.any(np.diff(b) <= 0):
            raise ValueError("boundaries must ascend from 0 to nx")

    @classmethod
    def from_deck(cls, deck: InputDeck) -> "LayeredProfile":
        """Extract the layer boundaries from a structured layered deck."""
        mesh = deck.mesh
        if not mesh.is_structured:
            raise ValueError("transition model needs a structured layered deck")
        first_row = deck.cell_material[: mesh.nx]
        if np.any(np.diff(first_row) < 0):
            raise ValueError("deck is not radially layered")
        boundaries = np.zeros(NUM_MATERIALS + 1)
        for m in range(NUM_MATERIALS):
            boundaries[m + 1] = int(np.searchsorted(first_row, m, side="right"))
        if boundaries[-1] != mesh.nx:
            raise ValueError("deck does not use every material")
        return cls(boundaries=boundaries, nx=mesh.nx, ny=mesh.ny)

    def overlap_fractions(self, x: float, side: float) -> np.ndarray:
        """Material fractions of a subgrid spanning columns ``[x, x+side)``."""
        lo = self.boundaries[:-1]
        hi = self.boundaries[1:]
        overlap = np.minimum(x + side, hi) - np.maximum(x, lo)
        return np.clip(overlap, 0.0, None) / side

    def candidate_offsets(self, side: float) -> np.ndarray:
        """Radial offsets where a subgrid's composition can be extremal.

        The per-phase cost is piecewise linear in ``x``; its maximum sits at
        a breakpoint: the domain ends or a layer boundary touching either
        subgrid edge.
        """
        cands = [0.0, self.nx - side]
        for b in self.boundaries[1:-1]:
            cands.extend((b - side, b))
        arr = np.clip(np.array(cands), 0.0, max(self.nx - side, 0.0))
        return np.unique(arr)


@dataclass(frozen=True)
class TransitionModel:
    """General model with the heterogeneity→homogeneity transition.

    Attributes
    ----------
    table, network:
        As in the other model variants.
    profile:
        The deck's radial layer structure.
    neighbors:
        Neighbours per square subdomain (4, as in the general model).
    """

    table: CostTable
    network: NetworkModel
    profile: LayeredProfile
    neighbors: int = 4

    @classmethod
    def for_deck(
        cls, deck: InputDeck, table: CostTable, network: NetworkModel
    ) -> "TransitionModel":
        """Build the model from a layered deck."""
        return cls(table=table, network=network, profile=LayeredProfile.from_deck(deck))

    # ------------------------------------------------------------ internals

    def _subgrid_side(self, total_cells: int, num_ranks: int) -> float:
        """Square-subgrid side in cells, capped at the deck's radial extent."""
        return min(math.sqrt(total_cells / num_ranks), float(self.profile.nx))

    def _candidates(self, total_cells: int, num_ranks: int) -> tuple:
        """The candidate subgrids' offsets and ``(offsets, materials)`` fractions."""
        side = self._subgrid_side(total_cells, num_ranks)
        offsets = self.profile.candidate_offsets(side)
        return offsets, np.stack([self.profile.overlap_fractions(x, side) for x in offsets])

    def worst_subgrid(self, total_cells: int, num_ranks: int) -> tuple[float, np.ndarray]:
        """The radial offset and composition of the slowest subgrid.

        Maximises the full-iteration computation over candidate offsets;
        because every phase is separated by a synchronisation, the per-phase
        maxima could in principle come from *different* subgrids, and we
        honour that: the returned composition maximises the per-iteration
        sum, while :meth:`computation` applies the max per phase.
        """
        offsets, fracs = self._candidates(total_cells, num_ranks)
        grid = self.table.per_cell_grid(total_cells / num_ranks)
        per_phase = row_dots(grid, fracs[:, None, :])  # (offsets, phases)
        best = int(np.argmax([sum(row) for row in per_phase.tolist()]))
        return float(offsets[best]), fracs[best]

    # ---------------------------------------------------------------- parts

    def computation(self, total_cells: int, num_ranks: int) -> float:
        """Equation (3) with per-phase maxima over candidate subgrids."""
        n = total_cells / num_ranks
        if n < 1:
            raise ValueError("fewer than one cell per processor")
        _, fracs = self._candidates(total_cells, num_ranks)
        grid = self.table.per_cell_grid(n)
        # One ``fracs @ grid[p]`` per phase, as a batch: (phases, offsets).
        worst = np.matmul(fracs, grid[:, :, None])[..., 0].max(axis=1) * n
        total = 0.0
        for t in worst.tolist():  # summed in phase order
            total += t
        return total

    def boundary_exchange(self, total_cells: int, num_ranks: int) -> float:
        """Equation (5) with only the worst subgrid's materials in use."""
        if num_ranks == 1:
            return 0.0
        b = math.sqrt(total_cells / num_ranks)
        _, fracs = self.worst_subgrid(total_cells, num_ranks)
        present = fracs > 1e-12
        in_use = int(np.count_nonzero(present))
        faces = np.where(present, b / in_use, 0.0)
        return self.neighbors * boundary_exchange_time(self.network, faces, None)

    def ghost_updates(self, total_cells: int, num_ranks: int) -> float:
        """Equations (6)–(7), identical to the general model."""
        if num_ranks == 1:
            return 0.0
        b = math.sqrt(total_cells / num_ranks)
        half = (b + 1.0) / 2.0
        return self.neighbors * ghost_phase_total(self.network, half, half)

    def predict(self, total_cells: int, num_ranks: int) -> PredictedTime:
        """Full per-iteration prediction."""
        if total_cells <= 0 or num_ranks <= 0:
            raise ValueError("total_cells and num_ranks must be positive")
        return PredictedTime(
            computation=self.computation(total_cells, num_ranks),
            boundary_exchange=self.boundary_exchange(total_cells, num_ranks),
            ghost_updates=self.ghost_updates(total_cells, num_ranks),
            collectives=collectives_time(self.network, num_ranks) if num_ranks > 1 else 0.0,
        )
