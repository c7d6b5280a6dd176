"""The "mesh-specific" (input-specific) model of Sections 3.1 / 5.1.

Uses *precise* partitioning information: the exact per-processor material
census for Equation (3), and the exact per-neighbour boundary-face and
ghost-node counts for Equations (5)–(7).  Communication is charged with no
overlap (the paper's stated approximation): each rank's point-to-point time
is the serial sum over its neighbours, and the modelled iteration takes the
max-over-ranks of that, plus the collective total.

With a :class:`~repro.machine.hierarchy.HierarchicalNetwork` (optionally
carrying an explicit rank→node placement), every link is priced by its
actual endpoint nodes — shared memory on-node, the fabric across nodes —
instead of one flat network, and collectives use the SMP two-level trees.

One body prices every census: the links of the columnar
:class:`~repro.hydro.workload.WorkloadCensus` are priced by
:func:`~repro.perfmodel.sparse_mesh.link_wire_times` in the serial
per-neighbour order, and per-rank sums accumulate in link order.
The result is bitwise identical to pricing each link on its own
(``tests/goldens/mesh_model.json`` pins it), and the same body serves the
weak-scaled censuses at 10^6 ranks in O(edges + log P).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perfmodel.collectives import collectives_time, hier_collectives_time
from repro.perfmodel.computation import computation_time
from repro.perfmodel.costcurves import CostTable
from repro.perfmodel.runtime import PredictedTime
from repro.hydro.workload import WorkloadCensus
from repro.perfmodel.sparse_mesh import link_wire_times
from repro.machine.network import NetworkModel


@dataclass(frozen=True)
class MeshSpecificModel:
    """Input-specific performance model.

    Attributes
    ----------
    table:
        Calibrated piecewise-linear cost table.
    network:
        Message-cost model (Equation 4 parameters).
    include_multi_surcharge:
        Charge the 12-byte-per-multi-material-ghost-node surcharge on the
        first two messages of each sextet (the Table 3 refinement).  The
        printed Equation (5) omits it; default on, as the mesh-specific
        model has the information.
    hierarchy:
        Optional SMP two-level network.  When set, point-to-point links are
        priced pairwise by their endpoint nodes (under the hierarchy's
        placement — block unless an explicit
        :class:`~repro.placement.base.Placement` was attached) and
        collectives use the node-then-leader trees; ``network`` is ignored
        for communication terms.  ``None`` keeps the paper's flat pricing.
    """

    table: CostTable
    network: NetworkModel
    include_multi_surcharge: bool = True
    hierarchy: object | None = None

    def computation(self, census: WorkloadCensus) -> float:
        """Equation (3) over the distinct per-rank material profiles.

        The per-phase max over ranks equals the max over distinct rows.
        """
        return computation_time(self.table, census.cell_profiles)

    def _link_times(self, census: WorkloadCensus) -> tuple[np.ndarray, np.ndarray]:
        """Per-link ``(boundary, ghost)`` times, each link priced by the
        network level its endpoints use."""
        if self.hierarchy is None:
            return link_wire_times(census, self.network, self.include_multi_surcharge)
        intra = link_wire_times(
            census, self.hierarchy.intra, self.include_multi_surcharge
        )
        inter = link_wire_times(
            census, self.hierarchy.inter, self.include_multi_surcharge
        )
        same_be = self.hierarchy.same_node_mask(census.be_src, census.be_dst)
        same_gn = self.hierarchy.same_node_mask(census.gn_src, census.gn_dst)
        return (
            np.where(same_be, intra[0], inter[0]),
            np.where(same_gn, intra[1], inter[1]),
        )

    def point_to_point(self, census: WorkloadCensus) -> tuple[float, float]:
        """Max-over-ranks boundary-exchange and ghost-update times.

        Each rank's time is the serial sum of its links' times in link
        order (``np.add.at`` accumulates sequentially).
        """
        be_link, gn_link = self._link_times(census)
        be_by_rank = np.zeros(census.num_ranks, dtype=np.float64)
        gn_by_rank = np.zeros(census.num_ranks, dtype=np.float64)
        np.add.at(be_by_rank, census.be_src, be_link)
        np.add.at(gn_by_rank, census.gn_src, gn_link)
        return float(be_by_rank.max()), float(gn_by_rank.max())

    def predict(self, census: WorkloadCensus) -> PredictedTime:
        """Full per-iteration prediction from a workload census."""
        be, gn = self.point_to_point(census)
        if self.hierarchy is None:
            coll = collectives_time(self.network, census.num_ranks)
        else:
            coll = hier_collectives_time(self.hierarchy, census.num_ranks)
        return PredictedTime(
            computation=self.computation(census),
            boundary_exchange=be,
            ghost_updates=gn,
            collectives=coll,
        )
