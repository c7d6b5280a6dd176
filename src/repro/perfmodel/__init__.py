"""The paper's analytic performance model (the core contribution).

Composition (Section 5): total iteration time = computation (Equations 1–3,
from piecewise-linear per-cell cost curves) + communication (Equations 4–10:
boundary exchange, ghost-node updates, binary-tree collectives), with no
computation/communication overlap assumed.

Two model flavours are provided, as in the paper:

* :class:`~repro.perfmodel.mesh_specific.MeshSpecificModel` — consumes the
  exact partition and material census ("input-specific");
* :class:`~repro.perfmodel.general.GeneralModel` — equal square subgrids,
  with *heterogeneous* (global material ratios per subgrid) or
  *homogeneous* (worst single material) composition.
"""

from repro.perfmodel.costcurves import CostCurve, CostTable
from repro.perfmodel.calibrate import (
    FittedCalibration,
    calibrate_contrived_grid,
    calibrate_linear_system,
    default_sample_sides,
    fit_cost_table,
    fit_network,
    fit_phase_costs,
    merge_duplicate_abscissae,
)
from repro.perfmodel.computation import (
    phase_computation_time,
    computation_time,
    computation_time_by_phase,
)
from repro.perfmodel.boundary import (
    boundary_exchange_time,
    boundary_message_sizes,
)
from repro.perfmodel.ghostmodel import (
    ghost_update_time,
    ghost_phase_total,
)
from repro.perfmodel.collectives import (
    broadcast_time,
    allreduce_total_time,
    gather_total_time,
    collectives_time,
    hier_collectives_time,
)
from repro.perfmodel.runtime import PredictedTime
from repro.perfmodel.mesh_specific import MeshSpecificModel
from repro.perfmodel.sparse_mesh import (
    link_wire_times,
    weak_scaled_census,
)
from repro.perfmodel.general import GeneralModel, TABLE2_RATIOS
from repro.perfmodel.transition import LayeredProfile, TransitionModel

__all__ = [
    "CostCurve",
    "CostTable",
    "FittedCalibration",
    "calibrate_contrived_grid",
    "calibrate_linear_system",
    "default_sample_sides",
    "fit_cost_table",
    "fit_network",
    "fit_phase_costs",
    "merge_duplicate_abscissae",
    "phase_computation_time",
    "computation_time",
    "computation_time_by_phase",
    "boundary_exchange_time",
    "boundary_message_sizes",
    "ghost_update_time",
    "ghost_phase_total",
    "broadcast_time",
    "allreduce_total_time",
    "gather_total_time",
    "collectives_time",
    "hier_collectives_time",
    "PredictedTime",
    "MeshSpecificModel",
    "link_wire_times",
    "weak_scaled_census",
    "GeneralModel",
    "TABLE2_RATIOS",
    "LayeredProfile",
    "TransitionModel",
]
