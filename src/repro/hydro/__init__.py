"""MiniKrak: a 2-D multi-material Lagrangian hydrodynamics mini-app.

This is the reproduction's stand-in for the proprietary 270 kLoC Krak code.
It implements what the paper *describes*: a Lagrangian scheme on a
quadrilateral spatial grid (cells → faces → nodes), one material per cell,
programmed-burn high explosive, and an iteration built from the paper's
exact 15 phases (Table 1) with boundary exchanges, ghost-node updates, and
collectives in the documented places.

Every run is priced the same way: compute time charged from the per-rank
material census through the machine cost model, messages carrying sizes
only, lowered to the engine's event tables (how iteration times are
"measured" at any scale).  A **functional** run additionally executes the
real vectorised numerics per rank, walking the same phase schedule in
lockstep with actual ghost-node data exchange (used by correctness tests
and small demos; see :mod:`repro.hydro.functional`).
"""

from repro.hydro.materials import (
    MaterialModel,
    KRAK_MATERIAL_MODELS,
    pressure_and_sound_speed,
)
from repro.hydro.burn import ProgrammedBurn
from repro.hydro.state import RankState, build_rank_states, NeighborLink
from repro.hydro.workload import WorkloadCensus, build_workload_census
from repro.hydro.dynamic import (
    REPARTITION_PHASE,
    DynamicController,
    DynamicRunInfo,
    DynamicSpec,
    IterationRecord,
)
from repro.hydro.driver import (
    KrakRun,
    MeasuredIteration,
    run_krak,
    measure_iteration_time,
)

__all__ = [
    "MaterialModel",
    "KRAK_MATERIAL_MODELS",
    "pressure_and_sound_speed",
    "ProgrammedBurn",
    "RankState",
    "build_rank_states",
    "NeighborLink",
    "WorkloadCensus",
    "build_workload_census",
    "REPARTITION_PHASE",
    "DynamicController",
    "DynamicRunInfo",
    "DynamicSpec",
    "IterationRecord",
    "KrakRun",
    "MeasuredIteration",
    "run_krak",
    "measure_iteration_time",
]
