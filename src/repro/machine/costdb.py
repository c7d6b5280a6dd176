"""Krak iteration structure and default cost constants.

:data:`KRAK_SCHEDULE` is the single source of truth for one Krak iteration:
the paper's Table 1 (phase actions and synchronisation points) and Table 4
(collective sizes/counts).  The lowering and the op generator in
:mod:`repro.hydro.phases` and the lockstep numerics in
:mod:`repro.hydro.functional` all interpret it, and every ``PHASE_*``
table below is computed from it.  The module also holds the
default per-phase/per-material compute costs of the simulated machine.

Phase numbering is 0-based internally (phase index 0 = the paper's
"Phase 1").  The per-cell costs are chosen so that iteration times land in
the paper's range (hundreds of ms at 16 PEs down to tens of ms at 512 PEs on
the medium deck) with the cost-curve knee near ~10² cells per processor, the
regime where the paper's small-deck validation breaks down.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.machine.node import NodeModel
from repro.mesh.deck import NUM_MATERIALS

#: Krak iterations comprise 15 phases (paper Table 1).
NUM_PHASES = 15

# --- Communication kind per phase (Table 1, "Action" column) ---------------
COMM_NONE = "none"
COMM_BOUNDARY_EXCHANGE = "boundary_exchange"
COMM_GHOST_8 = "ghost_update_8"
COMM_GHOST_16 = "ghost_update_16"

# --- Step kinds of the iteration schedule -----------------------------------
STEP_ALLREDUCE = "allreduce"
STEP_BCAST = "bcast"
STEP_GATHER = "gather"
STEP_BOUNDARY = "boundary_exchange"
STEP_GHOST = "ghost_update"


class Step(NamedTuple):
    """One communication step of a Krak phase.

    Collectives (``kind`` an allreduce, bcast or gather, all rooted at rank
    0) carry their payload ``nbytes``, an allreduce also its reduction
    ``op``, and ``name`` is the quantity reduced, broadcast or gathered —
    empty for the placeholder synchronisations whose values nothing reads.
    A ghost update carries ``nbytes`` per ghost node, its combine ``op``
    (``"sum"`` or owner-wins ``"owner"``) and the node ``fields`` it moves.
    """

    kind: str
    nbytes: int = 0
    op: str = ""
    name: str = ""
    fields: tuple = ()


def _allreduce(nbytes: int, op: str, name: str = "") -> Step:
    return Step(STEP_ALLREDUCE, nbytes, op, name)


def _bcast(nbytes: int, name: str = "") -> Step:
    return Step(STEP_BCAST, nbytes, name=name)


def _ghost(bytes_per_node: int, combine: str, *fields: str) -> Step:
    return Step(STEP_GHOST, bytes_per_node, combine, fields=fields)


#: One Krak iteration: per phase, in program order, the communication steps
#: that follow the phase's compute charge.  Nine 4-byte and thirteen 8-byte
#: allreduces, three 4-byte and three 8-byte broadcasts and one 32-byte
#: gather per iteration (Table 4); the boundary exchange in phase 2 and
#: ghost-node updates of 8/16/16 bytes per node in phases 4, 5 and 7
#: (Table 1).
KRAK_SCHEDULE = (
    # 1: timestep control
    (_allreduce(4, "sum", "active_cells"), _allreduce(8, "min", "dt"),
     _bcast(4, "iteration"), _bcast(8, "time")),
    # 2: slip-line / contact search: broadcasts, boundary exchange, gather
    (_bcast(4), _bcast(8), Step(STEP_BOUNDARY),
     Step(STEP_GATHER, 32, name="boundary_links"), _allreduce(8, "sum")),
    # 3: EOS evaluation (computation only)
    (_allreduce(4, "max"), _allreduce(4, "sum"),
     _allreduce(8, "max", "max_sound_speed")),
    # 4: nodal mass accumulation
    (_ghost(8, "sum", "node_mass"), _allreduce(8, "sum", "total_mass")),
    # 5: corner forces + viscosity scatter
    (_ghost(16, "sum", "fx", "fy"), _allreduce(4, "max")),
    # 6: velocity / position update
    (_allreduce(4, "sum"), _allreduce(8, "sum", "total_momentum_x"),
     _allreduce(8, "sum", "total_ke")),
    # 7: velocity ghost sync
    (_ghost(16, "owner", "vx", "vy"), _allreduce(8, "max")),
    # 8: volume / strain rate
    (_allreduce(4, "min", "min_volume"),),
    # 9: density update
    (_allreduce(8, "max"),),
    # 10: artificial-viscosity coefficients
    (_allreduce(8, "max"),),
    # 11: energy update
    (_allreduce(4, "sum"), _allreduce(8, "sum", "total_ie")),
    # 12: burn-fraction update
    (_allreduce(8, "sum"),),
    # 13: hourglass filtering
    (_allreduce(4, "max"),),
    # 14: material strength models
    (_allreduce(8, "max"),),
    # 15: diagnostics + broadcasts
    (_allreduce(4, "sum"), _allreduce(8, "sum", "total_energy"),
     _bcast(4), _bcast(8)),
)


def _sizes(kind: str) -> tuple:
    """Per phase, the payload sizes of its ``kind`` steps in program order."""
    return tuple(
        tuple(s.nbytes for s in steps if s.kind == kind) for steps in KRAK_SCHEDULE
    )


def _comm_kind(steps) -> str:
    for s in steps:
        if s.kind == STEP_BOUNDARY:
            return COMM_BOUNDARY_EXCHANGE
        if s.kind == STEP_GHOST:
            return {8: COMM_GHOST_8, 16: COMM_GHOST_16}[s.nbytes]
    return COMM_NONE


#: Point-to-point activity per phase: phase 2 does the per-material boundary
#: exchange; phases 4, 5, 7 do ghost-node updates of 8/16/16 bytes per node.
PHASE_COMM_KIND = tuple(_comm_kind(steps) for steps in KRAK_SCHEDULE)

#: Bytes per ghost node moved by each ghost-update phase.
GHOST_BYTES_PER_NODE = {
    p: s.nbytes
    for p, steps in enumerate(KRAK_SCHEDULE)
    for s in steps
    if s.kind == STEP_GHOST
}

#: Allreduce payload sizes (bytes) per phase; flattening yields the
#: Table 4 census: nine 4-byte and thirteen 8-byte operations.
PHASE_ALLREDUCE_SIZES = _sizes(STEP_ALLREDUCE)

#: Global synchronisation points (allreduces) per phase; sums to 22
#: (Table 1's "Sync Points" column).
PHASE_SYNC_POINTS = tuple(len(sizes) for sizes in PHASE_ALLREDUCE_SIZES)

#: Broadcast payload sizes per phase (Table 1: phases 1, 2, 15 each
#: broadcast a 4-byte and an 8-byte value; Table 4 totals 3 + 3).
PHASE_BCASTS = {p: sizes for p, sizes in enumerate(_sizes(STEP_BCAST)) if sizes}

#: Gather payloads per phase (Table 1/4: one 32-byte gather in phase 2).
PHASE_GATHERS = {p: sizes for p, sizes in enumerate(_sizes(STEP_GATHER)) if sizes}

#: Bytes transferred per boundary face in a boundary-exchange message
#: (Section 4.1: "12 bytes times the number of faces").
BOUNDARY_BYTES_PER_FACE = 12
#: Extra bytes per ghost node touching more than one material (first two
#: messages of each per-material sextet).
BOUNDARY_BYTES_PER_MULTI_NODE = 12
#: Messages per material per neighbour, and in the final all-materials step.
BOUNDARY_MSGS_PER_STEP = 6

# --- Default compute costs --------------------------------------------------
# Per-cell cost in seconds per (phase, material); material order is
# HE gas, aluminum (inner), foam, aluminum (outer).  Phases 3, 11, 12 and 14
# are strongly material-dependent (EOS, energy, burn, strength), mirroring
# Figure 2's observation that e.g. phase 14 varies with material.
_US = 1e-6
DEFAULT_CELL_COST = np.array(
    [
        [0.20, 0.20, 0.20, 0.20],  # 1  timestep control
        [2.00, 1.90, 2.10, 1.90],  # 2  slip-line / contact search
        [3.20, 2.50, 3.00, 2.50],  # 3  EOS evaluation
        [1.00, 1.00, 1.00, 1.00],  # 4  nodal mass accumulation
        [3.00, 2.90, 3.10, 2.90],  # 5  corner forces + viscosity scatter
        [1.50, 1.50, 1.50, 1.50],  # 6  velocity / position update
        [0.80, 0.80, 0.80, 0.80],  # 7  velocity ghost preparation
        [1.80, 1.80, 1.80, 1.80],  # 8  volume / strain rate
        [0.60, 0.60, 0.60, 0.60],  # 9  density update
        [1.20, 1.20, 1.50, 1.20],  # 10 artificial-viscosity coefficients
        [2.00, 1.40, 1.60, 1.40],  # 11 energy update
        [1.50, 0.80, 0.80, 0.80],  # 12 burn-fraction update (HE-heavy)
        [1.40, 1.40, 1.40, 1.40],  # 13 hourglass filtering
        [0.80, 2.20, 2.60, 2.20],  # 14 material strength models
        [0.40, 0.40, 0.40, 0.40],  # 15 diagnostics
    ]
) * _US

#: Fixed per-phase overhead in seconds: places the per-cell cost-curve knee
#: near overhead / cell_cost ≈ 10³ cells per processor (Figure 3), which is
#: also what keeps the medium deck's strong scaling from being ideal at
#: 256–512 PEs (Tables 5–6: 61 → 49 → 44 ms instead of halving).
DEFAULT_PHASE_OVERHEAD = np.array(
    [
        520.0,  # 1
        2780.0,  # 2   (the paper singles out phase 2's knee, Figure 3 centre)
        2260.0,  # 3
        780.0,  # 4
        1820.0,  # 5
        1040.0,  # 6
        610.0,  # 7
        1130.0,  # 8
        430.0,  # 9
        870.0,  # 10
        1300.0,  # 11
        960.0,  # 12
        1040.0,  # 13
        2080.0,  # 14
        390.0,  # 15
    ]
) * _US


def krak_node_model(
    speed: float = 1.0,
    cache_cells: float = 40000.0,
    cache_penalty: float = 0.20,
    jitter_frac: float = 0.015,
    seed: int = 0,
) -> NodeModel:
    """Build the default Krak :class:`~repro.machine.node.NodeModel`.

    Parameters
    ----------
    speed:
        Relative processor speed; costs scale as ``1 / speed`` (used by the
        what-if example to model faster procurement candidates).
    """
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    assert DEFAULT_CELL_COST.shape == (NUM_PHASES, NUM_MATERIALS)
    return NodeModel(
        phase_overhead=DEFAULT_PHASE_OVERHEAD / speed,
        cell_cost=DEFAULT_CELL_COST / speed,
        cache_cells=cache_cells,
        cache_penalty=cache_penalty,
        jitter_frac=jitter_frac,
        seed=seed,
    )


def table4_census() -> dict:
    """Derive the Table 4 collective census from the phase structure."""
    bcast4 = sum(1 for sizes in PHASE_BCASTS.values() for s in sizes if s == 4)
    bcast8 = sum(1 for sizes in PHASE_BCASTS.values() for s in sizes if s == 8)
    all4 = sum(1 for sizes in PHASE_ALLREDUCE_SIZES for s in sizes if s == 4)
    all8 = sum(1 for sizes in PHASE_ALLREDUCE_SIZES for s in sizes if s == 8)
    gathers = [(s, 1) for sizes in PHASE_GATHERS.values() for s in sizes]
    return {
        "MPI_Bcast": {4: bcast4, 8: bcast8},
        "MPI_Allreduce": {4: all4, 8: all8},
        "MPI_Gather": dict((s, c) for s, c in gathers),
    }
