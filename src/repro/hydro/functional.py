"""Functional-mode numerics: every rank's real hydro, run in lockstep.

Functional runs execute the actual Lagrangian scheme on per-rank
:class:`~repro.hydro.state.RankState` objects.  Their *timing* is priced
exactly like a census run (the engine charges the census, never the
arrays), so the numerics need no simulated messages: :func:`run_functional`
walks :data:`~repro.machine.costdb.KRAK_SCHEDULE` over all ranks at once.

* Each phase runs its numerics on every rank, filling that rank's inputs
  to the phase's collectives.
* An allreduce combines the named quantity over ranks in rank order
  (:func:`repro.simmpi.collectives.combine`); a broadcast takes rank 0's
  value.  Unnamed collectives carry nothing anyone reads.
* A ghost update builds every rank's outgoing node-field copies first,
  then folds them into each receiver, neighbour by neighbour in the
  census's ghost-link order — what a real exchange delivers, since every
  rank posts its sends before it receives.
"""

from __future__ import annotations

import numpy as np

from repro.hydro import kernels
from repro.hydro.materials import KRAK_MATERIAL_MODELS, pressure_and_sound_speed
from repro.hydro.state import RankState
from repro.hydro.workload import WorkloadCensus
from repro.machine.costdb import (
    KRAK_SCHEDULE,
    STEP_ALLREDUCE,
    STEP_BCAST,
    STEP_GHOST,
)
from repro.simmpi.collectives import combine

#: Reduced quantities reported as the run's global diagnostics.
DIAGNOSTICS = (
    "total_mass", "total_ke", "total_ie", "total_momentum_x", "total_energy"
)


def run_functional(
    states: list[RankState], census: WorkloadCensus, iterations: int
) -> dict[str, float]:
    """Advance ``states`` in place by ``iterations`` Krak iterations.

    ``census`` supplies each rank's ghost neighbours in exchange order.
    Returns the final global diagnostics (the :data:`DIAGNOSTICS` plus
    ``dt`` and ``time``).  Raises ``FloatingPointError`` when the mesh
    tangles.
    """
    ghost_nbrs = [
        census.gn_dst[rows.start:rows.stop].tolist() for rows in census.ghost_links
    ]
    links = [{lk.nbr_rank: lk for lk in st.links} for st in states]
    time = 0.0
    diagnostics: dict[str, float] = {}
    for it in range(iterations):
        local = [{"iteration": it, "time": time} for _ in states]
        reduced: dict = {}
        for phase, steps in enumerate(KRAK_SCHEDULE):
            for st, inputs in zip(states, local):
                _phase_numerics(phase, st, inputs, reduced)
            for step in steps:
                if step.kind == STEP_GHOST:
                    _ghost_update(step, states, ghost_nbrs, links)
                elif not step.name:
                    continue
                elif step.kind == STEP_ALLREDUCE:
                    values = [inputs.get(step.name, 0.0) for inputs in local]
                    reduced[step.name] = combine(step.op, values)
                elif step.kind == STEP_BCAST:
                    reduced[step.name] = local[0].get(step.name, 0.0)
        dt = reduced["dt"]
        time = reduced["time"] + dt
        diagnostics = {name: reduced.get(name, 0.0) for name in DIAGNOSTICS}
        diagnostics.update(dt=dt, time=time)
    return diagnostics


def _phase_numerics(phase: int, st: RankState, local: dict, reduced: dict) -> None:
    """Run ``phase``'s real numerics on one rank.

    Fills ``local`` with this rank's inputs to the phase's collectives
    (and the volumes later phases need); ``reduced`` holds the global
    results of the iteration's collectives so far.
    """
    if phase == 0:  # timestep control
        local["active_cells"] = float(st.num_cells)
        local["dt"] = kernels.stable_dt(st)
    elif phase == 2:  # EOS evaluation
        st.pressure, st.sound_speed = pressure_and_sound_speed(
            st.material, st.rho, st.energy, st.burn_frac, KRAK_MATERIAL_MODELS
        )
        local["max_sound_speed"] = float(st.sound_speed.max())
    elif phase == 3:  # nodal mass
        st.node_mass[:] = kernels.scatter_corner_masses(st)
        local["total_mass"] = kernels.total_mass(st)
    elif phase == 4:  # corner forces
        st.viscosity = kernels.artificial_viscosity(st)
        st.fx[:], st.fy[:] = kernels.corner_forces(st)
    elif phase == 5:  # velocity / position update
        local["old_volume"] = st.volume.copy()
        kernels.advance_nodes(st, reduced["dt"])
        owned = st.node_owner == st.rank
        mom_x = st.node_mass[owned] * st.vx[owned]
        local["total_momentum_x"] = float(mom_x.sum())
        local["total_ke"] = kernels.kinetic_energy(st)
    elif phase == 7:  # volume / strain rate
        local["new_volume"] = kernels.compute_volumes(st)
        local["min_volume"] = float(local["new_volume"].min())
    elif phase == 8:  # density update
        if reduced["min_volume"] <= 0.0:
            raise FloatingPointError(
                "mesh tangled: non-positive cell volume encountered"
            )
        st.rho = st.cell_mass / np.maximum(local["new_volume"], 1e-300)
    elif phase == 10:  # energy update
        kernels.update_energy(st, local["old_volume"], local["new_volume"])
        st.volume = np.abs(local["new_volume"])
        local["total_ie"] = kernels.internal_energy(st)
    elif phase == 11:  # burn-fraction update
        frac = (reduced["time"] + reduced["dt"] - st.burn_arrival) / 2.0e-6
        st.burn_frac = np.clip(
            np.nan_to_num(frac, nan=0.0, neginf=0.0, posinf=1.0), 0.0, 1.0
        )
    elif phase == 14:  # diagnostics
        local["total_energy"] = local["total_ke"] + local["total_ie"]


def _ghost_update(step, states: list, ghost_nbrs: list, links: list) -> None:
    """Exchange ``step.fields`` on shared nodes between all neighbours.

    Each rank sends every neighbour two messages: the shared nodes it owns,
    then the rest.  ``"sum"`` adds both messages of each neighbour (phases
    4/5); owner-wins adopts the sender's values for the nodes the sender
    owns and ignores the second message (phase 7).  ``links[r]`` maps
    each of rank ``r``'s neighbours to its
    :class:`~repro.hydro.state.NeighborLink`.
    """
    sent: list[dict] = []
    for st, nbrs, by_nbr in zip(states, ghost_nbrs, links):
        arrays = [getattr(st, name) for name in step.fields]
        outgoing = {}
        for nbr in nbrs:
            link = by_nbr[nbr]
            idx = link.shared_local_idx
            mine = link.owner_of_shared == st.rank
            outgoing[nbr] = (
                [a[idx[mine]].copy() for a in arrays],
                [a[idx[~mine]].copy() for a in arrays],
            )
        sent.append(outgoing)
    for st, nbrs, by_nbr in zip(states, ghost_nbrs, links):
        arrays = [getattr(st, name) for name in step.fields]
        for nbr in nbrs:
            p_local, p_remote = sent[nbr][st.rank]
            link = by_nbr[nbr]
            idx = link.shared_local_idx
            from_nbr = link.owner_of_shared == nbr
            if step.op == "sum":
                for a, chunk in zip(arrays, p_local):
                    a[idx[from_nbr]] += chunk
                for a, chunk in zip(arrays, p_remote):
                    a[idx[~from_nbr]] += chunk
            else:
                for a, chunk in zip(arrays, p_local):
                    a[idx[from_nbr]] = chunk
