"""The 15-phase Krak iteration as a simulated-MPI rank program.

The iteration itself — which phases broadcast, which do the boundary
exchange and the gather, which update ghost nodes at 8 or 16 bytes per
node, and the 22 allreduces, 6 broadcasts and 1 gather per iteration of
Tables 1 and 4 — is :data:`~repro.machine.costdb.KRAK_SCHEDULE`.
:class:`KrakProgram` interprets that schedule two ways:

* :meth:`KrakProgram.__call__` is the generator the scalar engine runs.  In
  **functional** mode (``state`` given) every phase executes its real
  numerics and the ghost exchanges carry real array payloads; in
  **census** mode (``state=None``) phases only charge their modelled
  compute time and messages carry sizes alone.
* :meth:`KrakProgram.lower_into` writes the census-mode op stream straight
  into a :class:`~repro.simmpi.compile.ProgramWriter` for the batch engine,
  one iteration at a time from a per-rank template whose compute rows are
  filled from :meth:`~repro.machine.node.NodeModel.phase_times`.

Either way the *communication structure and message sizes* are identical,
driven by the :class:`~repro.hydro.workload.WorkloadCensus`.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.hydro import kernels
from repro.hydro.dynamic import REPARTITION_PHASE, DynamicController
from repro.hydro.materials import KRAK_MATERIAL_MODELS, pressure_and_sound_speed
from repro.hydro.state import RankState
from repro.hydro.workload import WorkloadCensus
from repro.machine.costdb import (
    BOUNDARY_BYTES_PER_FACE,
    BOUNDARY_BYTES_PER_MULTI_NODE,
    BOUNDARY_MSGS_PER_STEP,
    KRAK_SCHEDULE,
    STEP_ALLREDUCE,
    STEP_BCAST,
    STEP_BOUNDARY,
    STEP_GATHER,
    STEP_GHOST,
)
from repro.machine.node import NodeModel
from repro.perturb.model import FAILURE_PHASE
from repro.simmpi.compile import ProgramWriter
from repro.simmpi.api import (
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    Gather,
    Isend,
    MarkIteration,
    Recv,
    SetPhase,
    WaitSends,
)

#: Tag arithmetic: tags are unique per (phase, message slot).
_TAG_STRIDE = 1000
_FINAL_GROUP_SLOT = 9

#: Reduced quantities reported as the run's global diagnostics.
_DIAGNOSTICS = (
    "total_mass", "total_ke", "total_ie", "total_momentum_x", "total_energy"
)


def _tag(phase: int, slot: int) -> int:
    return phase * _TAG_STRIDE + slot


class KrakProgram:
    """One rank's Krak execution: ``iterations`` full 15-phase iterations.

    Parameters
    ----------
    rank:
        This rank's id.
    census:
        Global workload census (material counts + messaging structure).
    node_model:
        Compute-cost model used to charge phase times.
    state:
        Functional :class:`RankState`, or ``None`` for census (timing) mode.
    iterations:
        Number of iterations to execute.
    fixed_dt:
        Timestep used in census mode (functional mode computes a CFL dt).
    dynamic:
        Optional shared :class:`~repro.hydro.dynamic.DynamicController`.
        When given (census mode only), each iteration re-reads its census
        from ``dynamic.step(it)`` — charging iteration ``k`` against
        ``census_at(t_k)`` — and executes any repartition event the
        controller's policy fired.
    perturb:
        Optional shared perturbation (:class:`repro.perturb.Perturbation`
        in production, its naive oracle twin under verification): per-phase
        compute scale factors and the rank-failure event.  ``None`` — and
        any perturbation whose factors come back ``None`` — leaves the op
        stream untouched, bitwise.
    """

    def __init__(
        self,
        rank: int,
        census: WorkloadCensus,
        node_model: NodeModel,
        state: RankState | None = None,
        iterations: int = 3,
        fixed_dt: float = 2.0e-7,
        models=KRAK_MATERIAL_MODELS,
        dynamic: DynamicController | None = None,
        perturb=None,
    ) -> None:
        if dynamic is not None and state is not None:
            raise ValueError("dynamic workloads run in census (timing) mode only")
        if perturb is not None and state is not None:
            raise ValueError("perturbed runs execute in census (timing) mode only")
        self.rank = rank
        self.node_model = node_model
        self.state = state
        self.iterations = iterations
        self.fixed_dt = fixed_dt
        self.models = models
        self.dynamic = dynamic
        self.perturb = perturb
        #: Map neighbour rank → functional exchange link.
        self.state_links = (
            {lk.nbr_rank: lk for lk in state.links} if state is not None else {}
        )
        self.census = None
        self._bind(census)
        self.time = 0.0
        self.dt = fixed_dt
        #: Filled at the end of the run (same values on every rank).
        self.diagnostics: dict[str, float] = {}

    # ------------------------------------------------------------- helpers

    def _bind(self, census: WorkloadCensus) -> None:
        """Charge against ``census`` from now on.

        The point-to-point message lists repeat every iteration, so they
        are built once per link structure: a dynamic census that only
        re-weights the material counts keeps the previous lists.
        """
        previous, self.census = self.census, census
        self.work = census.work_vector(self.rank)
        if previous is not None and census.shares_links(previous):
            return
        #: One iteration's lowered rows, built on first use (see _template).
        self._iteration_template = None
        boundary = census.boundary_links[self.rank]
        ghost = census.ghost_links[self.rank]
        self.num_boundary_links = len(boundary)
        self.ghost_nbrs = census.gn_dst[ghost.start:ghost.stop].tolist()
        #: Phase → (sends, recvs) of its boundary exchange or ghost update.
        self.messages = {}
        for phase, steps in enumerate(KRAK_SCHEDULE):
            for step in steps:
                if step.kind == STEP_BOUNDARY:
                    self.messages[phase] = self._boundary_messages(phase, boundary)
                elif step.kind == STEP_GHOST:
                    self.messages[phase] = self._ghost_messages(
                        phase, step.nbytes, ghost
                    )

    def _phase_seconds(self, iteration: int) -> list:
        """Modelled compute seconds of every phase, noise-scaled if perturbed.

        The one shared pricing site for both execution modes: the generator
        (:meth:`__call__`) and the lowering path (:meth:`lower_into`) both
        charge through here, so a perturbed batch run stays bitwise equal
        to the scalar run by construction.
        """
        seconds = self.node_model.phase_times(self.work, self.rank, iteration)
        seconds = seconds[: len(KRAK_SCHEDULE)]
        if self.perturb is not None:
            factors = self.perturb.compute_factors(self.rank, iteration)
            if factors is not None:
                seconds = seconds * np.asarray(factors)
        return seconds.tolist()

    def _boundary_messages(self, phase: int, links: range):
        """Per-material sextets plus the final all-materials step (§4.1).

        Sends follow this rank's boundary rows ``links``; receives follow
        the active groups of each reverse link.  Returns ``(sends,
        recvs)``: ``(dst, tag, nbytes)`` and ``(src, tag)`` in program
        order.
        """
        census = self.census
        rows = slice(links.start, links.stop)
        nbrs = census.be_dst[rows].tolist()
        mine = census.be_faces[rows].astype(np.int64).tolist()
        multi = census.be_multi[rows].astype(np.int64).tolist()
        theirs = census.be_faces[census.be_reverse[rows]].tolist()
        fb = BOUNDARY_BYTES_PER_FACE
        mb = BOUNDARY_BYTES_PER_MULTI_NODE
        final = _FINAL_GROUP_SLOT * 16
        sends, recvs = [], []
        for nbr, faces, extra in zip(nbrs, mine, multi):
            for group, (f, m) in enumerate(zip(faces, extra)):
                if f > 0:
                    big = fb * f + mb * m
                    small = fb * f
                    for i in range(BOUNDARY_MSGS_PER_STEP):
                        sends.append(
                            (nbr, _tag(phase, group * 16 + i), big if i < 2 else small)
                        )
            total = fb * sum(faces)
            for i in range(BOUNDARY_MSGS_PER_STEP):
                sends.append((nbr, _tag(phase, final + i), total))
        for nbr, faces in zip(nbrs, theirs):
            for group, f in enumerate(faces):
                if f > 0:
                    for i in range(BOUNDARY_MSGS_PER_STEP):
                        recvs.append((nbr, _tag(phase, group * 16 + i)))
            for i in range(BOUNDARY_MSGS_PER_STEP):
                recvs.append((nbr, _tag(phase, final + i)))
        return sends, recvs

    def _ghost_messages(self, phase: int, bytes_per_node: int, links: range):
        """Two messages per ghost neighbour (Section 4.2), as ``(sends, recvs)``.

        Slot 0 carries the shared nodes the sender owns, slot 1 the rest.
        """
        census = self.census
        rows = slice(links.start, links.stop)
        counts = zip(
            census.gn_dst[rows].tolist(),
            census.gn_local[rows].astype(np.int64).tolist(),
            census.gn_remote[rows].astype(np.int64).tolist(),
        )
        sends, recvs = [], []
        for nbr, owned, others in counts:
            for slot, nodes in ((0, owned), (1, others)):
                sends.append((nbr, _tag(phase, slot), bytes_per_node * nodes))
                recvs.append((nbr, _tag(phase, slot)))
        return sends, recvs

    def _event_ops(self, it: int) -> list:
        """Ops charged before iteration ``it``'s phases, rebinding the census.

        A rank failure is a global stall around the restart cost: all
        ranks rendezvous (failure detection), the failed rank pays its
        checkpoint/restart compute, and all ranks rendezvous again, all
        attributed to :data:`~repro.perturb.FAILURE_PHASE`.  A dynamic
        step then rebinds this rank to ``census_at(t_it)``; when its policy
        fired, the repartition's census allgather (gather + broadcast) and
        cell-migration messages are charged to :data:`REPARTITION_PHASE`.
        Both loops execute these rare blocks as plain op objects.
        """
        ops = []
        event = self.perturb.failure_event(it) if self.perturb is not None else None
        if event is not None:
            fail_rank, restart_seconds = event
            ops += [SetPhase(FAILURE_PHASE), Barrier()]
            if self.rank == fail_rank:
                ops.append(Compute(restart_seconds))
            ops.append(Barrier())
        if self.dynamic is None:
            return ops
        step = self.dynamic.step(it)
        plan = step.migration
        if plan is not None:
            tag = _tag(REPARTITION_PHASE, 0)
            ops += [
                SetPhase(REPARTITION_PHASE),
                Gather(float(self.work.sum()), 0, plan.gather_bytes),
                Bcast(0.0 if self.rank == 0 else None, 0, plan.bcast_bytes),
            ]
            for dst, cells in enumerate(plan.matrix[self.rank]):
                if cells:
                    ops.append(Isend(dst, tag, int(cells) * plan.bytes_per_cell))
            ops.append(WaitSends())
            for src, cells in enumerate(plan.matrix[:, self.rank]):
                if cells:
                    ops.append(Recv(src, tag))
        self._bind(step.census)
        return ops

    def _census_inputs(self, it: int) -> dict:
        """This rank's census-mode inputs to iteration ``it``'s collectives.

        Functional numerics add to and overwrite these.  Every quantity the
        schedule names and this leaves out contributes ``0.0``, so census
        collective results are analytic: the ``min`` of identical fixed
        timesteps is the fixed timestep, sums of zeros stay ``0.0``, and
        the broadcast time is rank 0's.
        """
        return {
            "dt": self.fixed_dt,
            "time": self.time,
            "iteration": it,
            "boundary_links": float(self.num_boundary_links),
        }

    def _end_iteration(self, reduced: dict) -> None:
        """Advance the clock and record the diagnostics from ``reduced``."""
        self.dt = reduced["dt"]
        self.time = reduced["time"] + self.dt
        self.diagnostics = {name: reduced.get(name, 0.0) for name in _DIAGNOSTICS}
        self.diagnostics.update(dt=self.dt, time=self.time)

    def _numerics(self, phase: int, local: dict, reduced: dict) -> None:
        """Run ``phase``'s real numerics on this rank (functional mode).

        Fills ``local`` with this rank's inputs to the phase's collectives
        (and the volumes later phases need); ``reduced`` holds the global
        results of the iteration's collectives so far.
        """
        st = self.state
        if phase == 0:  # timestep control
            local["active_cells"] = float(st.num_cells)
            local["dt"] = kernels.stable_dt(st)
        elif phase == 2:  # EOS evaluation
            st.pressure, st.sound_speed = pressure_and_sound_speed(
                st.material, st.rho, st.energy, st.burn_frac, self.models
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

    def _exchange(self, phase: int, step):
        """Post the phase's sends, drain the NIC, then receive (generator).

        A functional ghost update sends its node fields as payloads and
        combines what it receives.
        """
        sends, recvs = self.messages[phase]
        ghost = self.state is not None and step.kind == STEP_GHOST
        payloads = self._ghost_payloads(step) if ghost else repeat(None)
        for (dst, tag, nbytes), payload in zip(sends, payloads):
            yield Isend(dst, tag, nbytes, payload)
        yield WaitSends()
        received = []
        for src, tag in recvs:
            received.append((yield Recv(src, tag)))
        if ghost:
            self._combine_ghosts(step, [payload for _, payload in received])

    def _ghost_payloads(self, step) -> list:
        """Per ghost message, copies of ``step.fields`` on the nodes it covers."""
        arrays = [getattr(self.state, name) for name in step.fields]
        payloads = []
        for nbr in self.ghost_nbrs:
            link = self.state_links[nbr]
            idx = link.shared_local_idx
            mine = link.owner_of_shared == self.rank
            payloads.append([a[idx[mine]].copy() for a in arrays])
            payloads.append([a[idx[~mine]].copy() for a in arrays])
        return payloads

    def _combine_ghosts(self, step, received: list) -> None:
        """Fold the received ghost payloads into ``step.fields`` in place.

        ``"sum"`` adds both messages of each neighbour (phases 4/5);
        owner-wins adopts the sender's values for the nodes the sender owns
        and ignores the second message (phase 7).
        """
        arrays = [getattr(self.state, name) for name in step.fields]
        pairs = zip(self.ghost_nbrs, received[::2], received[1::2])
        for nbr, p_local, p_remote in pairs:
            link = self.state_links[nbr]
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

    # ------------------------------------------------- batch compilation

    def lower_into(self, writer) -> bool:
        """Emit this rank's census-mode op stream straight into ``writer``.

        The census op stream is fully deterministic — every receive carries
        no payload and every collective result is analytic (see
        :meth:`_census_inputs`) — so it is written column-wise without
        allocating a request object per op or running the generator.  It
        walks the same schedule, message lists and event ops as
        :meth:`__call__`, so the stream is op-for-op what the generator
        yields, and ``time``/``dt``/``diagnostics`` end at the generator's
        values.  Returns ``False`` in functional mode, which must run on
        the scalar engine.
        """
        if self.state is not None:
            return False
        for it in range(self.iterations):
            writer.mark(it)
            for op in self._event_ops(it):
                op.lower(writer)
            body, compute_rows = self._template()
            farg = body.farg.copy()
            seconds = self._phase_seconds(it)
            for row, phase_seconds in zip(compute_rows, seconds, strict=True):
                farg[row] = phase_seconds
            writer.extend(body.opcode, farg, body.a, body.b)
            self._end_iteration(self._census_inputs(it))
        writer.mark(self.iterations)
        return True

    def _template(self) -> tuple:
        """This rank's one-iteration rows under the bound message lists.

        Returns ``(body, compute_rows)``: a :class:`ProgramWriter` holding
        the 15 phases' rows with zero-second compute rows, and the row
        index of each phase's compute.  Only the compute seconds differ
        from one iteration to the next, so :meth:`lower_into` copies the
        body and fills those rows.  Built once per :meth:`_bind` that
        rebuilds the message lists.
        """
        if self._iteration_template is None:
            body = ProgramWriter()
            compute_rows = []
            for phase, steps in enumerate(KRAK_SCHEDULE):
                body.set_phase(phase)
                compute_rows.append(len(body.opcode))
                body.compute(0.0)
                for step in steps:
                    kind = step.kind
                    if kind == STEP_ALLREDUCE:
                        body.allreduce(step.nbytes)
                    elif kind == STEP_BCAST:
                        body.bcast(0, step.nbytes)
                    elif kind == STEP_GATHER:
                        body.gather(0, step.nbytes)
                    else:
                        body.exchange(*self.messages[phase])
            self._iteration_template = (body, compute_rows)
        return self._iteration_template

    # ------------------------------------------------------------- program

    def __call__(self):
        """The generator the engine runs."""
        functional = self.state is not None
        for it in range(self.iterations):
            yield MarkIteration(it)
            for op in self._event_ops(it):
                yield op
            local = self._census_inputs(it)
            reduced: dict = {}
            seconds = self._phase_seconds(it)
            for phase, steps in enumerate(KRAK_SCHEDULE):
                yield SetPhase(phase)
                yield Compute(seconds[phase])
                if functional:
                    self._numerics(phase, local, reduced)
                for step in steps:
                    kind = step.kind
                    value = local.get(step.name, 0.0)
                    if kind == STEP_ALLREDUCE:
                        op = Allreduce(value, step.op, step.nbytes)
                        reduced[step.name] = yield op
                    elif kind == STEP_BCAST:
                        root_value = value if self.rank == 0 else None
                        reduced[step.name] = yield Bcast(root_value, 0, step.nbytes)
                    elif kind == STEP_GATHER:
                        yield Gather(value, 0, step.nbytes)
                    else:
                        yield from self._exchange(phase, step)
            self._end_iteration(reduced)
        yield MarkIteration(self.iterations)
