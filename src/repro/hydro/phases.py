"""The 15-phase Krak iteration as a simulated-MPI rank program.

The iteration itself — which phases broadcast, which do the boundary
exchange and the gather, which update ghost nodes at 8 or 16 bytes per
node, and the 22 allreduces, 6 broadcasts and 1 gather per iteration of
Tables 1 and 4 — is :data:`~repro.machine.costdb.KRAK_SCHEDULE`.
:class:`KrakProgram` interprets that schedule two ways:

* :meth:`KrakProgram.lower_into` writes the op stream straight into a
  :class:`~repro.simmpi.compile.ProgramWriter` for the engine, one
  iteration at a time from a per-rank template whose compute rows are
  filled from :meth:`~repro.machine.node.NodeModel.phase_times`.
* :meth:`KrakProgram.__call__` yields the same stream as request objects,
  for the reference oracle (:mod:`repro.verify.oracle`).

Phases charge their modelled compute time and messages carry sizes alone,
both driven by the :class:`~repro.hydro.workload.WorkloadCensus`; a
functional run's real numerics live in :mod:`repro.hydro.functional`.
"""

from __future__ import annotations

import numpy as np

from repro.hydro.dynamic import REPARTITION_PHASE, DynamicController
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
    iterations:
        Number of iterations to execute.
    dynamic:
        Optional shared :class:`~repro.hydro.dynamic.DynamicController`.
        When given, each iteration re-reads its census from
        ``dynamic.step(it)`` — charging iteration ``k`` against
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
        iterations: int = 3,
        dynamic: DynamicController | None = None,
        perturb=None,
    ) -> None:
        self.rank = rank
        self.node_model = node_model
        self.iterations = iterations
        self.dynamic = dynamic
        self.perturb = perturb
        self.census = None
        self._bind(census)

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

        The one shared pricing site of the generator (:meth:`__call__`) and
        the lowering path (:meth:`lower_into`), so a perturbed run's two
        op streams agree by construction.
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
        Both op streams carry these rare blocks as plain op objects.
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
                Gather(nbytes=plan.gather_bytes),
                Bcast(nbytes=plan.bcast_bytes),
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

    # ------------------------------------------------------------ lowering

    def lower_into(self, writer) -> None:
        """Emit this rank's op stream straight into ``writer``.

        The op stream is fully deterministic — messages and collectives
        carry sizes only — so it is written column-wise without allocating
        a request object per op or running the generator.  It walks the
        same schedule, message lists and event ops as :meth:`__call__`, so
        the stream is op-for-op what the generator yields.
        """
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
        writer.mark(self.iterations)

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
        """This rank's op stream as request objects (what the oracle runs)."""
        for it in range(self.iterations):
            yield MarkIteration(it)
            yield from self._event_ops(it)
            seconds = self._phase_seconds(it)
            for phase, steps in enumerate(KRAK_SCHEDULE):
                yield SetPhase(phase)
                yield Compute(seconds[phase])
                for step in steps:
                    kind = step.kind
                    if kind == STEP_ALLREDUCE:
                        yield Allreduce(nbytes=step.nbytes)
                    elif kind == STEP_BCAST:
                        yield Bcast(nbytes=step.nbytes)
                    elif kind == STEP_GATHER:
                        yield Gather(nbytes=step.nbytes)
                    else:
                        sends, recvs = self.messages[phase]
                        for dst, tag, nbytes in sends:
                            yield Isend(dst, tag, nbytes)
                        yield WaitSends()
                        for src, tag in recvs:
                            yield Recv(src, tag)
        yield MarkIteration(self.iterations)
