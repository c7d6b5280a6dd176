"""The 15-phase Krak iteration as a simulated-MPI job.

The iteration itself — which phases broadcast, which do the boundary
exchange and the gather, which update ghost nodes at 8 or 16 bytes per
node, and the 22 allreduces, 6 broadcasts and 1 gather per iteration of
Tables 1 and 4 — is :data:`~repro.machine.costdb.KRAK_SCHEDULE`.
:class:`KrakProgram` describes the whole job and interprets that schedule
two ways:

* :meth:`KrakProgram.lower_into` loads every rank's op stream into one
  :class:`~repro.simmpi.compile.ProgramWriter` table in a single pass
  (:meth:`KrakProgram.lower` returns that table frozen).
  The message rows come array-at-a-time from the census link columns
  (boundary sextets, the final group, ghost pairs) and the compute rows
  from :meth:`~repro.machine.node.NodeModel.phase_times_grid`.
* :meth:`KrakProgram.rank_ops` yields one rank's stream as request
  objects, one link at a time, for the reference oracle
  (:mod:`repro.verify.oracle`) — an independent description of the same
  stream.

Phases charge their modelled compute time and messages carry sizes alone,
both driven by the :class:`~repro.hydro.workload.WorkloadCensus`; a
functional run's real numerics live in :mod:`repro.hydro.functional`.
"""

from __future__ import annotations

import numpy as np

from repro.hydro.dynamic import REPARTITION_PHASE, DynamicController
from repro.hydro.workload import NUM_EXCHANGE_GROUPS, WorkloadCensus
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
from repro.simmpi import compile as simc
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
_NUM_PHASES = len(KRAK_SCHEDULE)


def _tag(phase: int, slot: int) -> int:
    return phase * _TAG_STRIDE + slot


class KrakProgram:
    """The whole job's Krak execution: ``iterations`` full 15-phase
    iterations on every rank of ``census``.

    Parameters
    ----------
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
        census: WorkloadCensus,
        node_model: NodeModel,
        iterations: int = 3,
        dynamic: DynamicController | None = None,
        perturb=None,
    ) -> None:
        self.census = census
        self.node_model = node_model
        self.iterations = iterations
        self.dynamic = dynamic
        self.perturb = perturb

    @property
    def num_ranks(self) -> int:
        """Ranks of the job."""
        return self.census.num_ranks

    # ------------------------------------------------------------ lowering

    def lower(self) -> simc.CompiledProgram:
        """The job's table: :meth:`lower_into` a fresh writer, frozen."""
        writer = simc.ProgramWriter()
        self.lower_into(writer)
        return writer.finish()

    def lower_into(self, writer) -> None:
        """Load every rank's op stream into the empty ``writer`` in one pass.

        Iteration by iteration — consuming dynamic steps in order — each
        rank gets its iteration mark, any failure or repartition rows, and
        one copy of the iteration body with its compute seconds filled in.
        The body is built once per link structure: a dynamic census that
        only re-weights the material counts reuses it.  The stream is
        op-for-op what :meth:`rank_ops` yields.
        """
        num_ranks, iterations = self.num_ranks, self.iterations
        table = _RankMajor(num_ranks)
        census, body = self.census, None
        if self.dynamic is None:
            # Static runs charge one census: every iteration's times at once.
            times = self.node_model.phase_times_grid(
                census.cell_profiles, census.profile_of_rank, range(iterations)
            )
        for it in range(iterations):
            table.add_uniform(_uniform([(simc.OP_MARK, 0.0, it, 0)]))
            self._lower_failure(it, table)
            if self.dynamic is not None:
                step = self.dynamic.step(it)
                if step.migration is not None:
                    _lower_repartition(step.migration, table)
                census = step.census
                seconds = self.node_model.phase_times_grid(
                    census.cell_profiles, census.profile_of_rank, (it,)
                )[0]
            else:
                seconds = times[it]
            if body is None or not census.shares_links(body.census):
                body = _IterationBody(census)
            seconds = seconds[:, :_NUM_PHASES]
            if self.perturb is not None:
                factors = [self.perturb.compute_factors(r, it) for r in range(num_ranks)]
                if factors[0] is not None:
                    seconds = seconds * np.asarray(factors)
            table.add(*body.with_seconds(seconds))
        table.add_uniform(_uniform([(simc.OP_MARK, 0.0, iterations, 0)]))
        writer.load(*table.assemble())

    def compute_seconds(self) -> np.ndarray:
        """A static job's compute charges in table order, without lowering.

        Rank by rank, iteration by iteration, phase by phase: bitwise the
        compute rows of the table :meth:`lower_into` writes, from the same
        :meth:`~repro.machine.node.NodeModel.phase_times_grid` call.  A
        dynamic or perturbed job has no such shortcut.
        """
        if self.dynamic is not None or self.perturb is not None:
            raise ValueError("only a static, unperturbed job has fixed compute rows")
        census = self.census
        times = self.node_model.phase_times_grid(
            census.cell_profiles, census.profile_of_rank, range(self.iterations)
        )
        return times[:, :, :_NUM_PHASES].transpose(1, 0, 2).reshape(-1)

    def _lower_failure(self, it: int, table: "_RankMajor") -> None:
        """Iteration ``it``'s rank failure, if one fires: the rows of
        :meth:`rank_ops`' failure block for every rank."""
        event = self.perturb.failure_event(it) if self.perturb is not None else None
        if event is None:
            return
        fail_rank, restart_seconds = event
        table.add_uniform(_uniform([
            (simc.OP_SETPHASE, 0.0, FAILURE_PHASE, 0),
            (simc.OP_COLL, 0.0, 0, simc.COLL_BARRIER),
        ]))
        counts = np.zeros(self.num_ranks, dtype=np.int64)
        counts[fail_rank] = 1
        table.add(*_uniform([(simc.OP_COMPUTE, restart_seconds, 0, 0)]), counts)
        table.add_uniform(_uniform([(simc.OP_COLL, 0.0, 0, simc.COLL_BARRIER)]))

    # ------------------------------------------------------------- program

    def rank_ops(self, rank: int):
        """Rank ``rank``'s op stream as request objects (what the oracle runs).

        Each rank's message lists are built here from its own links, one
        link at a time, independently of :meth:`lower_into`'s column
        arithmetic.  A rank failure is a global stall around the restart
        cost: all ranks rendezvous (failure detection), the failed rank
        pays its checkpoint/restart compute, and all ranks rendezvous
        again, all attributed to :data:`~repro.perturb.FAILURE_PHASE`.  A
        dynamic step then rebinds this rank to ``census_at(t_it)``; when
        its policy fired, the repartition's census allgather (gather +
        broadcast) and cell-migration messages are charged to
        :data:`REPARTITION_PHASE`.
        """
        census, messages = self.census, None
        for it in range(self.iterations):
            yield MarkIteration(it)
            event = self.perturb.failure_event(it) if self.perturb is not None else None
            if event is not None:
                fail_rank, restart_seconds = event
                yield SetPhase(FAILURE_PHASE)
                yield Barrier()
                if rank == fail_rank:
                    yield Compute(restart_seconds)
                yield Barrier()
            if self.dynamic is not None:
                dynamic_step = self.dynamic.step(it)
                plan = dynamic_step.migration
                if plan is not None:
                    tag = _tag(REPARTITION_PHASE, 0)
                    yield SetPhase(REPARTITION_PHASE)
                    yield Gather(nbytes=plan.gather_bytes)
                    yield Bcast(nbytes=plan.bcast_bytes)
                    for dst, cells in enumerate(plan.matrix[rank]):
                        if cells:
                            yield Isend(dst, tag, int(cells) * plan.bytes_per_cell)
                    yield WaitSends()
                    for src, cells in enumerate(plan.matrix[:, rank]):
                        if cells:
                            yield Recv(src, tag)
                if not dynamic_step.census.shares_links(census):
                    messages = None
                census = dynamic_step.census
            if messages is None:
                messages = _rank_messages(census, rank)
            seconds = self.node_model.phase_times(census.work_vector(rank), rank, it)
            seconds = seconds[:_NUM_PHASES]
            if self.perturb is not None:
                factors = self.perturb.compute_factors(rank, it)
                if factors is not None:
                    seconds = seconds * np.asarray(factors)
            seconds = seconds.tolist()
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
                        sends, recvs = messages[phase]
                        for dst, tag, nbytes in sends:
                            yield Isend(dst, tag, nbytes)
                        yield WaitSends()
                        for src, tag in recvs:
                            yield Recv(src, tag)
        yield MarkIteration(self.iterations)


# ------------------------------------------------------- per-rank messages


def _rank_messages(census: WorkloadCensus, rank: int) -> dict:
    """Phase → ``(sends, recvs)`` of ``rank``'s boundary exchange and ghost
    updates: ``(dst, tag, nbytes)`` and ``(src, tag)`` in program order."""
    messages = {}
    for phase, steps in enumerate(KRAK_SCHEDULE):
        for step in steps:
            if step.kind == STEP_BOUNDARY:
                messages[phase] = _boundary_messages(
                    census, phase, census.boundary_links[rank]
                )
            elif step.kind == STEP_GHOST:
                messages[phase] = _ghost_messages(
                    census, phase, step.nbytes, census.ghost_links[rank]
                )
    return messages


def _boundary_messages(census: WorkloadCensus, phase: int, links: range):
    """Per-material sextets plus the final all-materials step (§4.1).

    Sends follow the rank's boundary rows ``links``; receives follow the
    active groups of each reverse link.
    """
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


def _ghost_messages(census: WorkloadCensus, phase: int, bytes_per_node: int,
                    links: range):
    """Two messages per ghost neighbour (Section 4.2), as ``(sends, recvs)``.

    Slot 0 carries the shared nodes the sender owns, slot 1 the rest.
    """
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


# ---------------------------------------------------------- all-rank rows


def _uniform(rows) -> tuple:
    """``(opcode, farg, a, b)`` column arrays of ``rows``, each row an
    ``(opcode, farg, a, b)`` tuple."""
    opcode, farg, a, b = zip(*rows)
    return (
        np.array(opcode, dtype=np.int64),
        np.array(farg, dtype=np.float64),
        np.array(a, dtype=np.int64),
        np.array(b, dtype=np.int64),
    )


class _RankMajor:
    """Blocks of every rank's rows, assembled into one rank-major table.

    Each block holds, for every rank in rank order, that rank's next rows;
    :meth:`assemble` places rank ``r``'s share of each block after its
    share of the previous blocks.
    """

    def __init__(self, num_ranks: int) -> None:
        self.num_ranks = num_ranks
        #: ``(columns, counts, uniform)`` per block.
        self._blocks: list = []

    def add(self, opcode, farg, a, b, counts) -> None:
        """A block of rank-major columns with each rank's row count."""
        self._blocks.append(((opcode, farg, a, b), counts, False))

    def add_uniform(self, columns: tuple) -> None:
        """A block of rows every rank gets alike (see :func:`_uniform`)."""
        counts = np.full(self.num_ranks, columns[0].shape[0], dtype=np.int64)
        self._blocks.append((columns, counts, True))

    def assemble(self) -> tuple:
        """``(opcode, farg, a, b, offsets)`` of the whole table."""
        counts = np.stack([block[1] for block in self._blocks])
        within = np.cumsum(counts, axis=0)
        offsets = np.zeros(self.num_ranks + 1, dtype=np.int64)
        np.cumsum(within[-1], out=offsets[1:])
        starts = offsets[:-1] + within - counts
        n = int(offsets[-1])
        out = (
            np.empty(n, dtype=np.int64),
            np.empty(n, dtype=np.float64),
            np.empty(n, dtype=np.int64),
            np.empty(n, dtype=np.int64),
        )
        for (columns, block_counts, uniform), start in zip(self._blocks, starts):
            if uniform:
                pos = start[:, None] + np.arange(int(block_counts[0]))
            else:
                first = np.cumsum(block_counts) - block_counts
                pos = np.arange(int(block_counts.sum())) + np.repeat(
                    start - first, block_counts
                )
            for column, values in zip(out, columns):
                column[pos] = values
        return (*out, offsets)


def _per_rank(src: np.ndarray, rows_per_link, num_ranks: int) -> np.ndarray:
    """Rows per rank, given each (rank-major) link's row count."""
    weights = np.broadcast_to(rows_per_link, src.shape).astype(np.float64)
    return np.bincount(src, weights=weights, minlength=num_ranks).astype(np.int64)


def _sends(nbytes, peers, tags, counts) -> tuple:
    """A block of ``Isend`` rows (rank-major, ``counts`` per rank)."""
    return (
        np.full(peers.shape[0], simc.OP_ISEND, dtype=np.int64),
        nbytes.astype(np.float64), peers.astype(np.int64), tags, counts,
    )


def _recvs(peers, tags, counts) -> tuple:
    """A block of ``Recv`` rows (rank-major, ``counts`` per rank)."""
    num = peers.shape[0]
    return (
        np.full(num, simc.OP_RECV, dtype=np.int64), np.zeros(num),
        peers.astype(np.int64), tags, counts,
    )


def _boundary_rows(census: WorkloadCensus, phase: int) -> tuple:
    """Every rank's boundary-exchange sends and receives, as two blocks.

    Each link contributes a sextet per active exchange group and one for
    the final all-materials step, in :func:`_boundary_messages` order:
    a ``(links, groups + 1, 6)`` grid of candidate rows, masked by which
    groups have faces on the sending (or, for receives, the reverse) side.
    """
    k, groups = BOUNDARY_MSGS_PER_STEP, NUM_EXCHANGE_GROUPS
    fb, mb = BOUNDARY_BYTES_PER_FACE, BOUNDARY_BYTES_PER_MULTI_NODE
    faces = census.be_faces.astype(np.int64)
    multi = census.be_multi.astype(np.int64)
    shape = (faces.shape[0], groups + 1, k)
    slots = np.append(np.arange(groups) * 16, _FINAL_GROUP_SLOT * 16)
    tags = np.broadcast_to(_tag(phase, 0) + slots[:, None] + np.arange(k), shape)
    peers = np.broadcast_to(census.be_dst[:, None, None], shape)
    nbytes = np.empty(shape, dtype=np.int64)
    nbytes[:, :groups, :2] = (fb * faces + mb * multi)[:, :, None]
    nbytes[:, :groups, 2:] = (fb * faces)[:, :, None]
    nbytes[:, groups, :] = (fb * faces.sum(axis=1))[:, None]

    def grid(active_groups):
        active = np.ones(shape[:2], dtype=bool)
        active[:, :groups] = active_groups
        counts = _per_rank(census.be_src, k * active.sum(axis=1), census.num_ranks)
        return np.broadcast_to(active[:, :, None], shape), counts

    sent, sent_counts = grid(faces > 0)
    received, received_counts = grid(census.be_faces[census.be_reverse] > 0)
    return (
        _sends(nbytes[sent], peers[sent], tags[sent], sent_counts),
        _recvs(peers[received], tags[received], received_counts),
    )


def _ghost_rows(census: WorkloadCensus, phase: int, bytes_per_node: int) -> tuple:
    """Every rank's ghost-update sends and receives, as two blocks: two
    messages per ghost link (slot 0 the owned nodes, slot 1 the rest)."""
    nodes = np.stack([census.gn_local, census.gn_remote], axis=1).astype(np.int64)
    peers = np.repeat(census.gn_dst, 2)
    tags = np.tile(np.array([_tag(phase, 0), _tag(phase, 1)]), census.gn_src.shape[0])
    counts = 2 * np.bincount(census.gn_src, minlength=census.num_ranks)
    return (
        _sends((bytes_per_node * nodes).reshape(-1), peers, tags, counts),
        _recvs(peers, tags, counts),
    )


def _body_plan() -> tuple:
    """One iteration of :data:`KRAK_SCHEDULE` as blocks: runs of rows every
    rank gets alike (column tuples), and between them the ``(phase,
    step)`` of each point-to-point exchange."""
    plan, rows = [], []
    for phase, steps in enumerate(KRAK_SCHEDULE):
        rows += [(simc.OP_SETPHASE, 0.0, phase, 0), (simc.OP_COMPUTE, 0.0, 0, 0)]
        for step in steps:
            kind = step.kind
            if kind == STEP_ALLREDUCE:
                rows.append((simc.OP_COLL, step.nbytes, 0, simc.COLL_ALLREDUCE))
            elif kind == STEP_BCAST:
                rows.append((simc.OP_COLL, step.nbytes, 0, simc.COLL_BCAST))
            elif kind == STEP_GATHER:
                rows.append((simc.OP_COLL, step.nbytes, 0, simc.COLL_GATHER))
            else:
                plan += [_uniform(rows), (phase, step)]
                rows = []
    plan.append(_uniform(rows))
    return tuple(plan)


_BODY_PLAN = _body_plan()
_WAIT_SENDS = _uniform([(simc.OP_WAITSENDS, 0.0, 0, 0)])


class _IterationBody:
    """Every rank's rows of one iteration under one census's links.

    Compute rows hold zero seconds; :meth:`with_seconds` fills them.  Only
    the compute seconds differ from one iteration to the next.
    """

    def __init__(self, census: WorkloadCensus) -> None:
        self.census = census
        table = _RankMajor(census.num_ranks)
        for block in _BODY_PLAN:
            if len(block) == 4:
                table.add_uniform(block)
                continue
            phase, step = block
            if step.kind == STEP_BOUNDARY:
                sends, recvs = _boundary_rows(census, phase)
            else:
                sends, recvs = _ghost_rows(census, phase, step.nbytes)
            table.add(*sends)
            table.add_uniform(_WAIT_SENDS)
            table.add(*recvs)
        self.opcode, self.farg, self.a, self.b, offsets = table.assemble()
        self.counts = np.diff(offsets)
        #: Row of each rank's compute charge, rank-major in phase order.
        self.compute_rows = np.flatnonzero(self.opcode == simc.OP_COMPUTE)

    def with_seconds(self, seconds: np.ndarray) -> tuple:
        """The body's block with ``(ranks, phases)`` compute ``seconds``."""
        farg = self.farg.copy()
        farg[self.compute_rows] = seconds.reshape(-1)
        return self.opcode, farg, self.a, self.b, self.counts


def _lower_repartition(plan, table: _RankMajor) -> None:
    """A repartition's rows for every rank: census gather and broadcast,
    then the cell-migration sends (by destination) and receives (by
    source) of :meth:`KrakProgram.rank_ops`' repartition block."""
    tag = _tag(REPARTITION_PHASE, 0)
    table.add_uniform(_uniform([
        (simc.OP_SETPHASE, 0.0, REPARTITION_PHASE, 0),
        (simc.OP_COLL, plan.gather_bytes, 0, simc.COLL_GATHER),
        (simc.OP_COLL, plan.bcast_bytes, 0, simc.COLL_BCAST),
    ]))
    moved = plan.matrix != 0
    owner, dst = np.nonzero(moved)
    cells = plan.matrix[owner, dst].astype(np.int64)
    table.add(*_sends(
        cells * plan.bytes_per_cell, dst, np.full(dst.shape[0], tag),
        moved.sum(axis=1),
    ))
    table.add_uniform(_WAIT_SENDS)
    _, src = np.nonzero(moved.T)
    table.add(*_recvs(src, np.full(src.shape[0], tag), moved.sum(axis=0)))
