"""The logical-time scheduler: one batch-compiled core, two executors.

Each rank advances its own virtual clock; the engine only mediates where
ranks interact (message matching, collective barriers).  Because Krak's
communication uses fully-specified sources and tags (no wildcards) and every
phase ends in a global reduction, logical-time simulation is *exact*: no
global event heap is needed, and results are independent of scheduling
order.

Timing rules (see :mod:`repro.machine`):

* ``Isend``: sender pays ``send_overhead`` CPU time; the message's bandwidth
  term serialises through the sender's NIC (``nic_free``), while its
  start-up latency pipelines.  Arrival at the receiver is
  ``nic_start + L(S) + S·TB(S)``.
* ``Recv``: receiver blocks until arrival, then pays ``recv_overhead``.
* Collectives: all ranks enter; completion is the latest entry time plus the
  binary-tree time; all ranks resume synchronised at completion.

Programs arrive lowered to columnar event tables
(:mod:`repro.simmpi.compile`) and are priced by :meth:`Engine.run_compiled`
in two passes, array-at-a-time.  The *structure* (:meth:`Engine.structure`)
resolves everything the table alone decides: phase attribution, the range
and root checks, static FIFO send/recv matching via one sort, collective
sequence ids and the superstep schedule.  It reads no machine parameter,
so one structure prices on any cluster of its rank count.  The *pricing*
pass (:meth:`Engine.price`) takes the compute seconds and the machine: one
vectorized ``send_times_many`` sweep for every message and the host
overheads.  One of two executors then advances the clocks:

* the **per-rank** executor runs any table: a tight per-rank advance
  kernel (:mod:`repro.simmpi._kernels`) over Python lists that touches
  no request objects, plus a small rendezvous orchestrator for the
  collectives.  Deadlocks and collective mismatches are reported here.
* the **superstep** executor runs *regular* tables (:func:`_superstep_plan`):
  Valiant's bulk-synchronous supersteps, where the collectives cut every
  rank into the same sequence of supersteps and each rank's block of a
  superstep posts its sends, drains its NIC, then receives.  It advances
  all ranks of a superstep at once with NumPy, one vector step per op
  position.

Schedule independence makes "every send of a superstep before any of its
receives" a valid schedule, and each rank performs the same IEEE operations
in its own program order under either executor, so their results are
bitwise identical.  ``price`` takes the superstep executor only where it
is the faster one (:data:`_ROWS_PER_STEP`).  :meth:`Engine.run`
is the convenience for hand-written generator programs: it lowers every
rank into one table with :func:`~repro.simmpi.compile.lower_programs` and
runs the same core.  ``docs/engine.md`` describes both.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from repro.machine.cluster import ClusterConfig
from repro.simmpi import _kernels, api
from repro.simmpi import compile as simc
from repro.simmpi.collectives import allreduce_time, bcast_time, gather_time
from repro.simmpi.tracing import PhaseTrace

#: Message rows per vector step from which the superstep executor beats the
#: pure-Python per-rank kernel (measured crossover: ``docs/engine.md``).  A
#: vector step covers at most one row per rank, so a job of fewer ranks
#: never qualifies and is not even planned.
_ROWS_PER_STEP = 6

# The section each opcode opens within a superstep block, by opcode value:
# leading non-message rows, Isends, WaitSends, Recvs, trailing non-message
# rows (a leading row after a message row), the closing collective.
_PRE, _SEND, _WAIT, _RECV, _POST, _COLL = range(6)
_SECTION = np.array([_PRE, _PRE, _PRE, _SEND, _RECV, _WAIT, _COLL], dtype=np.int64)


class DeadlockError(RuntimeError):
    """All unfinished ranks are blocked and no progress is possible.

    The message lists, per blocked rank, the parked receive key (or the
    collective sequence it is stuck in) and the undelivered sends its peer
    actually posted — enough to diagnose a tag mismatch without re-running
    under a debugger.
    """


@dataclass(frozen=True)
class SimResult:
    """Outcome of an engine run."""

    trace: PhaseTrace
    final_clocks: np.ndarray

    @property
    def makespan(self) -> float:
        """Latest rank completion time."""
        return float(self.final_clocks.max())


class JobStructure(NamedTuple):
    """One table with everything the machine does not decide resolved.

    Row ``i``'s phase, matched send (``-1`` if none) and superstep (the
    collectives before it in its rank; a collective's own sequence id);
    the rows of each opcode that pricing reads, with each send's source
    and each receive's ranks; and the superstep schedule, ``None`` for a
    table only the per-rank executor runs.  ``farg`` holds the message
    and collective sizes, and ``0.0`` on compute rows, whose seconds are
    priced per request in ``compute_idx`` order.  Integer columns other
    than the ranks take the narrowest integer type that holds their
    values, and every array is read-only, so one structure is shared by
    every request that lowers the same table.
    """

    num_ranks: int
    num_phases: int
    off: np.ndarray
    opcode: np.ndarray
    farg: np.ndarray
    acol: np.ndarray
    bcol: np.ndarray
    phase: np.ndarray
    match: np.ndarray
    step: np.ndarray
    compute_idx: np.ndarray
    send_idx: np.ndarray
    recv_idx: np.ndarray
    mark_idx: np.ndarray
    send_src: np.ndarray
    recv_src: np.ndarray
    recv_dst: np.ndarray
    plan: "_Plan | None"


class _Priced(NamedTuple):
    """A structure priced on one machine: the compute seconds in
    ``compute_idx`` order; per send, its start-up, bandwidth term and send
    overhead; per receive, its receive overhead.  Each per-message column
    ends in the padding message's zero."""

    structure: JobStructure
    seconds: np.ndarray
    startup: np.ndarray
    bwcost: np.ndarray
    soh: np.ndarray
    roh: np.ndarray


_INT_TYPES = (np.int8, np.int16, np.int32, np.int64)


def _column(values: np.ndarray, bound: int | None = None) -> np.ndarray:
    """A read-only copy of an integer column in the narrowest of int8 to
    int64 that holds its values.

    ``bound`` is a known limit of the values' magnitude; without one the
    values are scanned.
    """
    if bound is None:
        bound = max(-int(values.min()) - 1, int(values.max())) if values.size else 0
    dtype = next(t for t in _INT_TYPES if bound <= np.iinfo(t).max)
    out = values.astype(dtype)
    out.flags.writeable = False
    return out


def _ranks(values: np.ndarray) -> np.ndarray:
    """A read-only ``intp`` copy of a rank column.

    Rank columns reach machine code (``same_node_mask`` divides them by
    ``ranks_per_node``, which may exceed what a narrower type holds), so
    they are never narrowed.
    """
    out = values.astype(np.intp)
    out.flags.writeable = False
    return out


def _read_only(*arrays) -> tuple:
    """``arrays``, each made read-only."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


#: The structure's columns of row ids.
_ROW_IDS = ("match", "compute_idx", "send_idx", "recv_idx", "mark_idx")


class Engine:
    """Run a set of rank programs to completion over a simulated cluster."""

    def __init__(self, cluster: ClusterConfig, num_ranks: int, num_phases: int) -> None:
        if num_ranks < 1:
            raise ValueError(f"num_ranks must be >= 1, got {num_ranks}")
        if num_phases < 1:
            raise ValueError(f"num_phases must be >= 1, got {num_phases}")
        if cluster.hierarchy is not None:
            # Fail at construction, not mid-run: an explicit placement must
            # cover exactly this job's ranks or pairwise pricing would be
            # undefined (tree_extents validates both cases).
            cluster.hierarchy.tree_extents(num_ranks)
        self.cluster = cluster
        self.num_ranks = num_ranks
        self.num_phases = num_phases
        self._send_overhead = cluster.send_overhead
        self._recv_overhead = cluster.recv_overhead
        self._coll_timers = self._make_collective_timers()

    def _make_collective_timers(self) -> tuple:
        """Duration functions indexed by collective sub-kind (``COLL_*``)."""
        hierarchy = self.cluster.hierarchy
        if hierarchy is not None:
            from repro.machine.hierarchy import (
                hier_allreduce_time,
                hier_bcast_time,
                hier_gather_time,
            )

            t_allreduce = lambda n: hier_allreduce_time(hierarchy, self.num_ranks, n)
            t_bcast = lambda n: hier_bcast_time(hierarchy, self.num_ranks, n)
            t_gather = lambda n: hier_gather_time(hierarchy, self.num_ranks, n)
        else:
            net = self.cluster.network
            t_allreduce = lambda n: allreduce_time(net, self.num_ranks, n)
            t_bcast = lambda n: bcast_time(net, self.num_ranks, n)
            t_gather = lambda n: gather_time(net, self.num_ranks, n)
        # Order of simc.COLL_ALLREDUCE, COLL_BCAST, COLL_GATHER, COLL_BARRIER.
        return (t_allreduce, t_bcast, t_gather, t_allreduce)

    # ------------------------------------------------------------------ run

    def run(self, make_program: Callable[[int], Iterable[api.Op]]) -> SimResult:
        """Lower ``make_program(rank)`` for every rank and run it.

        ``make_program`` returns a generator (or any iterable) of request
        objects from :mod:`repro.simmpi.api`; nothing is sent back into it.
        Every rank is lowered into one table.
        """
        return self.run_compiled(
            simc.lower_programs(make_program(r) for r in range(self.num_ranks))
        )

    def run_compiled(self, compiled: simc.CompiledProgram) -> SimResult:
        """Execute a pre-lowered columnar table of every rank array-at-a-time.

        Builds the table's :meth:`structure` and prices it with the
        table's own compute seconds (:meth:`price`).  A regular table with
        enough message rows per vector step then runs superstep by
        superstep, every rank at once; any other runs through the per-rank
        advance kernel and its rendezvous orchestrator.
        """
        structure = self.structure(compiled)
        return self.price(structure, compiled.farg[structure.compute_idx])

    def price(self, structure: JobStructure, seconds: np.ndarray) -> SimResult:
        """Run ``structure`` on this engine's machine, its compute rows
        charging ``seconds`` (in ``structure.compute_idx`` order).

        ``structure`` may come from another engine of the same rank and
        phase counts: nothing in it depends on the machine.
        """
        if (structure.num_ranks, structure.num_phases) != (
            self.num_ranks, self.num_phases
        ):
            raise ValueError(
                f"structure of {structure.num_ranks} ranks and "
                f"{structure.num_phases} phases on an engine of "
                f"{self.num_ranks} ranks and {self.num_phases} phases"
            )
        job = self._priced(structure, seconds)
        plan = self._dispatch(job)
        if plan is not None:
            return self._run_supersteps(job, plan)
        return self._run_per_rank(job)

    def _dispatch(self, job: _Priced):
        """The superstep plan when that executor runs ``job``, else ``None``:
        the structure has a plan and every compute second is finite."""
        plan = job.structure.plan
        if plan is None or not np.isfinite(job.seconds).all():
            return None
        return plan

    def _run_other(self, compiled: simc.CompiledProgram) -> SimResult | None:
        """Price ``compiled`` with the executor :meth:`run_compiled` does
        not pick, or ``None`` for a table only the per-rank one can run.

        The differential verifier (:mod:`repro.verify.diff`) holds the two
        to bitwise equality on every seed.
        """
        structure = self.structure(compiled)
        job = self._priced(structure, compiled.farg[structure.compute_idx])
        if self._dispatch(job) is not None:
            return self._run_per_rank(job)
        job = job._replace(structure=self._structure(compiled, 0.0))
        plan = self._dispatch(job)
        return None if plan is None else self._run_supersteps(job, plan)

    # ------------------------------------------------------------ structure

    def structure(self, compiled: simc.CompiledProgram) -> JobStructure:
        """Everything ``compiled`` alone decides, as whole-table arrays.

        The table is planned for the superstep executor where that
        executor is the faster one (:data:`_ROWS_PER_STEP`).  Reads no
        machine parameter of this engine.
        """
        return self._structure(compiled, _ROWS_PER_STEP)

    def _structure(
        self, compiled: simc.CompiledProgram, min_rows_per_step: float
    ) -> JobStructure:
        """:meth:`structure`, planned when the table is regular and has at
        least ``min_rows_per_step`` message rows per vector step
        (:func:`_superstep_plan`); a job of fewer ranks than that is not
        planned."""
        R = self.num_ranks
        if compiled.num_ranks != R:
            raise ValueError(f"expected {R} ranks, got {compiled.num_ranks}")
        num_phases = self.num_phases
        off = compiled.offsets
        counts = np.diff(off)
        n = int(off[-1])
        opcode = compiled.opcode
        acol = compiled.a
        bcol = compiled.b
        rank_of = np.repeat(np.arange(R, dtype=np.int64), counts)

        # --- static phase attribution: every op takes the latest SetPhase
        # at or before it in its own rank's stream (phase 0 before any).
        sp_mask = opcode == simc.OP_SETPHASE
        vals = acol[sp_mask]
        bad = (vals < 0) | (vals >= num_phases)
        if bad.any():
            raise ValueError(f"phase {int(vals[np.argmax(bad)])} out of range")
        last_sp = np.where(sp_mask, np.arange(n), -1)
        np.maximum.accumulate(last_sp, out=last_sp)
        own_rank = last_sp >= off[:-1][rank_of]
        phase = np.where(own_rank, acol[np.maximum(last_sp, 0)], 0)

        # --- sends: every destination a rank other than the sender's own.
        send_idx = np.flatnonzero(opcode == simc.OP_ISEND)
        s_src = rank_of[send_idx]
        s_dst = acol[send_idx]
        if send_idx.size:
            invalid = (s_dst < 0) | (s_dst >= R)
            if invalid.any():
                raise ValueError(
                    f"Isend to invalid rank {int(s_dst[np.argmax(invalid)])}"
                )
            if (s_dst == s_src).any():
                raise ValueError("self-sends are not supported")

        # --- collective roots: every Bcast and Gather root names a rank.
        coll_mask = opcode == simc.OP_COLL
        coll_idx = np.flatnonzero(coll_mask)
        rooted = coll_idx[np.isin(bcol[coll_idx], (simc.COLL_BCAST, simc.COLL_GATHER))]
        invalid = (acol[rooted] < 0) | (acol[rooted] >= R)
        if invalid.any():
            g = int(rooted[np.argmax(invalid)])
            name = "Bcast" if bcol[g] == simc.COLL_BCAST else "Gather"
            raise ValueError(f"{name} root {int(acol[g])} out of range")

        # --- receives: static FIFO matching (one stable sort).
        recv_idx = np.flatnonzero(opcode == simc.OP_RECV)
        r_src = acol[recv_idx]
        r_dst = rank_of[recv_idx]
        match = np.full(n, -1, dtype=np.int64)
        if recv_idx.size and send_idx.size:
            # All sends on a key come from one rank in program order and
            # all receives from one rank in program order, so the k-th
            # send pairs the k-th receive statically.  Encode each
            # (src, dst, tag) as one integer and line the two sorted
            # streams up.  Tags are offset by their minimum, which keeps
            # both sorts' orders; only a span too wide for the key's
            # int64 is compressed through np.unique instead.  A source
            # out of range keys as rank R, past every send's key.
            s_tag = bcol[send_idx]
            r_tag = bcol[recv_idx]
            lo = min(int(s_tag.min()), int(r_tag.min()))
            span = max(int(s_tag.max()), int(r_tag.max())) - lo
            key_src = np.where((r_src >= 0) & (r_src < R), r_src, R)
            if (R * R + R) * (span + 1) < 2**63:
                num_tags = np.int64(span + 1)
                s_tag = s_tag - lo
                r_tag = r_tag - lo
            else:
                uniq, inv = np.unique(
                    np.concatenate([s_tag, r_tag]), return_inverse=True
                )
                num_tags = np.int64(uniq.size)
                s_tag, r_tag = inv[: s_tag.size], inv[s_tag.size :]
            s_key = (s_src * R + s_dst) * num_tags + s_tag
            r_key = (key_src * R + r_dst) * num_tags + r_tag
            s_order = np.argsort(s_key, kind="stable")
            r_order = np.argsort(r_key, kind="stable")
            s_sorted = s_key[s_order]
            r_sorted = r_key[r_order]
            grp_new = np.ones(r_sorted.size, dtype=bool)
            grp_new[1:] = r_sorted[1:] != r_sorted[:-1]
            grp_start = np.flatnonzero(grp_new)
            grp_len = np.diff(np.append(grp_start, r_sorted.size))
            ordinal = np.arange(r_sorted.size) - np.repeat(grp_start, grp_len)
            pos = np.searchsorted(s_sorted, r_sorted, side="left") + ordinal
            ok = pos < s_sorted.size
            ok[ok] = s_sorted[pos[ok]] == r_sorted[ok]
            match[recv_idx[r_order[ok]]] = send_idx[s_order[pos[ok]]]

        # --- supersteps: the collectives before each row in its own rank,
        # which for a collective is its rendezvous sequence id.
        coll_count = np.cumsum(coll_mask)
        # Collectives in the ranks before each rank's first row.
        starts = off[:-1]
        before_rank = np.zeros(R, dtype=np.int64)
        nonempty_prefix = starts > 0
        before_rank[nonempty_prefix] = coll_count[starts[nonempty_prefix] - 1]
        step = coll_count - coll_mask - before_rank[rank_of]

        # --- sizes: the float column with the compute seconds left out.
        compute_idx = np.flatnonzero(opcode == simc.OP_COMPUTE)
        sizes = compiled.farg.copy()
        sizes[compute_idx] = 0.0

        job = JobStructure(
            num_ranks=R, num_phases=num_phases, off=off, opcode=opcode,
            farg=sizes, acol=acol, bcol=bcol, phase=phase, match=match,
            step=step, compute_idx=compute_idx, send_idx=send_idx,
            recv_idx=recv_idx, mark_idx=np.flatnonzero(opcode == simc.OP_MARK),
            # Out-of-range sources can never match a validated send, so
            # their (never-consulted) overhead may use a clipped rank.
            send_src=s_src, recv_src=np.clip(r_src, 0, R - 1), recv_dst=r_dst,
            plan=None,
        )
        plan = None
        if R >= min_rows_per_step:
            plan = _superstep_plan(job, rank_of, min_rows_per_step)
        # Row ids, ranks, phases and sequence ids have known bounds; the
        # opcodes and the integer arguments are scanned.
        sizes.flags.writeable = False
        return job._replace(
            off=_column(off, n), opcode=_column(opcode), acol=_column(acol),
            bcol=_column(bcol), phase=_column(phase, num_phases),
            step=_column(step, int(coll_count[-1]) if n else 0),
            send_src=_ranks(s_src), recv_src=_ranks(job.recv_src),
            recv_dst=_ranks(r_dst), plan=plan,
            **{name: _column(getattr(job, name), n) for name in _ROW_IDS},
        )

    # -------------------------------------------------------------- pricing

    def _priced(self, structure: JobStructure, seconds) -> _Priced:
        """Price ``structure`` on this engine's machine: every message in
        one ``send_times_many`` sweep, split inter/intra-node on an SMP
        hierarchy, and the host overheads."""
        seconds = np.asarray(seconds, dtype=np.float64)
        if seconds.shape != structure.compute_idx.shape:
            raise ValueError(
                f"expected {structure.compute_idx.size} compute seconds, "
                f"got {seconds.shape}"
            )
        send_idx = structure.send_idx
        ns, nr = send_idx.size, structure.recv_idx.size
        startup = np.zeros(ns + 1)
        bwcost = np.zeros(ns + 1)
        soh = np.zeros(ns + 1)
        roh = np.zeros(nr + 1)
        hierarchy = self.cluster.hierarchy
        if hierarchy is not None:
            intra_send, intra_recv = hierarchy.intra_overheads(
                self._send_overhead, self._recv_overhead
            )
        if ns:
            sizes = structure.farg[send_idx]
            if hierarchy is None:
                lat, bwt = self.cluster.network.send_times_many(sizes)
                soh[:ns] = self._send_overhead
            else:
                intra = hierarchy.same_node_mask(
                    structure.send_src, structure.acol[send_idx].astype(np.intp)
                )
                lat, bwt = hierarchy.inter.send_times_many(sizes)
                if intra.any():
                    ilat, ibwt = hierarchy.intra.send_times_many(sizes[intra])
                    lat[intra] = ilat
                    bwt[intra] = ibwt
                soh[:ns] = np.where(intra, intra_send, self._send_overhead)
            startup[:ns] = lat
            bwcost[:ns] = bwt
        if nr:
            if hierarchy is None:
                roh[:nr] = self._recv_overhead
            else:
                intra = hierarchy.same_node_mask(structure.recv_src, structure.recv_dst)
                roh[:nr] = np.where(intra, intra_recv, self._recv_overhead)
        return _Priced(structure, seconds, startup, bwcost, soh, roh)

    def _result(self, job: JobStructure, clocks, comp_rows, comm_rows, mark_clock,
                mark_comp, mark_comm) -> SimResult:
        """Load the final rows and the mark snapshots into a trace."""
        mark_idx = job.mark_idx
        ranks = np.searchsorted(job.off, mark_idx, side="right") - 1
        marks = [
            (rank, index, float(mark_clock[slot]), mark_comp[slot], mark_comm[slot])
            for slot, (rank, index) in enumerate(
                zip(ranks.tolist(), job.acol[mark_idx].tolist())
            )
        ]
        trace = PhaseTrace(self.num_ranks, self.num_phases)
        trace.load_batch(comp_rows, comm_rows, marks)
        return SimResult(
            trace=trace,
            final_clocks=np.array(clocks, dtype=np.float64),
        )

    # ---------------------------------------------------- per-rank executor

    def _run_per_rank(self, priced: _Priced) -> SimResult:
        """Advance each rank with the kernel until it blocks, rendezvous the
        collectives, and report a deadlock if ranks remain blocked."""
        job = priced.structure
        R = self.num_ranks
        num_phases = self.num_phases
        off = job.off
        n = int(off[-1])
        n_marks = int(job.mark_idx.size)
        # The priced columns row by row, as the kernel reads them.
        farg = job.farg.copy()
        farg[job.compute_idx] = priced.seconds
        startup, bwcost, soh, roh = (np.zeros(n) for _ in range(4))
        startup[job.send_idx] = priced.startup[:-1]
        bwcost[job.send_idx] = priced.bwcost[:-1]
        soh[job.send_idx] = priced.soh[:-1]
        roh[job.recv_idx] = priced.roh[:-1]
        mark_slot = np.full(n, -1, dtype=np.int64)
        mark_slot[job.mark_idx] = np.arange(n_marks)
        # Execution state as plain lists, the faster interpreter path.
        columns = [
            col.tolist()
            for col in (off, job.opcode, farg, job.phase, startup, bwcost, soh,
                        roh, job.match, mark_slot)
        ]
        pcs = off[:-1].tolist()
        clocks = [0.0] * R
        nics = [0.0] * R
        comp_rows = [[0.0] * num_phases for _ in range(R)]
        comm_rows = [[0.0] * num_phases for _ in range(R)]
        mark_clock = [0.0] * n_marks
        mark_comp = [[0.0] * num_phases for _ in range(n_marks)]
        mark_comm = [[0.0] * num_phases for _ in range(n_marks)]
        arrival = [0.0] * n
        done = [0] * n

        finished = [False] * R
        parked: dict[int, int] = {}
        coll_pos: dict[int, dict[int, int]] = {}
        runnable = deque(range(R))
        while runnable:
            r = runnable.popleft()
            if finished[r]:
                continue
            status, blocker = _kernels.advance_rank(
                r, pcs, clocks, nics, *columns, arrival, done, comp_rows,
                comm_rows, mark_clock, mark_comp, mark_comm, num_phases,
            )
            if status == _kernels.ST_FINISHED:
                finished[r] = True
            elif status == _kernels.ST_BLOCKED:
                parked[r] = blocker
            else:
                pos = pcs[r]
                seq = int(job.step[pos])
                pend = coll_pos.setdefault(seq, {})
                pend[r] = pos
                if len(pend) == R:
                    del coll_pos[seq]
                    self._complete_collective_batch(
                        seq, pend, farg, job.acol, job.bcol, job.phase,
                        pcs, clocks, comm_rows, runnable,
                    )
            if parked:
                woke = [w for w, m in parked.items() if m >= 0 and done[m]]
                for w in woke:
                    del parked[w]
                    runnable.append(w)

        if not all(finished):
            raise DeadlockError(self._deadlock_report(job, finished, pcs, done))
        return self._result(
            job, clocks, comp_rows, comm_rows, mark_clock, mark_comp, mark_comm
        )

    def _complete_collective_batch(
        self, seq, pend, farg, acol, bcol, phase, pcs, clocks, comm_rows, runnable
    ) -> None:
        """All ranks entered collective ``seq``: time it and release them."""
        R = self.num_ranks
        positions = [pend[r] for r in range(R)]
        k0 = int(bcol[positions[0]])
        root = int(acol[positions[0]])
        rooted = k0 in (simc.COLL_BCAST, simc.COLL_GATHER)
        if any(
            int(bcol[p]) != k0 or (rooted and int(acol[p]) != root)
            for p in positions
        ):
            raise RuntimeError(f"collective mismatch at sequence {seq}")
        timer = self._coll_timers[k0]
        if k0 == simc.COLL_BCAST:
            duration = timer(float(farg[positions[root]]))
        elif k0 == simc.COLL_BARRIER:
            duration = timer(4)
        else:  # allreduce / gather: pay for the largest payload
            duration = timer(max(float(farg[p]) for p in positions))
        start = max(float(clocks[r]) for r in range(R))
        finish = start + duration
        for r in range(R):
            waited = finish - clocks[r]
            if waited > 0:
                comm_rows[r][phase[positions[r]]] += waited
                clocks[r] = finish
            pcs[r] = positions[r] + 1
            runnable.append(r)

    def _deadlock_report(self, job: JobStructure, finished, pcs, done) -> str:
        """Deadlock message: each blocked rank's parked receive key (or the
        collective sequence it is stuck in) and the undelivered sends of the
        peer it waits on, in post order."""
        opcode, acol, bcol, farg = job.opcode, job.acol, job.bcol, job.farg
        send_idx, recv_idx = job.send_idx, job.recv_idx
        send_src = job.send_src
        blocked = [r for r in range(self.num_ranks) if not finished[r]]
        # A posted send is pending until its matched receive has executed.
        pcs_arr = np.asarray(pcs, dtype=np.int64)
        done_arr = np.asarray(done, dtype=bool)
        consumed = np.zeros(opcode.shape[0], dtype=bool)
        executed_recv = recv_idx[recv_idx < pcs_arr[job.recv_dst]]
        matched = job.match[executed_recv]
        consumed[matched[matched >= 0]] = True
        is_pending = done_arr[send_idx] & ~consumed[send_idx]
        posted: dict[int, list] = {}
        for g, src in zip(send_idx[is_pending].tolist(), send_src[is_pending].tolist()):
            posted.setdefault(src, []).append(
                (api.MessageKey(src, int(acol[g]), int(bcol[g])), float(farg[g]))
            )

        limit = 8
        lines = [f"{len(blocked)} ranks blocked forever (first few: {blocked[:8]})"]
        for rank in blocked[:limit]:
            pos = int(pcs[rank])
            op = int(opcode[pos]) if pos < int(job.off[rank + 1]) else None
            if op == simc.OP_COLL:
                seq = int(job.step[pos])
                lines.append(f"  rank {rank}: waiting in collective sequence {seq}")
                continue
            if op != simc.OP_RECV:
                lines.append(f"  rank {rank}: blocked")
                continue
            key = api.MessageKey(int(acol[pos]), rank, int(bcol[pos]))
            lines.append(f"  rank {rank}: parked on recv {key}")
            queue = posted.get(key.src, [])
            if queue:
                shown = ", ".join(f"{k} ({nbytes:g} B)" for k, nbytes in queue[:6])
                more = "" if len(queue) <= 6 else f", +{len(queue) - 6} more"
                lines.append(f"    rank {key.src} pending sends: {shown}{more}")
            else:
                lines.append(f"    rank {key.src} has no pending sends")
        if len(blocked) > limit:
            lines.append(f"  ... {len(blocked) - limit} more blocked ranks")
        return "\n".join(lines)

    # --------------------------------------------------- superstep executor

    def _run_supersteps(self, priced: _Priced, plan: "_Plan") -> SimResult:
        """Advance every rank through one superstep at a time.

        Each rank's rows run in its program order, with the per-rank
        kernel's IEEE operations; only the interleaving across ranks
        differs, and schedule independence makes it immaterial.  The
        plan's row indices gather each vector step's priced operands.
        """
        job = priced.structure
        seconds, startup, bwcost = priced.seconds, priced.startup, priced.bwcost
        soh, roh = priced.soh, priced.roh
        R, P = self.num_ranks, self.num_phases
        n_marks = int(job.mark_idx.size)
        clocks = np.zeros(R)
        nics = np.zeros(R)
        comp = np.zeros((R, P))
        comm = np.zeros((R, P))
        comp_flat = comp.reshape(-1)
        comm_flat = comm.reshape(-1)
        mark_clock = np.zeros(n_marks)
        mark_comp = np.zeros((n_marks, P))
        mark_comm = np.zeros((n_marks, P))
        # One slot per send plus the padding send's, which arrives never.
        arrival = np.zeros(startup.shape[0])
        arrival[-1] = -np.inf

        def run_rows(groups):
            for is_mark, ranks, at, rows in groups:
                if is_mark:
                    mark_clock[at] = clocks[ranks]
                    mark_comp[at] = comp[ranks]
                    mark_comm[at] = comm[ranks]
                else:
                    secs = seconds[rows]
                    clocks[ranks] += secs
                    comp_flat[at] += secs

        timers = self._coll_timers
        for s, (pre, sends, waits, recvs, post) in enumerate(plan.steps):
            run_rows(pre)
            if sends is not None:
                ranks, at, cells = sends
                run = (ranks, at, cells, soh[cells], startup[cells], bwcost[cells])
                _send_run(run, clocks, nics, comm_flat, arrival)
            if waits is not None:
                ranks, at = waits
                nic, clock = nics[ranks], clocks[ranks]
                late = nic > clock
                comm_flat[at[late]] += nic[late] - clock[late]
                clocks[ranks[late]] = nic[late]
            if recvs is not None:
                ranks, at, sent, cells = recvs
                _recv_run((ranks, at, sent, roh[cells]), clocks, comm_flat, arrival)
            run_rows(post)
            if s < plan.num_collectives:
                # Waiting ranks pay finish - clock; the rest add +0.0, which
                # is exact (no bucket is ever -0.0).
                finish = clocks.max() + timers[plan.coll_kind[s]](plan.coll_arg[s])
                waited = finish - clocks
                np.maximum(waited, 0.0, out=waited)
                comm_flat[plan.coll_at[s]] += waited
                np.maximum(clocks, finish, out=clocks)

        return self._result(job, clocks, comp, comm, mark_clock, mark_comp, mark_comm)


def _send_run(run, clocks, nics, comm_flat, arrival) -> None:
    """Post one superstep's ``Isend`` runs, every rank at once.

    The clock and comm chains add each send overhead in order
    (``np.add.accumulate`` is sequential), and the NIC recurrence
    ``start = max(nic, clock); nic = start + bw`` steps through the
    positions.  ``rows`` index the per-send columns.  A padding position
    adds a zero overhead to the chains and meets the NIC as a ``-inf``
    clock with zero bandwidth, so it changes nothing; its arrival lands in
    the padding slot, reset to ``-inf``.
    """
    ranks, at, rows, soh, startup, bw = run
    pad = len(arrival) - 1
    clock = np.add.accumulate(np.vstack((clocks[ranks], soh)), axis=0)
    charged = np.add.accumulate(np.vstack((comm_flat[at], soh)), axis=0)
    nic = nics[ranks]
    start = np.empty_like(soh)
    for c, b, s in zip(np.where(rows < pad, clock[1:], -np.inf), bw, start):
        np.maximum(nic, c, out=s)
        np.add(s, b, out=nic)
    arrival[rows] = start + startup + bw
    arrival[pad] = -np.inf
    clocks[ranks] = clock[-1]
    comm_flat[at] = charged[-1]
    nics[ranks] = nic


def _recv_run(run, clocks, comm_flat, arrival) -> None:
    """Complete one superstep's ``Recv`` runs, every rank at once, with the
    kernel's ``wait = max(arrival - clock, 0) + overhead`` per position.

    A padding position reads the ``-inf`` arrival and a zero overhead, so
    it waits exactly ``+0.0``; the comm chain adds the waits in order.
    """
    ranks, at, sends, roh = run
    ready = arrival[sends]
    clock = clocks[ranks]
    waits = np.empty_like(ready)
    for a, o, wait in zip(ready, roh, waits):
        np.subtract(a, clock, out=wait)
        np.maximum(wait, 0.0, out=wait)
        wait += o
        clock += wait
    clocks[ranks] = clock
    comm_flat[at] = np.add.accumulate(np.vstack((comm_flat[at], waits)), axis=0)[-1]


class _Plan(NamedTuple):
    """A regular table's schedule as row indices: per superstep, its
    leading row groups, send run, NIC waits, receive run and trailing row
    groups; then its collective's sub-kind, pricing argument and comm
    buckets.  A compute group indexes the compute seconds and a mark group
    the mark slots; send cells index the per-send columns and receive
    cells the per-receive ones, each padded with the padding message."""

    steps: list
    num_collectives: int
    coll_kind: list
    coll_arg: list
    coll_at: np.ndarray


def _runs(count, first, n):
    """One section's runs: the ranks that have it and their rows as a
    ``(position, rank)`` matrix padded with the padding row ``n``; ``None``
    if no rank has the section."""
    ranks = np.flatnonzero(count)
    if not ranks.size:
        return None
    rows = first[ranks] + np.arange(int(count[ranks].max()))[:, None]
    rows[rows >= first[ranks] + count[ranks]] = n
    return ranks, rows


def _ordinals(idx: np.ndarray, n: int) -> np.ndarray:
    """Each row's position in ``idx``, the rows of one opcode, for rows
    ``0..n``; every other row, the padding row ``n`` included, maps to
    ``idx.size``, the padding entry of a per-``idx`` column."""
    of = np.full(n + 1, idx.size, dtype=np.int64)
    of[idx] = np.arange(idx.size)
    return of


def _superstep_plan(job: JobStructure, rank_of: np.ndarray, min_rows_per_step: float):
    """The superstep schedule of a regular table, or ``None``.

    A table is *regular* when every rank enters the same collective
    sequence (same count, same sub-kind and, for ``Bcast`` and ``Gather``,
    the same root at each position), every float
    argument is finite, and each (rank, superstep) block reads: non-message
    rows, ``Isend``s, at most one ``WaitSends``, ``Recv``s, non-message
    rows, each receive matching a send of the same or an earlier
    superstep, and all message rows of the block sharing one phase.  Such
    a table cannot deadlock: by induction over the supersteps every rank
    posts all its sends, every receive finds its message, and every rank
    reaches the next collective.  Only the sizes are checked here; the
    compute seconds, priced per request, are checked by
    :meth:`Engine._dispatch`.

    ``None`` also when the table has fewer than ``min_rows_per_step``
    message rows per vector step.
    """
    R, P = job.num_ranks, job.num_phases
    opcode = job.opcode
    n = int(opcode.shape[0])
    if n == 0 or opcode.min() < 0 or opcode.max() > simc.OP_COLL:
        return None
    if not np.isfinite(job.farg).all():
        return None
    coll_idx = np.flatnonzero(opcode == simc.OP_COLL)
    per_rank = np.bincount(rank_of[coll_idx], minlength=R)
    C = int(per_rank[0])
    if (per_rank != C).any():
        return None
    coll_rows = coll_idx.reshape(R, C)
    kinds = job.bcol[coll_rows]
    if (kinds != kinds[0]).any():
        return None
    roots = job.acol[coll_rows[0]]
    rooted = np.isin(kinds[0], (simc.COLL_BCAST, simc.COLL_GATHER))
    if (job.acol[coll_rows][:, rooted] != roots[rooted]).any():
        return None

    # --- cost: one vector step per compute or mark position, per send,
    # WaitSends and receive position, and per collective.
    S = C + 1
    step = job.step
    block = rank_of * S + step
    per_op = np.bincount(block * 7 + opcode, minlength=R * S * 7).reshape(R, S, 7)
    messages = per_op[:, :, simc.OP_ISEND:simc.OP_COLL]
    vector_steps = (
        int((per_op[:, :, simc.OP_COMPUTE] + per_op[:, :, simc.OP_MARK]).max(axis=0).sum())
        + int(messages.max(axis=0).sum())
        + C
    )
    if int(messages.sum()) < min_rows_per_step * vector_steps:
        return None

    # --- block shape: sections must appear in order within each block.
    code = _SECTION[opcode]
    is_msg = (code >= _SEND) & (code <= _RECV)
    msg_before = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(is_msg, out=msg_before[1:])
    block_start = np.zeros(R * S, dtype=np.int64)
    np.cumsum(per_op.sum(axis=2).reshape(-1)[:-1], out=block_start[1:])
    code[(code == _PRE) & (msg_before[:-1] > msg_before[block_start[block]])] = _POST
    same = block[1:] == block[:-1]
    prev, cur = code[:-1], code[1:]
    if (same & ((cur < prev) | ((cur == _WAIT) & (prev == _WAIT)))).any():
        return None
    msg_idx = np.flatnonzero(is_msg)
    msg_phase = job.phase[msg_idx]
    msg_block = block[msg_idx]
    if ((msg_phase[1:] != msg_phase[:-1]) & (msg_block[1:] == msg_block[:-1])).any():
        return None
    sent = job.match[job.recv_idx]
    if (sent < 0).any() or (step[sent] > step[job.recv_idx]).any():
        return None
    count = np.bincount(block * 6 + code, minlength=R * S * 6).reshape(R, S, 6)
    first = block_start.reshape(R, S, 1) + np.cumsum(count, axis=2) - count

    # --- compute and mark rows, grouped by (superstep, section, position):
    # one group is one vector step over the ranks that have such a row.
    rows = np.flatnonzero((opcode == simc.OP_COMPUTE) | (opcode == simc.OP_MARK))
    pre_groups: list = [[] for _ in range(S)]
    post_groups: list = [[] for _ in range(S)]
    if rows.size:
        section = code[rows]
        position = rows - first.reshape(-1, 6)[block[rows], section]
        is_mark = opcode[rows] == simc.OP_MARK
        key = (
            (step[rows] * 2 + (section == _POST)) * (int(position.max()) + 1)
            + position
        ) * 2 + is_mark
        order = np.argsort(key, kind="stable")
        rows = rows[order]
        bounds = np.flatnonzero(np.diff(key[order])) + 1
        # A compute row's index into the seconds, a mark row's its slot.
        slot = np.empty(n, dtype=np.int64)
        slot[job.compute_idx] = np.arange(job.compute_idx.size)
        slot[job.mark_idx] = np.arange(job.mark_idx.size)
        # The groups are slices of these, read-only like them.
        ranks = rank_of[rows]
        ranks, at_compute, slot = _read_only(
            ranks, ranks * P + job.phase[rows], slot[rows]
        )
        for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), rows.size]):
            head = rows[lo]
            target = post_groups if code[head] == _POST else pre_groups
            if opcode[head] == simc.OP_MARK:
                group = (True, ranks[lo:hi], slot[lo:hi], None)
            else:
                group = (False, ranks[lo:hi], at_compute[lo:hi], slot[lo:hi])
            target[int(step[head])].append(group)

    # --- message runs of each superstep that has any, as per-send and
    # per-receive indices; row n is the padding row.
    send_of = _ordinals(job.send_idx, n)
    recv_of = _ordinals(job.recv_idx, n)
    match = np.append(job.match, n)
    sends: list = [None] * S
    waits: list = [None] * S
    recvs: list = [None] * S
    for s in np.flatnonzero(count[:, :, _SEND:_POST].any(axis=(0, 2))).tolist():
        run = _runs(count[:, s, _SEND], first[:, s, _SEND], n)
        if run is not None:
            ranks, cells = run
            sends[s] = _read_only(ranks, ranks * P + job.phase[cells[0]], send_of[cells])
        ranks = np.flatnonzero(count[:, s, _WAIT])
        if ranks.size:
            waits[s] = _read_only(ranks, ranks * P + job.phase[first[ranks, s, _WAIT]])
        run = _runs(count[:, s, _RECV], first[:, s, _RECV], n)
        if run is not None:
            ranks, cells = run
            at = ranks * P + job.phase[cells[0]]
            recvs[s] = _read_only(ranks, at, send_of[match[cells]], recv_of[cells])

    # --- collectives: the per-rank orchestrator's pricing arguments.
    farg = job.farg[coll_rows]
    coll_kind = kinds[0].tolist()
    coll_arg: list = []
    for k, kind in enumerate(coll_kind):
        if kind == simc.COLL_BCAST:
            coll_arg.append(float(farg[int(roots[k]), k]))
        elif kind == simc.COLL_BARRIER:
            coll_arg.append(4)
        else:
            coll_arg.append(max(farg[:, k].tolist()))
    coll_at = (np.arange(R)[:, None] * P + job.phase[coll_rows]).T.copy()
    coll_at.flags.writeable = False

    return _Plan(
        steps=list(zip(pre_groups, sends, waits, recvs, post_groups)),
        num_collectives=C,
        coll_kind=coll_kind,
        coll_arg=coll_arg,
        coll_at=coll_at,
    )
