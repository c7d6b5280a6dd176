"""The logical-time scheduler: one batch-compiled core.

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
(:mod:`repro.simmpi.compile`) and are priced array-at-a-time by
:meth:`Engine.run_compiled`: one vectorized ``send_times_many`` sweep for
every message, static FIFO send/recv matching via one sort, and a tight
per-rank advance kernel (:mod:`repro.simmpi._kernels`, optionally
numba-compiled) that touches no request objects.  :meth:`Engine.run` is
the convenience for hand-written generator programs: it lowers every rank
into one table with :func:`~repro.simmpi.compile.lower_programs` and runs
the same core.  ``docs/engine.md`` describes the two lowering producers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.machine.cluster import ClusterConfig
from repro.simmpi import _kernels, api
from repro.simmpi import compile as simc
from repro.simmpi.collectives import allreduce_time, bcast_time, gather_time
from repro.simmpi.tracing import PhaseTrace


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

        Pricing (``send_times_many``), send/recv matching (one stable sort),
        host overheads, and phase attribution are all resolved up front with
        vectorized sweeps; execution is then a tight per-rank advance kernel
        plus a small rendezvous orchestrator.
        """
        R = self.num_ranks
        if compiled.num_ranks != R:
            raise ValueError(f"expected {R} ranks, got {compiled.num_ranks}")
        num_phases = self.num_phases
        off = compiled.offsets
        counts = np.diff(off)
        n = int(off[-1])
        opcode = compiled.opcode
        farg = compiled.farg
        acol = compiled.a
        bcol = compiled.b
        rank_of = np.repeat(np.arange(R, dtype=np.int64), counts)
        hierarchy = self.cluster.hierarchy
        if hierarchy is not None:
            intra_send, intra_recv = hierarchy.intra_overheads(
                self._send_overhead, self._recv_overhead
            )

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

        # --- sends: validate, then price every message in one sweep.
        send_idx = np.flatnonzero(opcode == simc.OP_ISEND)
        startup = np.zeros(n)
        bwcost = np.zeros(n)
        soh = np.zeros(n)
        roh = np.zeros(n)
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
            sizes = farg[send_idx]
            if hierarchy is None:
                lat, bwt = self.cluster.network.send_times_many(sizes)
                soh[send_idx] = self._send_overhead
            else:
                intra = hierarchy.same_node_mask(s_src, s_dst)
                lat, bwt = hierarchy.inter.send_times_many(sizes)
                if intra.any():
                    ilat, ibwt = hierarchy.intra.send_times_many(sizes[intra])
                    lat[intra] = ilat
                    bwt[intra] = ibwt
                soh[send_idx] = np.where(intra, intra_send, self._send_overhead)
            startup[send_idx] = lat
            bwcost[send_idx] = bwt

        # --- receives: overheads + static FIFO matching (one stable sort).
        recv_idx = np.flatnonzero(opcode == simc.OP_RECV)
        match = np.full(n, -1, dtype=np.int64)
        if recv_idx.size:
            r_src = acol[recv_idx]
            r_dst = rank_of[recv_idx]
            if hierarchy is None:
                roh[recv_idx] = self._recv_overhead
            else:
                # Out-of-range sources can never match a validated send, so
                # their (never-consulted) overhead may use a clipped rank.
                intra = hierarchy.same_node_mask(np.clip(r_src, 0, R - 1), r_dst)
                roh[recv_idx] = np.where(intra, intra_recv, self._recv_overhead)
            if send_idx.size:
                # All sends on a key come from one rank in program order and
                # all receives from one rank in program order, so the k-th
                # send pairs the k-th receive statically.  Encode each
                # (src, dst, tag) as one integer (tags compressed through
                # np.unique) and line the two sorted streams up.
                p2p_idx = np.flatnonzero(
                    (opcode == simc.OP_ISEND) | (opcode == simc.OP_RECV)
                )
                uniq_tags, p2p_inv = np.unique(bcol[p2p_idx], return_inverse=True)
                num_tags = np.int64(uniq_tags.size)
                tag_inv = np.zeros(n, dtype=np.int64)
                tag_inv[p2p_idx] = p2p_inv
                s_key = (s_src * R + s_dst) * num_tags + tag_inv[send_idx]
                r_key = (r_src * R + r_dst) * num_tags + tag_inv[recv_idx]
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

        # --- collectives: per-rank rendezvous sequence ids.
        coll_mask = opcode == simc.OP_COLL
        coll_count = np.cumsum(coll_mask)
        # Collectives in the ranks before each rank's first row.
        starts = off[:-1]
        before_rank = np.zeros(R, dtype=np.int64)
        nonempty_prefix = starts > 0
        before_rank[nonempty_prefix] = coll_count[starts[nonempty_prefix] - 1]
        seq_col = np.where(coll_mask, coll_count - 1 - before_rank[rank_of], -1)

        # --- iteration marks: static snapshot slots.
        mark_idx = np.flatnonzero(opcode == simc.OP_MARK)
        mark_slot = np.full(n, -1, dtype=np.int64)
        mark_slot[mark_idx] = np.arange(mark_idx.size)
        n_marks = int(mark_idx.size)

        # --- execution state: NumPy containers under the JIT kernel, plain
        # lists under the pure-Python one (list element access is the faster
        # interpreter path).  Identical IEEE arithmetic either way.
        if _kernels.JIT_ENABLED:
            kernel = _kernels.advance_rank_jit
            pcs: Any = off[:-1].copy()
            clocks: Any = np.zeros(R)
            nics: Any = np.zeros(R)
            comp_rows: Any = np.zeros((R, num_phases))
            comm_rows: Any = np.zeros((R, num_phases))
            mark_clock: Any = np.zeros(n_marks)
            mark_comp: Any = np.zeros((n_marks, num_phases))
            mark_comm: Any = np.zeros((n_marks, num_phases))
            arrival: Any = np.zeros(n)
            done: Any = np.zeros(n, dtype=np.uint8)
            k_off: Any = off
            k_opcode: Any = opcode
            k_farg: Any = farg
            k_phase: Any = phase
            k_startup: Any = startup
            k_bw: Any = bwcost
            k_soh: Any = soh
            k_roh: Any = roh
            k_match: Any = match
            k_mark_slot: Any = mark_slot
        else:
            kernel = _kernels.advance_rank
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
            k_off = off.tolist()
            k_opcode = opcode.tolist()
            k_farg = farg.tolist()
            k_phase = phase.tolist()
            k_startup = startup.tolist()
            k_bw = bwcost.tolist()
            k_soh = soh.tolist()
            k_roh = roh.tolist()
            k_match = match.tolist()
            k_mark_slot = mark_slot.tolist()

        finished = [False] * R
        parked: dict[int, int] = {}
        coll_pos: dict[int, dict[int, int]] = {}
        runnable = deque(range(R))
        while runnable:
            r = runnable.popleft()
            if finished[r]:
                continue
            status, blocker = kernel(
                r, pcs, clocks, nics, k_off, k_opcode, k_farg, k_phase,
                k_startup, k_bw, k_soh, k_roh, k_match, k_mark_slot,
                arrival, done, comp_rows, comm_rows,
                mark_clock, mark_comp, mark_comm, num_phases,
            )
            if status == _kernels.ST_FINISHED:
                finished[r] = True
            elif status == _kernels.ST_BLOCKED:
                parked[r] = int(blocker)
            else:
                pos = int(pcs[r])
                seq = int(seq_col[pos])
                pend = coll_pos.setdefault(seq, {})
                pend[r] = pos
                if len(pend) == R:
                    del coll_pos[seq]
                    self._complete_collective_batch(
                        seq, pend, farg, acol, bcol, phase, pcs, clocks,
                        comm_rows, runnable,
                    )
            if parked:
                woke = [w for w, m in parked.items() if m >= 0 and done[m]]
                for w in woke:
                    del parked[w]
                    runnable.append(w)

        if not all(finished):
            raise DeadlockError(
                self._deadlock_report(
                    finished, pcs, off, opcode, acol, bcol, farg,
                    rank_of, seq_col, match, done, send_idx, recv_idx,
                )
            )

        marks = [
            (
                int(rank_of[g]),
                int(acol[g]),
                float(mark_clock[slot]),
                mark_comp[slot],
                mark_comm[slot],
            )
            for slot, g in enumerate(mark_idx.tolist())
        ]
        trace = PhaseTrace(R, num_phases)
        trace.load_batch(comp_rows, comm_rows, marks)
        return SimResult(
            trace=trace,
            final_clocks=np.array(clocks, dtype=np.float64),
        )

    def _complete_collective_batch(
        self, seq, pend, farg, acol, bcol, phase, pcs, clocks, comm_rows, runnable
    ) -> None:
        """All ranks entered collective ``seq``: time it and release them."""
        R = self.num_ranks
        positions = [pend[r] for r in range(R)]
        k0 = int(bcol[positions[0]])
        if any(int(bcol[p]) != k0 for p in positions):
            raise RuntimeError(f"collective mismatch at sequence {seq}")
        timer = self._coll_timers[k0]
        if k0 == simc.COLL_BCAST:
            root = int(acol[positions[0]])
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

    def _deadlock_report(
        self, finished, pcs, off, opcode, acol, bcol, farg,
        rank_of, seq_col, match, done, send_idx, recv_idx,
    ) -> str:
        """Deadlock message: each blocked rank's parked receive key (or the
        collective sequence it is stuck in) and the undelivered sends of the
        peer it waits on, in post order."""
        blocked = [r for r in range(self.num_ranks) if not finished[r]]
        # A posted send is pending until its matched receive has executed.
        pcs_arr = np.asarray(pcs, dtype=np.int64)
        done_arr = np.asarray(done, dtype=bool)
        consumed = np.zeros(opcode.shape[0], dtype=bool)
        executed_recv = recv_idx[recv_idx < pcs_arr[rank_of[recv_idx]]]
        matched = match[executed_recv]
        consumed[matched[matched >= 0]] = True
        pending = send_idx[done_arr[send_idx] & ~consumed[send_idx]]
        posted: dict[int, list] = {}
        for g in pending.tolist():
            src = int(rank_of[g])
            posted.setdefault(src, []).append(
                (api.MessageKey(src, int(acol[g]), int(bcol[g])), float(farg[g]))
            )

        limit = 8
        lines = [f"{len(blocked)} ranks blocked forever (first few: {blocked[:8]})"]
        for rank in blocked[:limit]:
            pos = int(pcs[rank])
            op = int(opcode[pos]) if pos < int(off[rank + 1]) else None
            if op == simc.OP_COLL:
                seq = int(seq_col[pos])
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
