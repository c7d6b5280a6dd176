"""The logical-time scheduler: scalar event loop + batch-compiled core.

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

Two execution paths share those rules:

* :meth:`Engine.run` — the scalar event loop, dispatching per yielded
  request through a table built from :data:`repro.simmpi.api.OP_REGISTRY`.
  It handles any program, including functional mode (payload-carrying
  sends).
* :meth:`Engine.run_compiled` — the batch core.  Programs already lowered
  to columnar event tables (:mod:`repro.simmpi.compile`) are priced
  array-at-a-time: one vectorized ``send_times_many`` sweep for every
  message, static FIFO send/recv matching via one sort, and a tight
  per-rank advance kernel (:mod:`repro.simmpi._kernels`, optionally
  numba-compiled) that touches no request objects.  Charged times replicate
  the scalar engine's float operations in the exact same order, so clocks
  and traces are **bitwise identical** between the two paths.

The engine never lowers a program itself: callers hand it either
generators or compiled columns.  ``docs/engine.md`` describes the two
lowering producers and how :func:`repro.hydro.run_krak` picks a path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.machine.cluster import ClusterConfig
from repro.simmpi import _kernels, api
from repro.simmpi import compile as simc
from repro.simmpi.collectives import allreduce_time, bcast_time, combine, gather_time
from repro.simmpi.tracing import PhaseTrace

#: Collective request types (rendezvous semantics share one code path).
_COLLECTIVES = api.COLLECTIVE_OPS


class DeadlockError(RuntimeError):
    """All unfinished ranks are blocked and no progress is possible.

    The message lists, per blocked rank, the parked receive key (or the
    collective sequence it is stuck in) and the undelivered sends its peer
    actually posted — enough to diagnose a tag mismatch without re-running
    under a debugger.
    """


def _format_deadlock(blocked, waiting, posted, limit: int = 8) -> str:
    """Shared deadlock report for the scalar and batch paths.

    ``waiting`` maps each blocked rank to ``("recv", MessageKey)``,
    ``("collective", seq)``, or ``None``; ``posted`` maps a rank to its
    undelivered posted sends as ``(MessageKey, nbytes)`` in post order.
    """
    lines = [f"{len(blocked)} ranks blocked forever (first few: {blocked[:8]})"]
    for rank in blocked[:limit]:
        why = waiting.get(rank)
        if why is None:
            lines.append(f"  rank {rank}: blocked")
            continue
        if why[0] == "collective":
            lines.append(f"  rank {rank}: waiting in collective sequence {why[1]}")
            continue
        key = why[1]
        lines.append(f"  rank {rank}: parked on recv {key}")
        queue = posted.get(key.src, [])
        if queue:
            shown = ", ".join(
                f"{k} ({nbytes:g} B)" for k, nbytes in queue[:6]
            )
            more = "" if len(queue) <= 6 else f", +{len(queue) - 6} more"
            lines.append(f"    rank {key.src} pending sends: {shown}{more}")
        else:
            lines.append(f"    rank {key.src} has no pending sends")
    if len(blocked) > limit:
        lines.append(f"  ... {len(blocked) - limit} more blocked ranks")
    return "\n".join(lines)


@dataclass
class _RankState:
    """Mutable per-rank bookkeeping."""

    program: Iterator
    clock: float = 0.0
    nic_free: float = 0.0
    phase: int = 0
    finished: bool = False
    #: Value fed into the generator at the next resume.
    pending_value: Any = None
    #: Mailbox key when parked on a blocking receive.
    waiting_recv: api.MessageKey | None = None


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
        if cluster.hierarchy is not None:
            # Fail at construction, not mid-run: an explicit placement must
            # cover exactly this job's ranks or pairwise pricing would be
            # undefined (tree_extents validates both cases).
            cluster.hierarchy.tree_extents(num_ranks)
        self.cluster = cluster
        self.num_ranks = num_ranks
        self.trace = PhaseTrace(num_ranks, num_phases)
        #: MessageKey → deque of (arrival_time, nbytes, payload)
        self._mailboxes: dict[api.MessageKey, deque] = {}
        #: MessageKey → rank id parked on that receive
        self._recv_waiters: dict[api.MessageKey, int] = {}
        #: Per-rank count of collectives entered (rendezvous sequence ids).
        self._coll_seq_entered: list[int] = [0] * num_ranks
        #: sequence id → {rank: (request, entry clock)}
        self._coll_pending: dict[int, dict[int, tuple]] = {}
        self._states: list[_RankState] = []
        # Hot-loop constants, resolved once.
        self._send_overhead = cluster.send_overhead
        self._recv_overhead = cluster.recv_overhead
        self._flat_net = cluster.network if cluster.hierarchy is None else None
        #: (src, dst) → flat network, filled lazily for hierarchical runs.
        self._pair_nets: dict[tuple, Any] = {}
        # Per-pair host overheads apply only when the hierarchy prices
        # on-node messages with a cheaper shared-memory transport; the flag
        # keeps the common flat-overhead path branch-free per event.
        hierarchy = cluster.hierarchy
        self._pair_overheads_on = hierarchy is not None and (
            hierarchy.intra_send_overhead is not None
            or hierarchy.intra_recv_overhead is not None
        )
        #: (src, dst) → (send, recv) overheads, lazily memoised.
        self._pair_oh: dict[tuple, tuple] = {}
        self._coll_timers = self._make_collective_timers()
        self._dispatch = self._build_dispatch()

    def _build_dispatch(self) -> dict:
        """Request type → handler, built from the frozen op registry.

        Collective kinds share one rendezvous handler; every other kind maps
        to ``_op_<kind>``.  Extending the vocabulary means registering a new
        op class and adding its handler — there is no type ladder to edit.
        """
        handlers: dict = {}
        for cls in api.OP_REGISTRY.values():
            if cls.collective:
                handlers[cls] = self._op_collective
            else:
                handlers[cls] = getattr(self, "_op_" + cls.kind)
        return handlers

    def _make_collective_timers(self) -> dict:
        """Kind → duration function, resolved against the cluster once."""
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
        return {
            api.Allreduce: t_allreduce,
            api.Bcast: t_bcast,
            api.Gather: t_gather,
            api.Barrier: t_allreduce,
        }

    def _network_for(self, src: int, dst: int):
        """Memoised per-pair flat network (trivial without a hierarchy)."""
        if self._flat_net is not None:
            return self._flat_net
        key = (src, dst)
        net = self._pair_nets.get(key)
        if net is None:
            net = self._pair_nets[key] = self.cluster.network_for(src, dst)
        return net

    def _overheads_for(self, src: int, dst: int) -> tuple:
        """Memoised per-pair ``(send, recv)`` host overheads.

        Only consulted when the hierarchy declares cheaper on-node
        overheads; every other configuration uses the flat constants
        resolved in ``__init__``, exactly as before.
        """
        key = (src, dst)
        oh = self._pair_oh.get(key)
        if oh is None:
            oh = self._pair_oh[key] = self.cluster.hierarchy.host_overheads_for(
                src, dst, self._send_overhead, self._recv_overhead
            )
        return oh

    # ------------------------------------------------------------------ run

    def run(self, make_program: Callable[[int], Iterator]) -> SimResult:
        """Execute ``make_program(rank)`` for every rank until all finish.

        ``make_program`` must return a generator yielding request objects
        from :mod:`repro.simmpi.api`.  This is the scalar event loop; see
        :meth:`run_compiled` for the batch-compiled path.
        """
        states = [_RankState(program=make_program(r)) for r in range(self.num_ranks)]
        self._states = states
        runnable = deque(range(self.num_ranks))

        while runnable:
            rank = runnable.popleft()
            st = states[rank]
            if st.finished:
                continue
            self._advance(rank, st, runnable)

        if not all(st.finished for st in states):
            raise DeadlockError(self._deadlock_report_scalar(states))
        clocks = np.array([st.clock for st in states])
        return SimResult(trace=self.trace, final_clocks=clocks)

    def _deadlock_report_scalar(self, states: list[_RankState]) -> str:
        """Enriched deadlock message from the scalar engine's live state."""
        blocked = [r for r, st in enumerate(states) if not st.finished]
        waiting: dict[int, tuple | None] = {}
        for r in blocked:
            st = states[r]
            if st.waiting_recv is not None:
                waiting[r] = ("recv", api.MessageKey(*st.waiting_recv))
            else:
                seq = next(
                    (s for s, pend in self._coll_pending.items() if r in pend), None
                )
                waiting[r] = None if seq is None else ("collective", seq)
        posted: dict[int, list] = {}
        for key, box in self._mailboxes.items():
            for _arrival, nbytes, _payload in box:
                posted.setdefault(key[0], []).append(
                    (api.MessageKey(*key), float(nbytes))
                )
        return _format_deadlock(blocked, waiting, posted)

    # ------------------------------------------------------- request handling

    def _park_recv(self, rank: int, key: api.MessageKey) -> None:
        """Park ``rank`` as the waiter on ``key``.

        Tags are unique per (phase, slot) and keys include the destination
        rank, so a key can only ever have one waiter; a second one (or a
        different rank re-parking on another's key) is a program bug and
        must fail loudly instead of silently overwriting the first.
        """
        existing = self._recv_waiters.get(key)
        if existing is not None and existing != rank:
            raise RuntimeError(f"two receivers parked on {key}")
        self._recv_waiters[key] = rank

    def _satisfy_recv(self, rank: int, st: _RankState, key: api.MessageKey) -> bool:
        """Try to complete a receive on ``key``; True on success."""
        box = self._mailboxes.get(key)
        if not box:
            return False
        arrival, nbytes, payload = box.popleft()
        if self._pair_overheads_on:
            recv_overhead = self._overheads_for(key[0], rank)[1]
        else:
            recv_overhead = self._recv_overhead
        wait = max(0.0, arrival - st.clock) + recv_overhead
        st.clock += wait
        self.trace.add_comm(rank, st.phase, wait)
        st.pending_value = (nbytes, payload)
        return True

    def _advance(self, rank: int, st: _RankState, runnable: deque) -> None:
        """Run ``rank`` until it blocks or finishes (scalar path)."""
        # If the rank was parked on a receive, the wake-up implies a message
        # is (normally) available; spurious wake-ups simply re-park.
        if st.waiting_recv is not None:
            key = st.waiting_recv
            if not self._satisfy_recv(rank, st, key):
                self._park_recv(rank, key)
                return
            st.waiting_recv = None

        program_send = st.program.send
        dispatch = self._dispatch
        while True:
            try:
                req = program_send(st.pending_value)
            except StopIteration:
                st.finished = True
                return
            st.pending_value = None
            handler = dispatch.get(type(req))
            if handler is None:
                raise TypeError(f"unknown request {req!r}")
            if not handler(rank, st, req, runnable):
                return

    # Handlers return True to keep advancing the rank, False to yield
    # control back to the scheduler (park, rendezvous).

    def _op_compute(self, rank: int, st: _RankState, req, runnable: deque) -> bool:
        st.clock += req.seconds
        self.trace.add_compute(rank, st.phase, req.seconds)
        return True

    def _op_isend(self, rank: int, st: _RankState, req, runnable: deque) -> bool:
        dst = req.dst
        if not 0 <= dst < self.num_ranks:
            raise ValueError(f"Isend to invalid rank {dst}")
        if dst == rank:
            raise ValueError("self-sends are not supported")
        if self._pair_overheads_on:
            overhead = self._overheads_for(rank, dst)[0]
        else:
            overhead = self._send_overhead
        st.clock += overhead
        self.trace.add_comm(rank, st.phase, overhead)
        startup, bw = self._network_for(rank, dst).send_times(req.nbytes)
        nic_start = st.nic_free if st.nic_free > st.clock else st.clock
        arrival = nic_start + startup + bw
        st.nic_free = nic_start + bw
        key = api.MessageKey(rank, dst, req.tag)
        box = self._mailboxes.get(key)
        if box is None:
            box = self._mailboxes[key] = deque()
        box.append((arrival, req.nbytes, req.payload))
        waiter = self._recv_waiters.pop(key, None)
        if waiter is not None:
            runnable.append(waiter)
        return True

    def _op_recv(self, rank: int, st: _RankState, req, runnable: deque) -> bool:
        key = req.message_key(rank)
        if not self._satisfy_recv(rank, st, key):
            st.waiting_recv = key
            self._park_recv(rank, key)
            return False
        return True

    def _op_set_phase(self, rank: int, st: _RankState, req, runnable: deque) -> bool:
        if not 0 <= req.phase < self.trace.num_phases:
            raise ValueError(f"phase {req.phase} out of range")
        st.phase = req.phase
        return True

    def _op_wait_sends(self, rank: int, st: _RankState, req, runnable: deque) -> bool:
        if st.nic_free > st.clock:
            self.trace.add_comm(rank, st.phase, st.nic_free - st.clock)
            st.clock = st.nic_free
        return True

    def _op_mark_iteration(
        self, rank: int, st: _RankState, req, runnable: deque
    ) -> bool:
        self.trace.mark_iteration(rank, req.index, st.clock)
        return True

    def _op_collective(self, rank: int, st: _RankState, req, runnable: deque) -> bool:
        seq = self._coll_seq_entered[rank]
        self._coll_seq_entered[rank] += 1
        pend = self._coll_pending.setdefault(seq, {})
        pend[rank] = (req, st.clock)
        if len(pend) == self.num_ranks:
            self._complete_collective(seq, self._states, runnable)
        return False

    def _complete_collective(
        self, seq: int, states: list[_RankState], runnable: deque
    ) -> None:
        """All ranks have entered collective ``seq``: time it and wake them."""
        pend = self._coll_pending.pop(seq)
        reqs = [pend[r][0] for r in range(self.num_ranks)]
        enter_times = [pend[r][1] for r in range(self.num_ranks)]
        kind = type(reqs[0])
        if any(type(q) is not kind for q in reqs):
            raise RuntimeError(f"collective mismatch at sequence {seq}")

        timer = self._coll_timers[kind]
        start = max(enter_times)
        if kind is api.Allreduce:
            op = reqs[0].op
            nbytes = max(q.nbytes for q in reqs)
            duration = timer(nbytes)
            result = combine(op, [q.value for q in reqs])
            results: list[Any] = [result] * self.num_ranks
        elif kind is api.Bcast:
            root = reqs[0].root
            nbytes = reqs[root].nbytes
            duration = timer(nbytes)
            results = [reqs[root].value] * self.num_ranks
        elif kind is api.Gather:
            root = reqs[0].root
            nbytes = max(q.nbytes for q in reqs)
            duration = timer(nbytes)
            gathered = [q.value for q in reqs]
            results = [gathered if r == root else None for r in range(self.num_ranks)]
        elif kind is api.Barrier:
            duration = timer(4)
            results = [None] * self.num_ranks
        else:  # pragma: no cover - guarded by the dispatch table
            raise TypeError(kind)

        finish = start + duration
        add_comm = self.trace.add_comm
        for r, st in enumerate(states):
            waited = finish - st.clock
            if waited > 0:
                add_comm(r, st.phase, waited)
                st.clock = finish
            st.pending_value = results[r]
            runnable.append(r)

    # --------------------------------------------------------- batch engine

    def run_compiled(self, compiled: list[simc.CompiledProgram]) -> SimResult:
        """Execute pre-lowered columnar programs array-at-a-time.

        Pricing (``send_times_many``), send/recv matching (one stable sort),
        host overheads, and phase attribution are all resolved up front with
        vectorized sweeps; execution is then a tight per-rank advance kernel
        plus a small rendezvous orchestrator.  Bitwise identical to
        :meth:`run` on the same op streams.
        """
        R = self.num_ranks
        if len(compiled) != R:
            raise ValueError(f"expected {R} compiled programs, got {len(compiled)}")
        num_phases = self.trace.num_phases
        counts = np.array([p.num_ops for p in compiled], dtype=np.int64)
        off = np.zeros(R + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        n = int(off[-1])
        opcode = np.concatenate([p.opcode for p in compiled])
        farg = np.concatenate([p.farg for p in compiled])
        acol = np.concatenate([p.a for p in compiled])
        bcol = np.concatenate([p.b for p in compiled])
        rank_of = np.repeat(np.arange(R, dtype=np.int64), counts)
        hierarchy = self.cluster.hierarchy

        # --- static phase attribution: SetPhase forward-fill, per rank.
        phase = np.zeros(n, dtype=np.int64)
        sp_mask = opcode == simc.OP_SETPHASE
        if sp_mask.any():
            vals = acol[sp_mask]
            bad = (vals < 0) | (vals >= num_phases)
            if bad.any():
                raise ValueError(f"phase {int(vals[np.argmax(bad)])} out of range")
            for r in range(R):
                s, e = int(off[r]), int(off[r + 1])
                sp = np.flatnonzero(sp_mask[s:e])
                if not sp.size:
                    continue
                run_id = np.zeros(e - s, dtype=np.int64)
                run_id[sp] = np.arange(1, sp.size + 1)
                run_id = np.maximum.accumulate(run_id)
                rvals = acol[s:e][sp]
                phase[s:e] = np.where(
                    run_id > 0, rvals[np.maximum(run_id, 1) - 1], 0
                )

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
            if self._flat_net is not None:
                lat, bwt = self._flat_net.send_times_many(sizes)
            else:
                intra = hierarchy.same_node_mask(s_src, s_dst)
                lat, bwt = hierarchy.inter.send_times_many(sizes)
                if intra.any():
                    ilat, ibwt = hierarchy.intra.send_times_many(sizes[intra])
                    lat[intra] = ilat
                    bwt[intra] = ibwt
            startup[send_idx] = lat
            bwcost[send_idx] = bwt
            if self._pair_overheads_on and hierarchy.intra_send_overhead is not None:
                soh[send_idx] = np.where(
                    hierarchy.same_node_mask(s_src, s_dst),
                    hierarchy.intra_send_overhead,
                    self._send_overhead,
                )
            else:
                soh[send_idx] = self._send_overhead

        # --- receives: overheads + static FIFO matching (one stable sort).
        recv_idx = np.flatnonzero(opcode == simc.OP_RECV)
        match = np.full(n, -1, dtype=np.int64)
        if recv_idx.size:
            r_src = acol[recv_idx]
            r_dst = rank_of[recv_idx]
            if self._pair_overheads_on and hierarchy.intra_recv_overhead is not None:
                # Out-of-range sources can never match a validated send, so
                # their (never-consulted) overhead may use a clipped rank.
                src_safe = np.clip(r_src, 0, R - 1)
                roh[recv_idx] = np.where(
                    hierarchy.same_node_mask(src_safe, r_dst),
                    hierarchy.intra_recv_overhead,
                    self._recv_overhead,
                )
            else:
                roh[recv_idx] = self._recv_overhead
            if send_idx.size:
                # All sends on a key come from one rank in program order and
                # all receives from one rank in program order, so the k-th
                # send pairs the k-th receive statically.  Encode each
                # (src, dst, tag) as one integer (tags compressed through
                # np.unique) and line the two sorted streams up.
                all_tags = np.concatenate([bcol[send_idx], bcol[recv_idx]])
                uniq_tags, tag_inv = np.unique(all_tags, return_inverse=True)
                num_tags = np.int64(uniq_tags.size)
                s_key = (s_src * R + s_dst) * num_tags + tag_inv[: send_idx.size]
                r_key = (r_src * R + r_dst) * num_tags + tag_inv[send_idx.size :]
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
        seq_col = np.full(n, -1, dtype=np.int64)
        for r in range(R):
            s, e = int(off[r]), int(off[r + 1])
            c = np.flatnonzero(coll_mask[s:e])
            seq_col[s + c] = np.arange(c.size)

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
                self._deadlock_report_compiled(
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
        self.trace.load_batch(comp_rows, comm_rows, marks)
        return SimResult(
            trace=self.trace,
            final_clocks=np.array(clocks, dtype=np.float64),
        )

    def _complete_collective_batch(
        self, seq, pend, farg, acol, bcol, phase, pcs, clocks, comm_rows, runnable
    ) -> None:
        """Rendezvous for the batch path (same timing rules as scalar)."""
        R = self.num_ranks
        positions = [pend[r] for r in range(R)]
        k0 = int(bcol[positions[0]])
        if any(int(bcol[p]) != k0 for p in positions):
            raise RuntimeError(f"collective mismatch at sequence {seq}")
        timer = self._coll_timers[simc.COLL_CLASSES[k0]]
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

    def _deadlock_report_compiled(
        self, finished, pcs, off, opcode, acol, bcol, farg,
        rank_of, seq_col, match, done, send_idx, recv_idx,
    ) -> str:
        """Enriched deadlock message from the batch engine's tables."""
        R = self.num_ranks
        blocked = [r for r in range(R) if not finished[r]]
        waiting: dict[int, tuple | None] = {}
        for r in blocked:
            pos = int(pcs[r])
            if pos >= int(off[r + 1]):
                waiting[r] = None
            elif opcode[pos] == simc.OP_RECV:
                waiting[r] = (
                    "recv", api.MessageKey(int(acol[pos]), r, int(bcol[pos]))
                )
            elif opcode[pos] == simc.OP_COLL:
                waiting[r] = ("collective", int(seq_col[pos]))
            else:
                waiting[r] = None
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
        return _format_deadlock(blocked, waiting, posted)
