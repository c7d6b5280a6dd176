"""The reference oracle: slow, scalar, and obviously correct.

Every function here re-implements a piece of the optimized stack —
Equation-(4) message pricing, the binary-tree collectives, the
boundary/ghost exchange tallies, the per-processor compute charge, and the
logical-time engine itself — with plain Python loops over scalars: no
``searchsorted`` batching, no per-size memoisation, no per-pair network
caches, no type-dispatch tables.  The oracle shares only the *input*
dataclasses (:class:`~repro.machine.network.NetworkModel`,
:class:`~repro.machine.cluster.ClusterConfig`,
:class:`~repro.hydro.workload.WorkloadCensus`, …) with the optimized code;
all derived quantities are recomputed from first principles on every call.

The optimized paths claim to be *bitwise* refactorings, so the differential
runner (:mod:`repro.verify.diff`) holds them to a 1e-12 relative tolerance
against this module — tight enough that any semantic drift (a wrong segment
at a breakpoint, a dropped overhead, a mis-keyed cache) is caught, loose
enough to admit benign re-association inside a dot product.

Performance is an explicit non-goal: clarity is the whole point.  Never
"optimize" this module; speedups belong in the production stack, where this
oracle will judge them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hydro.dynamic import DynamicController, DynamicRunInfo, DynamicSpec
from repro.hydro.phases import KrakProgram
from repro.hydro.workload import WorkloadCensus, build_workload_census
from repro.machine.cluster import ClusterConfig, es45_like_cluster
from repro.machine.costdb import NUM_PHASES
from repro.machine.network import NetworkModel
from repro.mesh.connectivity import FaceTable, build_face_table
from repro.mesh.deck import InputDeck
from repro.partition.base import Partition
from repro.perturb.model import FAILURE_PHASE
from repro.perturb.spec import PerturbSpec
from repro.simmpi import api

# --------------------------------------------------------------- Equation (4)


def _oracle_segment(network: NetworkModel, size: float) -> int:
    """Piecewise segment of ``size``: first segment whose breakpoint is >= it.

    A size exactly at a breakpoint belongs to the segment *below* the
    breakpoint (an eager-threshold-sized message still goes eagerly) —
    the loop form of ``searchsorted(..., side="left")``.
    """
    breakpoints = network.breakpoints
    seg = 0
    while seg < len(breakpoints) and float(breakpoints[seg]) < size:
        seg += 1
    return seg


def oracle_tmsg(network: NetworkModel, size, degrade: float = 1.0) -> float:
    """Equation (4), one scalar at a time: ``L(S) + S · TB(S)``.

    ``degrade`` is the link-degradation multiplier applied to the
    *parameters* (latency and per-byte cost each scaled, then the formula)
    — the same association the production path gets by scaling the network
    arrays up front, so a degraded run still diffs bitwise.
    """
    s = float(size)
    if s < 0:
        raise ValueError("message size must be non-negative")
    seg = _oracle_segment(network, s)
    latency = float(network.latency[seg]) * degrade
    per_byte = float(network.per_byte[seg]) * degrade
    return latency + s * per_byte


def oracle_send_times(
    network: NetworkModel, size, degrade: float = 1.0
) -> tuple[float, float]:
    """``(L(S), S · TB(S))`` — the two terms an ``Isend`` charges separately."""
    s = float(size)
    if s < 0:
        raise ValueError("message size must be non-negative")
    seg = _oracle_segment(network, s)
    latency = float(network.latency[seg]) * degrade
    per_byte = float(network.per_byte[seg]) * degrade
    return latency, s * per_byte


# ---------------------------------------------------------------- collectives


def oracle_tree_depth(num_ranks: int) -> int:
    """Binary-tree depth by counting doublings (no floating-point log)."""
    if num_ranks < 1:
        raise ValueError(f"num_ranks must be >= 1, got {num_ranks}")
    depth = 0
    while (1 << depth) < num_ranks:
        depth += 1
    return depth


def oracle_bcast_time(
    network: NetworkModel, num_ranks: int, nbytes, degrade: float = 1.0
) -> float:
    """Fan-out over a binary tree: ``log2(P) · Tmsg(S)``."""
    return oracle_tree_depth(num_ranks) * oracle_tmsg(network, nbytes, degrade)


def oracle_gather_time(
    network: NetworkModel, num_ranks: int, nbytes, degrade: float = 1.0
) -> float:
    """Fan-in over a binary tree (same step structure as the fan-out)."""
    return oracle_tree_depth(num_ranks) * oracle_tmsg(network, nbytes, degrade)


def oracle_allreduce_time(
    network: NetworkModel, num_ranks: int, nbytes, degrade: float = 1.0
) -> float:
    """Fan-in plus fan-out: ``2 · log2(P) · Tmsg(S)``."""
    return 2.0 * oracle_tree_depth(num_ranks) * oracle_tmsg(
        network, nbytes, degrade
    )


def oracle_collectives_time(network: NetworkModel, num_ranks: int) -> float:
    """The per-iteration collective census of Equations (8)–(10), by loops."""
    depth = oracle_tree_depth(num_ranks)
    total = 0.0
    # Equation (8): three 4-byte and three 8-byte broadcasts.
    total += 3 * depth * oracle_tmsg(network, 4)
    total += 3 * depth * oracle_tmsg(network, 8)
    # Equation (9): nine 4-byte and thirteen 8-byte allreduces, each a
    # fan-in plus a fan-out.
    total += 18 * depth * oracle_tmsg(network, 4)
    total += 26 * depth * oracle_tmsg(network, 8)
    # Equation (10): one 32-byte gather.
    total += depth * oracle_tmsg(network, 32)
    return total


def _oracle_node_of(hierarchy, rank: int) -> int:
    """Rank → node, recomputed per call (block map or explicit placement)."""
    if hierarchy.placement is None:
        return rank // hierarchy.ranks_per_node
    return int(hierarchy.placement.node_of_rank[rank])


def oracle_tree_extents(hierarchy, num_ranks: int) -> tuple[int, int]:
    """``(num_nodes, max_ranks_on_one_node)`` by counting every rank."""
    occupancy: dict[int, int] = {}
    for rank in range(num_ranks):
        node = _oracle_node_of(hierarchy, rank)
        occupancy[node] = occupancy.get(node, 0) + 1
    return len(occupancy), max(occupancy.values())


def oracle_hier_bcast_time(
    hierarchy, num_ranks: int, nbytes, degrade: float = 1.0
) -> float:
    """SMP fan-out: inter-node tree plus an intra-node tree.

    Link degradation hits only the inter-node hop — contention lives on
    the fabric, never on the shared-memory bus.
    """
    num_nodes, local = oracle_tree_extents(hierarchy, num_ranks)
    return oracle_tree_depth(num_nodes) * oracle_tmsg(
        hierarchy.inter, nbytes, degrade
    ) + oracle_tree_depth(local) * oracle_tmsg(hierarchy.intra, nbytes)


def oracle_hier_gather_time(
    hierarchy, num_ranks: int, nbytes, degrade: float = 1.0
) -> float:
    """SMP fan-in (same step structure as the fan-out)."""
    return oracle_hier_bcast_time(hierarchy, num_ranks, nbytes, degrade)


def oracle_hier_allreduce_time(
    hierarchy, num_ranks: int, nbytes, degrade: float = 1.0
) -> float:
    """SMP reduce + broadcast: twice the fan-out time."""
    return 2.0 * oracle_hier_bcast_time(hierarchy, num_ranks, nbytes, degrade)


# -------------------------------------------- boundary / ghost exchange model


def oracle_boundary_exchange_time(
    network: NetworkModel,
    faces_by_material,
    multi_nodes_by_material=None,
) -> float:
    """Equation (5) with the Table-3 sizes, message by message.

    For each material (or combined exchange group) with boundary faces: two
    enlarged messages then four plain ones; finally a six-message step over
    all faces.  Each message is priced with a fresh scalar
    :func:`oracle_tmsg`.
    """
    faces = [float(f) for f in np.asarray(faces_by_material).ravel()]
    if multi_nodes_by_material is None:
        multi = [0.0] * len(faces)
    else:
        multi = [float(m) for m in np.asarray(multi_nodes_by_material).ravel()]
    if len(multi) != len(faces):
        raise ValueError("multi_nodes_by_material must align with faces_by_material")
    if any(f < 0 for f in faces) or any(m < 0 for m in multi):
        raise ValueError("face and multi-node counts must be non-negative")

    total = 0.0
    for f, m in zip(faces, multi):
        if f <= 0:
            continue
        big = 12.0 * f + 12.0 * m
        small = 12.0 * f
        total += 2 * oracle_tmsg(network, big)
        total += 4 * oracle_tmsg(network, small)
    all_faces = 0.0
    for f in faces:
        all_faces += f
    total += 6 * oracle_tmsg(network, 12.0 * all_faces)
    return total


def oracle_ghost_phase_total(
    network: NetworkModel, n_local: int, n_remote: int
) -> float:
    """Equations (6)/(7) for one neighbour over all three ghost phases.

    Phase 4 moves 8 bytes per ghost node, phases 5 and 7 move 16; each
    phase sends one message for the locally-owned nodes and one for the
    remote ones.
    """
    if n_local < 0 or n_remote < 0:
        raise ValueError("ghost-node counts must be non-negative")
    total = 0.0
    for bytes_per_node in (8, 16, 16):
        total += oracle_tmsg(network, bytes_per_node * n_local) + oracle_tmsg(
            network, bytes_per_node * n_remote
        )
    return total


# ----------------------------------------------------------- compute charges


def oracle_phase_time(
    node_model,
    phase: int,
    work_by_material,
    rank: int = 0,
    iteration: int = 0,
    with_jitter: bool = True,
) -> float:
    """The per-processor compute charge, with an explicit material loop.

    ``T = overhead[p] + cache(n) · Σ_m cell_cost[p, m] · work[m]``, then the
    deterministic jitter factor — the same hash stream as the production
    model (the jitter *is* part of the specification, not an optimization).
    """
    from repro.machine.node import _hash_jitter

    work = [float(w) for w in np.asarray(work_by_material).ravel()]
    if any(w < 0 for w in work):
        raise ValueError("work counts must be non-negative")
    n = 0.0
    for w in work:
        n += w
    if n <= 0:
        cache = 1.0
    else:
        cache = 1.0 + node_model.cache_penalty * n / (n + node_model.cache_cells)
    cost = 0.0
    for material, w in enumerate(work):
        cost += float(node_model.cell_cost[phase][material]) * w
    base = float(node_model.phase_overhead[phase]) + cache * cost
    if with_jitter and node_model.jitter_frac:
        base *= 1.0 + node_model.jitter_frac * _hash_jitter(
            rank, phase, iteration, node_model.seed
        )
    return base


# ------------------------------------------------------------- oracle engine


class OracleDeadlockError(RuntimeError):
    """All unfinished ranks are blocked and no progress is possible."""


@dataclass(frozen=True)
class OracleResult:
    """What the oracle engine produces — the comparable trace surface."""

    #: Computation seconds per ``(rank, phase)``.
    compute: np.ndarray
    #: Communication seconds per ``(rank, phase)``.
    comm: np.ndarray
    #: Final virtual clock per rank.
    final_clocks: np.ndarray
    #: iteration index → per-rank clock at its ``MarkIteration``.
    iteration_starts: dict

    @property
    def makespan(self) -> float:
        """Latest rank completion time."""
        return float(self.final_clocks.max())


class _OracleRankState:
    """Mutable per-rank bookkeeping (a plain object, no dataclass magic)."""

    def __init__(self, program) -> None:
        self.program = iter(program)
        self.clock = 0.0
        self.nic_free = 0.0
        self.phase = 0
        self.finished = False
        self.pending = None  # request we could not complete yet
        self.in_collective = False


class OracleEngine:
    """A naive logical-time scheduler for simulated rank programs.

    Fair round-robin over ranks, one request at a time; a rank that cannot
    complete its request (unmatched receive, incomplete collective) simply
    keeps it pending for the next sweep.  Every cost — pair network
    selection, host overheads, Equation-(4) terms, collective trees — is
    recomputed from the cluster configuration at the point of use, with no
    caches anywhere.  Request semantics mirror
    :class:`repro.simmpi.engine.Engine` exactly; only the bookkeeping
    strategy differs (and logical-time simulation is scheduling-order
    independent, as the production engine's module docstring argues).
    """

    def __init__(
        self,
        cluster: ClusterConfig,
        num_ranks: int,
        num_phases: int,
        link_degrade: float = 0.0,
    ) -> None:
        if num_ranks < 1:
            raise ValueError(f"num_ranks must be >= 1, got {num_ranks}")
        self.cluster = cluster
        self.num_ranks = num_ranks
        self.num_phases = num_phases
        #: Inter-node degradation multiplier, applied naively at each
        #: pricing site (the production path bakes it into the network
        #: arrays instead — see :func:`repro.perturb.degrade_cluster`).
        self.link_degrade = 1.0 + link_degrade
        self._compute = np.zeros((num_ranks, num_phases))
        self._comm = np.zeros((num_ranks, num_phases))
        self._marks: dict[int, np.ndarray] = {}
        #: (src, dst, tag) → list of arrival times, FIFO.
        self._mailboxes: dict[tuple, list] = {}
        #: Per-rank count of collectives entered (rendezvous sequence ids).
        self._coll_entered: list[int] = [0] * num_ranks
        #: sequence id → {rank: (request, entry clock)}
        self._coll_pending: dict[int, dict[int, tuple]] = {}

    # ---------------------------------------------------------- cost lookups

    def _network_for(self, src: int, dst: int) -> tuple[NetworkModel, float]:
        """``(network, degrade)`` for a rank pair.

        Only the inter-node fabric (or the flat network of a non-SMP
        machine) degrades; the shared-memory path never does.
        """
        hierarchy = self.cluster.hierarchy
        if hierarchy is None:
            return self.cluster.network, self.link_degrade
        if _oracle_node_of(hierarchy, src) == _oracle_node_of(hierarchy, dst):
            return hierarchy.intra, 1.0
        return hierarchy.inter, self.link_degrade

    def _host_overheads(self, src: int, dst: int) -> tuple[float, float]:
        """``(send, recv)`` host overheads for a message between two ranks."""
        send = float(self.cluster.send_overhead)
        recv = float(self.cluster.recv_overhead)
        hierarchy = self.cluster.hierarchy
        if hierarchy is None:
            return send, recv
        if hierarchy.intra_send_overhead is None and (
            hierarchy.intra_recv_overhead is None
        ):
            return send, recv
        if _oracle_node_of(hierarchy, src) != _oracle_node_of(hierarchy, dst):
            return send, recv
        if hierarchy.intra_send_overhead is not None:
            send = float(hierarchy.intra_send_overhead)
        if hierarchy.intra_recv_overhead is not None:
            recv = float(hierarchy.intra_recv_overhead)
        return send, recv

    def _collective_duration(self, kind, nbytes) -> float:
        """Tree time of one collective, recomputed per call."""
        degrade = self.link_degrade
        hierarchy = self.cluster.hierarchy
        if hierarchy is not None:
            if kind is api.Bcast:
                return oracle_hier_bcast_time(
                    hierarchy, self.num_ranks, nbytes, degrade
                )
            if kind is api.Gather:
                return oracle_hier_gather_time(
                    hierarchy, self.num_ranks, nbytes, degrade
                )
            # Allreduce and Barrier share the reduce + broadcast tree.
            return oracle_hier_allreduce_time(
                hierarchy, self.num_ranks, nbytes, degrade
            )
        network = self.cluster.network
        if kind is api.Bcast:
            return oracle_bcast_time(network, self.num_ranks, nbytes, degrade)
        if kind is api.Gather:
            return oracle_gather_time(network, self.num_ranks, nbytes, degrade)
        return oracle_allreduce_time(network, self.num_ranks, nbytes, degrade)

    # ------------------------------------------------------------------- run

    def run(self, make_program) -> OracleResult:
        """Execute ``make_program(rank)`` for every rank until all finish."""
        states = [_OracleRankState(make_program(r)) for r in range(self.num_ranks)]
        while not all(st.finished for st in states):
            progress = False
            for rank, st in enumerate(states):
                if self._advance(rank, st, states):
                    progress = True
            if not progress:
                blocked = [r for r, st in enumerate(states) if not st.finished]
                raise OracleDeadlockError(
                    f"{len(blocked)} ranks blocked forever (first few: {blocked[:8]})"
                )
        clocks = np.array([st.clock for st in states])
        return OracleResult(
            compute=self._compute,
            comm=self._comm,
            final_clocks=clocks,
            iteration_starts=self._marks,
        )

    def _advance(self, rank: int, st: _OracleRankState, states: list) -> bool:
        """Run ``rank`` until it blocks or finishes; True if it made progress."""
        moved = False
        while not st.finished and not st.in_collective:
            if st.pending is not None:
                req = st.pending
            else:
                try:
                    req = next(st.program)
                except StopIteration:
                    st.finished = True
                    return True
            if not self._handle(rank, st, req, states):
                st.pending = req
                return moved
            st.pending = None
            moved = True
        return moved

    def _handle(self, rank: int, st: _OracleRankState, req, states: list) -> bool:
        """Apply one request; False when the rank must wait and retry."""
        if isinstance(req, api.Compute):
            st.clock += req.seconds
            self._compute[rank, st.phase] += req.seconds

        elif isinstance(req, api.Isend):
            send_overhead, _ = self._host_overheads(rank, req.dst)
            st.clock += send_overhead
            self._comm[rank, st.phase] += send_overhead
            network, degrade = self._network_for(rank, req.dst)
            startup, bandwidth = oracle_send_times(network, req.nbytes, degrade)
            nic_start = st.nic_free if st.nic_free > st.clock else st.clock
            arrival = nic_start + startup + bandwidth
            st.nic_free = nic_start + bandwidth
            key = (rank, req.dst, req.tag)
            self._mailboxes.setdefault(key, []).append(arrival)

        elif isinstance(req, api.Recv):
            key = (req.src, rank, req.tag)
            box = self._mailboxes.get(key)
            if not box:
                return False
            arrival = box.pop(0)
            _, recv_overhead = self._host_overheads(req.src, rank)
            wait = max(0.0, arrival - st.clock) + recv_overhead
            st.clock += wait
            self._comm[rank, st.phase] += wait

        elif isinstance(req, api.SetPhase):
            if not 0 <= req.phase < self.num_phases:
                raise ValueError(f"phase {req.phase} out of range")
            st.phase = req.phase

        elif isinstance(req, api.WaitSends):
            if st.nic_free > st.clock:
                self._comm[rank, st.phase] += st.nic_free - st.clock
                st.clock = st.nic_free

        elif isinstance(req, api.MarkIteration):
            marks = self._marks.setdefault(
                req.index, np.full(self.num_ranks, np.nan)
            )
            marks[rank] = st.clock

        elif isinstance(
            req, (api.Allreduce, api.Bcast, api.Gather, api.Barrier)
        ):
            seq = self._coll_entered[rank]
            self._coll_entered[rank] += 1
            pend = self._coll_pending.setdefault(seq, {})
            pend[rank] = (req, st.clock)
            st.in_collective = True
            if len(pend) == self.num_ranks:
                self._complete_collective(seq, states)

        else:
            raise TypeError(f"unknown request {req!r}")
        return True

    def _complete_collective(self, seq: int, states: list) -> None:
        """All ranks entered collective ``seq``: time it and release them."""
        pend = self._coll_pending.pop(seq)
        reqs = [pend[r][0] for r in range(self.num_ranks)]
        enter_times = [pend[r][1] for r in range(self.num_ranks)]
        kind = type(reqs[0])
        if any(type(q) is not kind for q in reqs) or (
            kind in (api.Bcast, api.Gather)
            and any(q.root != reqs[0].root for q in reqs)
        ):
            raise RuntimeError(f"collective mismatch at sequence {seq}")

        if kind is api.Bcast:
            duration = self._collective_duration(kind, reqs[reqs[0].root].nbytes)
        elif kind is api.Barrier:  # a zero-payload (4-byte) allreduce
            duration = self._collective_duration(kind, 4)
        else:  # Allreduce and Gather pay for the largest contribution.
            duration = self._collective_duration(kind, max(q.nbytes for q in reqs))

        finish = max(enter_times) + duration
        for rank, st in enumerate(states):
            waited = finish - st.clock
            if waited > 0:
                self._comm[rank, st.phase] += waited
                st.clock = finish
            st.in_collective = False


# --------------------------------------------------------- perturbation twin


class OraclePerturbation:
    """Naive re-implementation of :class:`repro.perturb.Perturbation`.

    Every factor is re-derived from the ``(seed, stream, rank, iteration)``
    ``SeedSequence`` contract *per call*, one scalar draw at a time — no
    caching, no vectorised fills — so a bug in the production machinery
    (a shared stream, a dropped straggler draw, a mis-keyed cache) diverges
    from this twin and fails the differential.  Draw order per (rank,
    iteration) on stream 0: one uniform (the straggler event, always
    consumed), then one exponential per Krak phase.
    """

    def __init__(self, spec: PerturbSpec, num_ranks: int) -> None:
        if spec.fail_rank is not None and spec.fail_rank >= num_ranks:
            raise ValueError(
                f"fail_rank {spec.fail_rank} out of range for {num_ranks} ranks"
            )
        self.spec = spec
        self.num_ranks = num_ranks

    @staticmethod
    def _rng(seed: int, stream: int, rank: int, iteration: int):
        return np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence((seed, stream, rank, iteration))
            )
        )

    def compute_factors(self, rank: int, iteration: int):
        """Per-phase scale factors, as a plain list of scalars (or None)."""
        spec = self.spec
        if spec.compute_noise == 0.0 and spec.straggler_prob == 0.0:
            return None
        rng = self._rng(spec.seed, 0, rank, iteration)
        straggle = rng.random() < spec.straggler_prob
        factors = []
        for _ in range(NUM_PHASES):
            factor = 1.0 + spec.compute_noise * rng.standard_exponential()
            if straggle:
                factor = factor * spec.straggler_factor
            factors.append(factor)
        return factors

    def failure_event(self, iteration: int):
        """``(rank, restart_seconds)`` when the failure fires here."""
        spec = self.spec
        if spec.fail_rank is not None and iteration == spec.fail_iteration:
            return (spec.fail_rank, spec.restart_seconds)
        return None

    def churn_at(self, iteration: int) -> bool:
        """One global draw per iteration; iteration 0 never churns."""
        spec = self.spec
        if spec.churn_prob == 0.0 or iteration == 0:
            return False
        rng = self._rng(spec.seed, 1, 0, iteration)
        return bool(rng.random() < spec.churn_prob)


# ------------------------------------------------------------ full-run oracle


@dataclass(frozen=True)
class OracleRun:
    """Everything the oracle produces for one simulated Krak execution."""

    result: OracleResult
    iterations: int
    #: Imbalance trajectory + repartition tally (None for static runs).
    dynamic: DynamicRunInfo | None = None


def oracle_run_krak(
    deck: InputDeck,
    partition: Partition,
    cluster: ClusterConfig | None = None,
    iterations: int = 3,
    faces: FaceTable | None = None,
    census: WorkloadCensus | None = None,
    dynamic: DynamicSpec | None = None,
    perturb: PerturbSpec | None = None,
) -> OracleRun:
    """The oracle's independent execution of one census-mode Krak run.

    Mirrors :func:`repro.hydro.driver.run_krak` (timing only): deck →
    partition → census → rank programs, but each rank runs its
    :meth:`~repro.hydro.phases.KrakProgram.rank_ops` generator — the
    program's per-rank description, built link by link apart from the
    production all-rank lowering — on the :class:`OracleEngine`.  What is
    being verified is the production lowering and every cost the engine
    charges while executing it.
    Perturbations come from :class:`OraclePerturbation` (the naive twin)
    and the engine's naive per-site link degradation, *not* from
    :mod:`repro.perturb`, so the differential judges both copies.
    """
    if cluster is None:
        cluster = es45_like_cluster()
    if perturb is not None and perturb.churn_prob > 0 and dynamic is None:
        raise ValueError("churn_prob requires a dynamic workload")
    if dynamic is not None and faces is None:
        faces = build_face_table(deck.mesh)
    if census is None:
        census = build_workload_census(deck, partition, faces)

    perturbation = None
    link_degrade = 0.0
    if perturb is not None:
        perturbation = OraclePerturbation(perturb, partition.num_ranks)
        link_degrade = perturb.link_degrade

    controller = None
    num_phases = NUM_PHASES
    if dynamic is not None:
        controller = DynamicController(
            deck, partition, dynamic, faces=faces, base_census=census,
            force_repartition=(
                perturbation.churn_at
                if perturbation is not None and perturb.churn_prob > 0
                else None
            ),
        )
        num_phases = NUM_PHASES + 1
    if perturb is not None and perturb.fail_rank is not None:
        num_phases = FAILURE_PHASE + 1

    program = KrakProgram(
        census=census,
        node_model=cluster.node,
        iterations=iterations,
        dynamic=controller,
        perturb=perturbation,
    )
    engine = OracleEngine(
        cluster, partition.num_ranks, num_phases, link_degrade=link_degrade
    )
    result = engine.run(program.rank_ops)
    return OracleRun(
        result=result,
        iterations=iterations,
        dynamic=controller.run_info() if controller is not None else None,
    )
