"""The placement optimizers.

Two objectives, two optimizers, both over the CSR structures of
:mod:`repro.placement.sparse`:

* **Inter-node bytes** (:func:`comm_aware_placement`) — the classic graph
  objective over the per-iteration point-to-point bytes between rank
  pairs (:func:`~repro.placement.sparse.rank_comm_bytes`, from the
  Equation-(5)/Table-3 boundary tallies plus the Equations-(6)–(7) ghost
  messages), minimised by recursive bisection plus Kernighan–Lin-style
  :func:`greedy_refine`.  Needs no machine model.
* **Max-over-ranks priced cost** (:func:`optimize_placement`) — the
  makespan-aligned objective.  Simulated iteration time is a *max* over
  ranks (every phase ends in a synchronisation), so shaving total bytes
  can still lose if it concentrates fabric traffic on one critical rank.
  :func:`~repro.placement.sparse.rank_pair_times` prices each link twice
  (all-intra and all-inter, wire cost plus per-message host overheads)
  and :func:`minimax_refine` minimises the lexicographic
  ``(max per-rank cost, total cost)``.

Both are deterministic in their inputs: fixed scan order, exact float
comparisons, no RNG.
"""

from __future__ import annotations

import numpy as np

from repro.placement.base import Placement, compact_labels
from repro.placement.sparse import (
    MINIMAX_EXHAUSTIVE_MAX_RANKS,
    SparseCommGraph,
    SparsePairCosts,
    dense_rank_costs,
    inter_node_bytes,
    placement_comm_cost,
    rank_comm_bytes,
    rank_costs,
    rank_pair_times,
)

# -------------------------------------------------------- bytes optimizer


def _node_members(nodes: np.ndarray, num_nodes: int) -> list:
    members: list = [set() for _ in range(num_nodes)]
    for rank, node in enumerate(nodes.tolist()):
        members[node].add(rank)
    return members


def greedy_refine(
    node_of_rank: np.ndarray,
    graph: SparseCommGraph,
    ranks_per_node: int,
    num_nodes: int,
    max_passes: int = 8,
) -> np.ndarray:
    """Deterministic local search: moves + swaps that reduce inter-node bytes.

    Scans ranks in ascending order each pass; for every rank it first tries
    moving it to a node with spare capacity, then swapping it with a
    higher-numbered rank on another node, applying the *best* improving
    operation for that rank.  Stops after a pass with no improvement or
    after ``max_passes``.

    Only a provably complete candidate set is scanned, in ascending order:

    * **moves** — ``gain = conn[a, m] - conn[a, na]`` is positive only if
      ``conn[a, m] > 0``, i.e. node ``m`` hosts a neighbour of ``a``;
    * **swaps** — ``gain > 0`` requires ``conn[a, nb] > 0`` (``b`` sits on
      a node hosting a neighbour of ``a``) or ``conn[b, na] > 0`` (``b``
      neighbours a rank on ``a``'s node).

    Gains are sums of integer byte weights, hence exact, so the result is
    the one a scan over every node and rank would give — O(degree²) work
    per rank instead of O(P), reproducible across runs and platforms.
    """
    nodes = np.asarray(node_of_rank, dtype=np.int64).copy()
    num_ranks = graph.num_ranks
    counts = np.bincount(nodes, minlength=num_nodes)
    members = _node_members(nodes, num_nodes)

    def conn_of(rank: int) -> dict:
        """Bytes ``rank`` exchanges with each node (exact, on the fly)."""
        nbrs, weights = graph.row(rank)
        conn: dict = {}
        for nbr, w in zip(nbrs.tolist(), weights.tolist()):
            node = int(nodes[nbr])
            conn[node] = conn.get(node, 0.0) + w
        return conn

    def apply_move(rank: int, dst: int) -> None:
        src = int(nodes[rank])
        nodes[rank] = dst
        counts[src] -= 1
        counts[dst] += 1
        members[src].discard(rank)
        members[dst].add(rank)

    for _ in range(max_passes):
        improved = False
        for a in range(num_ranks):
            na = int(nodes[a])
            nbrs_a, weights_a = graph.row(a)
            conn_a = conn_of(a)
            w_ab = dict(zip(nbrs_a.tolist(), weights_a.tolist()))
            best_gain = 0.0
            best_op = None
            for m in sorted(conn_a):
                if m == na or counts[m] >= ranks_per_node:
                    continue
                gain = conn_a[m] - conn_a.get(na, 0.0)
                if gain > best_gain:
                    best_gain = gain
                    best_op = ("move", m)
            candidates: set = set()
            for node in conn_a:
                if node != na:
                    candidates.update(members[node])
            for mate in members[na]:
                candidates.update(graph.row(mate)[0].tolist())
            for b in sorted(candidates):
                if b <= a:
                    continue
                nb = int(nodes[b])
                if nb == na:
                    continue
                conn_b = conn_of(b)
                w = w_ab.get(b, 0.0)
                gain = (
                    (conn_a.get(nb, 0.0) - conn_a.get(na, 0.0))
                    + (conn_b.get(na, 0.0) - conn_b.get(nb, 0.0))
                    - 2.0 * w
                )
                if gain > best_gain:
                    best_gain = gain
                    best_op = ("swap", b)
            if best_op is None:
                continue
            improved = True
            if best_op[0] == "move":
                apply_move(a, best_op[1])
            else:
                b = best_op[1]
                nb = int(nodes[b])
                apply_move(a, nb)
                apply_move(b, na)
        if not improved:
            break
    return nodes


def _subset_entries(graph: SparseCommGraph, ranks: np.ndarray):
    """All CSR entries whose row is in ``ranks``: (local row, col, weight)."""
    starts = graph.indptr[ranks]
    lengths = (graph.indptr[ranks + 1] - starts).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_i, np.empty(0, dtype=np.float64)
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    flat = np.repeat(starts - offsets, lengths) + np.arange(total)
    local_rows = np.repeat(np.arange(ranks.size, dtype=np.int64), lengths)
    return local_rows, graph.indices[flat], graph.weights[flat]


def _bisect(
    ranks: np.ndarray,
    graph: SparseCommGraph,
    num_nodes: int,
    ranks_per_node: int,
    next_node: int,
    out: np.ndarray,
) -> int:
    """Recursively split ``ranks`` over ``num_nodes`` nodes; returns the next
    free node id.  Greedy growth: seed the left side with the heaviest rank,
    then repeatedly absorb the remaining rank most connected to it.

    Connectivities are subset-restricted vectors of exactly-summed integer
    byte weights; each ``argmax`` breaks ties toward the lowest rank id.
    """
    if num_nodes == 1 or ranks.size == 0:
        out[ranks] = next_node
        return next_node + 1
    n_left = (num_nodes + 1) // 2
    n_right = num_nodes - n_left
    size = ranks.size
    lower = max(0, size - n_right * ranks_per_node)
    upper = min(size, n_left * ranks_per_node)
    ideal = int(round(size * n_left / num_nodes))
    target = min(max(ideal, lower), upper)

    pos = np.full(graph.num_ranks, -1, dtype=np.int64)
    pos[ranks] = np.arange(size)
    local_rows, cols, weights = _subset_entries(graph, ranks)
    inside = pos[cols] >= 0
    local_rows = local_rows[inside]
    local_cols = pos[cols[inside]]
    weights = weights[inside]

    in_left = np.zeros(size, dtype=bool)
    if target > 0:
        degree = np.zeros(size, dtype=np.float64)
        np.add.at(degree, local_rows, weights)
        seed = int(np.argmax(degree))
        in_left[seed] = True
        conn = np.zeros(size, dtype=np.float64)
        row_sel = local_rows == seed
        np.add.at(conn, local_cols[row_sel], weights[row_sel])
        for _ in range(target - 1):
            conn_masked = np.where(in_left, -np.inf, conn)
            pick = int(np.argmax(conn_masked))
            in_left[pick] = True
            row_sel = local_rows == pick
            np.add.at(conn, local_cols[row_sel], weights[row_sel])
    left = ranks[in_left]
    right = ranks[~in_left]
    next_node = _bisect(left, graph, n_left, ranks_per_node, next_node, out)
    return _bisect(right, graph, n_right, ranks_per_node, next_node, out)


def comm_aware_placement(
    graph: SparseCommGraph,
    ranks_per_node: int,
    max_passes: int = 8,
    name: str = "comm-aware",
) -> Placement:
    """Minimise inter-node bytes: multi-start bisection + greedy refinement.

    Three deterministic starting maps — a recursive bisection of the rank
    set over the node hierarchy (each split keeps the heaviest-communicating
    ranks together, subject to the side capacities), the block map, and the
    round-robin map — are each polished with :func:`greedy_refine`; the
    cheapest survivor wins.  Including block among the starts makes the
    optimizer *never worse* than the launcher default, so "comm-aware beats
    block" degrades to a tie only when block is already locally optimal.
    Work and memory are O(P · degree²) per refinement pass.
    """
    if ranks_per_node < 1:
        raise ValueError("ranks_per_node must be >= 1")
    num_ranks = graph.num_ranks
    num_nodes = (num_ranks + ranks_per_node - 1) // ranks_per_node
    bisected = np.empty(num_ranks, dtype=np.int64)
    _bisect(np.arange(num_ranks), graph, num_nodes, ranks_per_node, 0, bisected)
    ranks = np.arange(num_ranks, dtype=np.int64)
    starts = (bisected, ranks // ranks_per_node, ranks % num_nodes)
    best = None
    best_cost = np.inf
    for start in starts:
        refined = greedy_refine(start, graph, ranks_per_node, num_nodes, max_passes)
        cost = inter_node_bytes(refined, graph)
        if cost < best_cost:  # strict: ties keep the earlier start
            best, best_cost = refined, cost
    return Placement(
        node_of_rank=compact_labels(best), ranks_per_node=ranks_per_node,
        name=name,
    )


# ------------------------------------------------------- priced optimizer


def _exhaustive_minimax(
    nodes: np.ndarray,
    costs: SparsePairCosts,
    ranks_per_node: int,
    num_nodes: int,
    max_passes: int,
) -> np.ndarray:
    """Every move and swap, scored as rows of trial matrices.

    An op only touches the rows of the two nodes involved, so each trial
    is the current per-rank vector with those entries delta-updated.  For
    each rank ``a`` every legal move is one row of a ``(k, P)`` array and
    every swap with a higher rank on another node one row of a ``(B, P)``
    array, built elementwise with the same expressions a one-trial-at-a-
    time scan would evaluate; ``max``/``sum`` along axis 1 score them all
    at once.  The first lexicographic minimum that is strictly below the
    current cost is the op a sequential ``cost < best`` scan (moves by
    node, then swaps by rank) would keep.  After an op is *applied* the
    per-rank vector is recomputed exactly, so float error cannot
    accumulate across accepted ops.
    """
    num_ranks = costs.num_ranks
    t_intra, t_inter = costs.to_dense()
    #: delta[r, x]: what rank r's row cost loses when x joins its node.
    delta = t_inter - t_intra
    delta_t = np.ascontiguousarray(delta.T)
    #: member_sums[x, n] = delta[x, members(n)].sum() and
    #: mate_sums[x, y] = delta[x, mates(y)].sum(), where mates(y) is y's
    #: node minus y; gathered then summed, in ascending rank order.
    member_sums = np.empty((num_ranks, num_nodes))
    mate_sums = np.empty((num_ranks, num_ranks))

    def gather_sums(cols: np.ndarray) -> np.ndarray:
        # Row sums of a C-contiguous gather: each equals the 1-D sum of
        # that row's gathered entries (a strided reduction would not).
        return np.ascontiguousarray(delta[:, cols]).sum(axis=1)

    def refresh(touched) -> None:
        for n in touched:
            members = np.flatnonzero(nodes == n)
            member_sums[:, n] = gather_sums(members)
            for y in members.tolist():
                mate_sums[:, y] = gather_sums(members[members != y])

    refresh(range(num_nodes))
    ranks = np.arange(num_ranks)
    per_rank = dense_rank_costs(nodes, t_intra, t_inter)
    current = (float(per_rank.max()), float(per_rank.sum()))
    for _ in range(max_passes):
        improved = False
        for a in range(num_ranks):
            na = int(nodes[a])
            counts = np.bincount(nodes, minlength=num_nodes)
            mates_a = nodes == na
            mates_a[a] = False  # a's node-mates, excluding a itself
            col_a = delta_t[a]
            # Moving a to m: a's old mates gain its absence, m's members
            # pay its presence.
            targets = np.flatnonzero(counts < ranks_per_node)
            targets = targets[targets != na]
            moves = np.where(
                nodes == targets[:, None],
                per_rank - col_a,
                np.where(mates_a, per_rank + col_a, per_rank),
            )
            moves[:, a] = per_rank[a] + (
                mate_sums[a, a] - member_sums[a, targets]
            )
            # Swapping a<->b: a's old mates gain a's absence and b's
            # presence (and vice versa); the (a, b) pair itself stays
            # cross-node, so its price is untouched.
            partners = ranks[a + 1 :][nodes[a + 1 :] != na]
            rows = np.arange(partners.size)
            col_b = delta_t[partners]
            mates_b = nodes == nodes[partners][:, None]
            mates_b[rows, partners] = False
            swaps = np.where(
                mates_a,
                per_rank + (col_a - col_b),
                np.where(mates_b, per_rank + (col_b - col_a), per_rank),
            )
            swaps[:, a] = per_rank[a] + (
                mate_sums[a, a] - mate_sums[a, partners]
            )
            swaps[rows, partners] = per_rank[partners] + (
                mate_sums[partners, partners] - mate_sums[partners, a]
            )
            maxes = np.concatenate((moves.max(axis=1), swaps.max(axis=1)))
            if maxes.size == 0:
                continue
            totals = np.concatenate((moves.sum(axis=1), swaps.sum(axis=1)))
            tied = np.flatnonzero(maxes == maxes.min())
            pick = int(tied[np.argmin(totals[tied])])
            cost = (float(maxes[pick]), float(totals[pick]))
            if not cost < current:
                continue
            improved = True
            if pick < targets.size:
                dst = int(targets[pick])
                nodes[a] = dst
            else:
                b = int(partners[pick - targets.size])
                dst = int(nodes[b])
                nodes[a], nodes[b] = dst, na
            refresh((na, dst))
            per_rank = dense_rank_costs(nodes, t_intra, t_inter)
            current = (float(per_rank.max()), float(per_rank.sum()))
        if not improved:
            break
    return nodes


def _candidate_minimax(
    nodes: np.ndarray,
    costs: SparsePairCosts,
    ranks_per_node: int,
    num_nodes: int,
    max_passes: int,
) -> np.ndarray:
    """Moves and swaps restricted to graph neighbourhoods.

    Each rank considers moves to nodes hosting its graph neighbours (plus
    the first node with a free slot — the escape hatch for adversarial
    networks where spreading out wins) and swaps against the ranks on
    those nodes.  Every trial is scored by exact O(degree) re-costing of
    the touched rows, so no op is accepted that the objective would
    reject.
    """
    num_ranks = costs.num_ranks
    indptr, indices = costs.indptr, costs.indices
    t_intra, t_inter = costs.t_intra, costs.t_inter

    def row_cost(tmp_nodes: np.ndarray, rank: int) -> float:
        """Rank's full priced row cost under a candidate node map."""
        lo, hi = int(indptr[rank]), int(indptr[rank + 1])
        same = tmp_nodes[indices[lo:hi]] == tmp_nodes[rank]
        return float(np.where(same, t_intra[lo:hi], t_inter[lo:hi]).sum())

    def neighbours(rank: int) -> np.ndarray:
        return indices[int(indptr[rank]) : int(indptr[rank + 1])]

    per_rank = rank_costs(nodes, costs)
    current = (float(per_rank.max()), float(per_rank.sum()))
    counts = np.bincount(nodes, minlength=num_nodes)

    def trial_cost(changes: dict) -> tuple[float, float]:
        """``(max, total)`` after replacing a few per-rank row costs."""
        new_total = current[1]
        local_max = -np.inf
        displaced_max = False
        for rank, value in changes.items():
            new_total += value - per_rank[rank]
            if value > local_max:
                local_max = value
            if per_rank[rank] == current[0]:
                displaced_max = True
        if displaced_max:
            # A rank at the current max changed: rescan the untouched rest.
            mask = np.ones(num_ranks, dtype=bool)
            mask[np.fromiter(changes, dtype=np.int64, count=len(changes))] = False
            if mask.any():
                local_max = max(local_max, float(per_rank[mask].max()))
        else:
            local_max = max(local_max, current[0])
        return local_max, new_total

    def score_map(scratch: np.ndarray, touched) -> tuple[float, float]:
        return trial_cost({r: row_cost(scratch, r) for r in touched})

    for _ in range(max_passes):
        improved = False
        for a in range(num_ranks):
            na = int(nodes[a])
            nbrs_a = neighbours(a)
            nbr_nodes = sorted(set(nodes[nbrs_a].tolist()) - {na})
            free = np.flatnonzero(counts < ranks_per_node)
            move_targets = set(nbr_nodes)
            if free.size:
                move_targets.add(int(free[0]))
            best = current
            best_op = None
            scratch = nodes.copy()
            for m in sorted(move_targets):
                if m == na or counts[m] >= ranks_per_node:
                    continue
                scratch[a] = m
                cost = score_map(scratch, {a, *nbrs_a.tolist()})
                scratch[a] = na
                if cost < best:
                    best = cost
                    best_op = ("move", m)
            swap_candidates: set = set()
            for m in nbr_nodes:
                swap_candidates.update(np.flatnonzero(nodes == m).tolist())
            for b in sorted(swap_candidates):
                nb = int(nodes[b])
                if b <= a or nb == na:
                    continue
                scratch[a], scratch[b] = nb, na
                touched = {a, b, *nbrs_a.tolist(), *neighbours(b).tolist()}
                cost = score_map(scratch, touched)
                scratch[a], scratch[b] = na, nb
                if cost < best:
                    best = cost
                    best_op = ("swap", b)
            if best_op is None:
                continue
            improved = True
            if best_op[0] == "move":
                counts[na] -= 1
                counts[best_op[1]] += 1
                nodes[a] = best_op[1]
            else:
                b = best_op[1]
                nodes[a], nodes[b] = nodes[b], nodes[a]
            per_rank = rank_costs(nodes, costs)
            current = (float(per_rank.max()), float(per_rank.sum()))
        if not improved:
            break
    return nodes


def minimax_refine(
    node_of_rank: np.ndarray,
    costs: SparsePairCosts,
    ranks_per_node: int,
    num_nodes: int,
    max_passes: int = 8,
) -> np.ndarray:
    """Deterministic local search on the ``(max, total)`` priced objective.

    Same move/swap neighbourhood as :func:`greedy_refine`, scored by the
    lexicographic :func:`~repro.placement.sparse.placement_comm_cost` pair
    and accepted only on a strict improvement — so the critical rank's
    cost never rises for the sake of the average.  At or below
    :data:`~repro.placement.sparse.MINIMAX_EXHAUSTIVE_MAX_RANKS` ranks
    every move and swap is scored on the densified matrices; above it a
    candidate-restricted search over graph neighbourhoods applies (its
    picks may differ, its acceptance rule does not).
    """
    nodes = np.asarray(node_of_rank, dtype=np.int64).copy()
    if costs.num_ranks <= MINIMAX_EXHAUSTIVE_MAX_RANKS:
        search = _exhaustive_minimax
    else:
        search = _candidate_minimax
    return search(nodes, costs, ranks_per_node, num_nodes, max_passes)


def optimize_placement(
    census,
    cluster,
    max_passes: int = 8,
    name: str = "comm-aware",
) -> Placement:
    """The full communication-aware optimizer against a priced machine.

    Prices every link for ``cluster``'s hierarchy, then polishes three
    deterministic starts — block, round-robin, and the bytes-objective
    :func:`comm_aware_placement` — with :func:`minimax_refine`, keeping
    the best ``(max, total)``.  Because block is among the starts and
    acceptance is strict, the result is never worse than block placement
    under the objective.
    """
    costs = rank_pair_times(census, cluster)
    ranks_per_node = cluster.hierarchy.ranks_per_node
    num_ranks = census.num_ranks
    num_nodes = (num_ranks + ranks_per_node - 1) // ranks_per_node
    ranks = np.arange(num_ranks, dtype=np.int64)
    bytes_start = comm_aware_placement(
        rank_comm_bytes(census), ranks_per_node
    ).node_of_rank
    starts = (ranks // ranks_per_node, ranks % num_nodes, bytes_start)
    best = None
    best_cost = (np.inf, np.inf)
    for start in starts:
        refined = minimax_refine(
            start, costs, ranks_per_node, num_nodes, max_passes
        )
        cost = placement_comm_cost(refined, costs)
        if cost < best_cost:  # strict: ties keep the earlier start
            best, best_cost = refined, cost
    return Placement(
        node_of_rank=compact_labels(best), ranks_per_node=ranks_per_node,
        name=name,
    )
