"""CSR communication graphs, priced pair costs and the placement objectives.

Krak-style meshes have *bounded-degree* communication graphs — a rank
talks to its handful of boundary/ghost neighbours — so the graph has O(P)
edges and everything the placement optimizers need can be computed from
an edge list.  The placement API therefore works on two CSR structures:

* :class:`SparseCommGraph` (built by :func:`rank_comm_bytes`) — symmetric
  per-iteration bytes between rank pairs, the inter-node-bytes objective's
  input (:func:`inter_node_bytes`, :func:`total_pair_bytes`);
* :class:`SparsePairCosts` (built by :func:`rank_pair_times`) — each
  link's priced cost as if its endpoints shared a node or not, the
  makespan-aligned objective's input (:func:`placement_comm_cost`).

Byte weights are integer-valued floats far below 2**53, so every sum over
them is *exact* regardless of association.  Priced costs are not, so
:func:`placement_comm_cost` keeps one size-based choice: at or below
:data:`MINIMAX_EXHAUSTIVE_MAX_RANKS` ranks it row-sums the densified
matrices, above it it scatter-sums the stored entries.  The two sums
differ in the last bits, and the optimizers compare costs with a strict
``<``, so the bound fixes which association every small-P result uses.

The optimizers themselves live in :mod:`repro.placement.optimize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.perfmodel.sparse_mesh import (
    link_bytes,
    link_message_counts,
    link_wire_times,
)

#: At or below this rank count the priced objective row-sums the densified
#: cost matrices and :func:`~repro.placement.optimize.minimax_refine` scans
#: every move and swap exhaustively; above it both work on stored entries
#: only (scatter sums, candidate-restricted search).
MINIMAX_EXHAUSTIVE_MAX_RANKS = 512


def _coalesce(num_ranks, src, dst, values):
    """Sort directed entries by (row, col) and sum duplicates in order.

    The stable lexsort preserves each duplicate group's order of
    appearance, and the unbuffered ``np.add.at`` scatter accumulates
    strictly sequentially in array order — so the coalesced value equals
    a ``graph[src, dst] += value`` loop bitwise (``reduceat`` would not:
    it associates pairwise even on tiny groups).

    Returns ``(indptr, indices, *summed value columns)``.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    columns = [np.asarray(v, dtype=np.float64) for v in values]
    if src.size == 0:
        indptr = np.zeros(num_ranks + 1, dtype=np.int64)
        empty = np.empty(0, dtype=np.float64)
        return (indptr, src, *([empty] * len(columns)))
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    columns = [v[order] for v in columns]
    new_group = np.empty(src.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    starts = np.flatnonzero(new_group)
    indices = dst[starts]
    group_of = np.cumsum(new_group) - 1
    summed = []
    for v in columns:
        acc = np.zeros(starts.size, dtype=np.float64)
        np.add.at(acc, group_of, v)
        summed.append(acc)
    rows = src[starts]
    indptr = np.zeros(num_ranks + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return (indptr, indices, *summed)


@dataclass(frozen=True)
class SparseCommGraph:
    """Symmetric pairwise-bytes graph in CSR form.

    Every undirected edge is stored in both endpoint rows; within a row,
    column indices are strictly ascending (no duplicates, no diagonal).
    ``weights`` are per-iteration bytes — integer-valued floats, so all
    sums over them are exact.
    """

    num_ranks: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if indptr.shape != (self.num_ranks + 1,):
            raise ValueError("indptr must have num_ranks + 1 entries")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must span exactly the index array")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.shape != weights.shape or indices.ndim != 1:
            raise ValueError("indices and weights must be aligned 1-D arrays")
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.num_ranks
        ):
            raise ValueError("column indices out of range")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "weights", weights)

    @property
    def num_entries(self) -> int:
        """Stored (directed) entries — twice the undirected edge count."""
        return int(self.indices.size)

    def row(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbour ids, weights)`` of one rank's row (views)."""
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range")
        lo, hi = int(self.indptr[rank]), int(self.indptr[rank + 1])
        return self.indices[lo:hi], self.weights[lo:hi]

    def row_of_entry(self) -> np.ndarray:
        """Row id of every stored entry (``np.repeat`` expansion)."""
        return np.repeat(
            np.arange(self.num_ranks, dtype=np.int64), np.diff(self.indptr)
        )

    def to_dense(self) -> np.ndarray:
        """Materialise the ``(P, P)`` matrix (small-P inspection/testing)."""
        dense = np.zeros((self.num_ranks, self.num_ranks), dtype=np.float64)
        dense[self.row_of_entry(), self.indices] = self.weights
        return dense

    @classmethod
    def from_edges(cls, num_ranks, src, dst, weights) -> "SparseCommGraph":
        """Coalesce directed ``(src, dst, weight)`` entries into CSR.

        Entries must already include both directions of every undirected
        edge; duplicates are summed in order of appearance.
        """
        indptr, indices, summed = _coalesce(num_ranks, src, dst, [weights])
        return cls(
            num_ranks=num_ranks, indptr=indptr, indices=indices, weights=summed
        )


def rank_comm_bytes(census) -> SparseCommGraph:
    """Per-iteration bytes between rank pairs, as a CSR graph.

    Sums every boundary-exchange message (count × size, including the
    multi-material surcharge) and every ghost-update message a rank sends
    its neighbour in one iteration.  Both directions of a link contribute,
    so the weight of ``(a, b)`` is the total traffic the pair would
    exchange — exactly what crossing a node boundary costs under pairwise
    pricing.

    The build reads the :class:`~repro.hydro.workload.WorkloadCensus`
    columns and is fully vectorized, with no Python per-link loop.
    """
    be_bytes, gn_bytes = link_bytes(census)
    src = np.concatenate([census.be_src, census.be_dst, census.gn_src, census.gn_dst])
    dst = np.concatenate([census.be_dst, census.be_src, census.gn_dst, census.gn_src])
    vals = np.concatenate([be_bytes, be_bytes, gn_bytes, gn_bytes])
    return SparseCommGraph.from_edges(census.num_ranks, src, dst, vals)


def inter_node_bytes(placement, graph: SparseCommGraph) -> float:
    """Bytes crossing node boundaries under ``placement`` (the objective).

    Each unordered rank pair on different nodes contributes its symmetric
    weight once.  ``placement`` may be a
    :class:`~repro.placement.base.Placement` or a bare ``node_of_rank``
    array.  O(edges) time and memory; weights are integer-valued, so the
    edge sum is exact.
    """
    nodes = getattr(placement, "node_of_rank", placement)
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.shape != (graph.num_ranks,):
        raise ValueError("placement size does not match the graph's rank count")
    cross = nodes[graph.row_of_entry()] != nodes[graph.indices]
    return float(graph.weights[cross].sum()) / 2.0


def total_pair_bytes(graph: SparseCommGraph) -> float:
    """All pairwise bytes in the graph (the inter-node objective's ceiling)."""
    return float(graph.weights.sum()) / 2.0


# ------------------------------------------------------------- priced costs


@dataclass(frozen=True)
class SparsePairCosts:
    """Per-link priced comm costs at each network level, in CSR form.

    Topology arrays are shared between the two cost columns; entry ``k``
    is rank ``row_of_entry()[k]``'s per-iteration cost on its link to
    ``indices[k]``, priced as if the pair were on the same node
    (``t_intra``) or on different nodes (``t_inter``).
    """

    num_ranks: int
    indptr: np.ndarray
    indices: np.ndarray
    t_intra: np.ndarray
    t_inter: np.ndarray
    #: Cached np.repeat expansion of the row ids (built on first use).
    _rows: list = field(default_factory=list, repr=False, compare=False)

    def row_of_entry(self) -> np.ndarray:
        if not self._rows:
            self._rows.append(
                np.repeat(
                    np.arange(self.num_ranks, dtype=np.int64),
                    np.diff(self.indptr),
                )
            )
        return self._rows[0]

    def to_dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialise the ``(T_intra, T_inter)`` matrix pair (small P)."""
        rows = self.row_of_entry()
        intra = np.zeros((self.num_ranks, self.num_ranks), dtype=np.float64)
        inter = np.zeros_like(intra)
        intra[rows, self.indices] = self.t_intra
        inter[rows, self.indices] = self.t_inter
        return intra, inter


def rank_pair_times(census, cluster) -> SparsePairCosts:
    """Per-link priced comm cost at each network level.

    Rank ``a``'s cost on its link to ``b`` is the wire time of every
    message it sends (Equations (5)–(7) tallies through the level's
    ``Tmsg``) plus the host overheads both endpoints pay (``a``'s sends,
    and the receives of ``b``'s mirrored messages charged to ``b``'s row)
    — priced as if the pair were on the same node (``t_intra``) or on
    different nodes (``t_inter``).  The placement then just selects, per
    pair, which price applies; each rank's sum is its p2p cost, whose max
    is the makespan-aligned objective.  Contributions to one pair are
    summed in census link order: by owning rank, boundary before ghost.

    Requires ``cluster.hierarchy``; intra host overheads default to the
    flat cluster overheads when the hierarchy does not declare cheaper
    shared-memory values.
    """
    hierarchy = cluster.hierarchy
    if hierarchy is None:
        raise ValueError("rank_pair_times needs an SMP hierarchy on the cluster")
    send_inter, recv_inter = cluster.send_overhead, cluster.recv_overhead
    send_intra, recv_intra = hierarchy.intra_overheads(send_inter, recv_inter)

    wire_intra = np.concatenate(link_wire_times(census, hierarchy.intra))
    wire_inter = np.concatenate(link_wire_times(census, hierarchy.inter))
    msgs = np.concatenate(link_message_counts(census))
    owner = np.concatenate([census.be_src, census.gn_src])
    nbr = np.concatenate([census.be_dst, census.gn_dst])
    kind = np.repeat([0, 1], [census.num_boundary_links, census.num_ghost_links])
    # Each link sends on (owner, nbr) and receives on the mirrored entry;
    # the stable sort by (owner, kind) restores census link order, which
    # fixes the summation order of the entries _coalesce merges.
    order = np.lexsort((np.concatenate([kind, kind]), np.concatenate([owner, owner])))
    src = np.concatenate([owner, nbr])[order]
    dst = np.concatenate([nbr, owner])[order]
    intra = np.concatenate([wire_intra + msgs * send_intra, msgs * recv_intra])
    inter = np.concatenate([wire_inter + msgs * send_inter, msgs * recv_inter])
    indptr, indices, t_intra, t_inter = _coalesce(
        census.num_ranks, src, dst, [intra[order], inter[order]]
    )
    return SparsePairCosts(
        num_ranks=census.num_ranks,
        indptr=indptr,
        indices=indices,
        t_intra=t_intra,
        t_inter=t_inter,
    )


def dense_rank_costs(
    nodes: np.ndarray, t_intra: np.ndarray, t_inter: np.ndarray
) -> np.ndarray:
    """Row sums of the densified costs priced under ``nodes``."""
    return np.where(nodes[:, None] == nodes[None, :], t_intra, t_inter).sum(axis=1)


def rank_costs(node_of_rank: np.ndarray, costs: SparsePairCosts) -> np.ndarray:
    """Each rank's priced p2p cost under a rank→node map.

    At or below :data:`MINIMAX_EXHAUSTIVE_MAX_RANKS` ranks the densified
    rows are summed (:func:`dense_rank_costs`); above it the stored
    entries are scatter-summed per row.  The values agree to the last few
    bits; only the summation association differs.
    """
    nodes = np.asarray(node_of_rank, dtype=np.int64)
    if nodes.shape != (costs.num_ranks,):
        raise ValueError("node_of_rank size does not match the cost graph")
    if costs.num_ranks <= MINIMAX_EXHAUSTIVE_MAX_RANKS:
        return dense_rank_costs(nodes, *costs.to_dense())
    rows = costs.row_of_entry()
    same = nodes[rows] == nodes[costs.indices]
    per_rank = np.zeros(costs.num_ranks, dtype=np.float64)
    np.add.at(per_rank, rows, np.where(same, costs.t_intra, costs.t_inter))
    return per_rank


def placement_comm_cost(
    node_of_rank: np.ndarray, costs: SparsePairCosts
) -> tuple[float, float]:
    """``(max per-rank cost, total cost)`` of a rank→node map.

    Each rank's cost sums its links' intra prices where the pair shares a
    node and inter prices elsewhere (:func:`rank_costs`).  The
    lexicographic pair orders placements the way a synchronising
    iteration experiences them: the slowest rank first, aggregate traffic
    as tiebreak.
    """
    per_rank = rank_costs(node_of_rank, costs)
    return float(per_rank.max()), float(per_rank.sum())
