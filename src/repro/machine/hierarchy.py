"""SMP-aware (hierarchical) interconnect extension.

The validation machine was a cluster of 4-way AlphaServer ES-45 SMP nodes:
ranks on the same node communicate through shared memory at a fraction of
the QsNet latency.  The paper's flat ``Tmsg`` folds this into one average;
this extension models it explicitly and provides the *flat-equivalent*
network (latency blended by the fraction of on-node neighbour pairs) that
an analytic model can use without pairwise placement information.

Which ranks share a node is itself a modelling axis: by default consecutive
ranks are packed onto nodes (*block* placement, the launcher default), and
an explicit :class:`~repro.placement.base.Placement` overrides that map —
round-robin, random, or communication-aware (see :mod:`repro.placement`).
All rank→node lookups funnel through :meth:`HierarchicalNetwork.node_of`,
which validates its argument once for every caller.

>>> from repro.machine.network import QSNET_LIKE
>>> h = es45_hierarchical_network(QSNET_LIKE)
>>> h.node_of(3), h.node_of(4)
(0, 1)
>>> h.same_node(0, 3), h.same_node(3, 4)
(True, False)
>>> h.tmsg_pair(0, 1, 64) < h.tmsg_pair(0, 4, 64)
True
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.machine.network import NetworkModel


@dataclass(frozen=True)
class HierarchicalNetwork:
    """Two-level network: shared-memory within a node, NIC between nodes.

    Attributes
    ----------
    intra:
        Message-cost model for ranks on the same node.
    inter:
        Message-cost model for ranks on different nodes.
    ranks_per_node:
        Node capacity.  Without an explicit placement, consecutive ranks
        are packed onto nodes in blocks of this size (the usual block
        placement of an MPI launcher).
    placement:
        Optional explicit rank→node map
        (:class:`~repro.placement.base.Placement`).  ``None`` keeps the
        implicit block map; a placement additionally bounds the valid rank
        range, so out-of-range lookups fail loudly instead of silently
        pricing a message for a rank that does not exist.
    intra_send_overhead, intra_recv_overhead:
        Optional host overheads for *on-node* messages.  A shared-memory
        transport bypasses the NIC's DMA setup, so its per-message CPU cost
        is genuinely lower than the fabric's; ``None`` (the default)
        charges the cluster's flat overheads on every message, keeping
        results identical to the placement-unaware model.
    """

    intra: NetworkModel
    inter: NetworkModel
    ranks_per_node: int
    name: str = "hierarchical"
    placement: object | None = None
    intra_send_overhead: float | None = None
    intra_recv_overhead: float | None = None

    def __post_init__(self) -> None:
        if self.ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        if self.placement is not None and (
            self.placement.ranks_per_node != self.ranks_per_node
        ):
            raise ValueError(
                "placement capacity does not match the network's ranks_per_node"
            )
        for value in (self.intra_send_overhead, self.intra_recv_overhead):
            if value is not None and value < 0:
                raise ValueError("intra-node host overheads must be non-negative")

    def node_of(self, rank: int) -> int:
        """The node hosting ``rank``.

        The single validated rank→node lookup every pairwise query funnels
        through: negative ranks always raise, and when an explicit
        placement is present so do ranks beyond its range (block placement
        is unbounded — the launcher packs as many nodes as needed).
        """
        if rank < 0:
            raise ValueError("rank must be non-negative")
        if self.placement is None:
            return rank // self.ranks_per_node
        if rank >= self.placement.num_ranks:
            raise ValueError(
                f"rank {rank} out of range for a "
                f"{self.placement.num_ranks}-rank placement"
            )
        return int(self.placement.node_of_rank[rank])

    def same_node(self, a: int, b: int) -> bool:
        """Whether two ranks share a node (validated like :meth:`node_of`)."""
        return self.node_of(a) == self.node_of(b)

    def same_node_mask(self, a_ranks: np.ndarray, b_ranks: np.ndarray) -> np.ndarray:
        """Batched :meth:`same_node` over aligned endpoint arrays.

        The vectorized hot path behind pairwise-aware model pricing.
        Contract (as for ``tmsg_many``): inputs must be integer arrays of
        valid ranks — no per-element validation happens here.
        """
        if self.placement is None:
            return (a_ranks // self.ranks_per_node) == (
                b_ranks // self.ranks_per_node
            )
        nodes = self.placement.node_of_rank
        return nodes[a_ranks] == nodes[b_ranks]

    def network_for(self, a: int, b: int) -> NetworkModel:
        """The applicable flat network for a rank pair."""
        return self.intra if self.same_node(a, b) else self.inter

    def tmsg_pair(self, a: int, b: int, size) -> float:
        """Equation (4) for a specific rank pair."""
        return self.network_for(a, b).tmsg(size)

    def tmsg_pairs(
        self, a_ranks: np.ndarray, b_ranks: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Batched Equation (4) priced by actual endpoint nodes.

        One piecewise-linear evaluation per network level: the same-node
        mask splits ``sizes`` between ``intra.tmsg_many`` and
        ``inter.tmsg_many``, so each element is bitwise identical to the
        scalar :meth:`tmsg_pair` of the same endpoints and size.  Same
        no-validation contract as :meth:`same_node_mask` /
        ``NetworkModel.tmsg_many``.
        """
        mask = self.same_node_mask(a_ranks, b_ranks)
        out = self.inter.tmsg_many(sizes)
        if mask.any():
            out[mask] = self.intra.tmsg_many(sizes[mask])
        return out

    def with_placement(self, placement) -> "HierarchicalNetwork":
        """Copy of this network under an explicit rank→node map."""
        return replace(
            self, placement=placement, name=f"{self.name}+{placement.name}"
        )

    def intra_overheads(
        self, send_overhead: float, recv_overhead: float
    ) -> tuple[float, float]:
        """``(send, recv)`` host overheads of an on-node message.

        Each falls back to the given flat cluster overhead when no
        intra-node value is configured, so the default machine charges
        on-node messages exactly what the placement-unaware model did.
        Off-node messages always pay the flat overheads.
        """
        send = self.intra_send_overhead
        recv = self.intra_recv_overhead
        return (
            send_overhead if send is None else send,
            recv_overhead if recv is None else recv,
        )

    def tree_extents(self, num_ranks: int) -> tuple[int, int]:
        """``(num_nodes, max_ranks_on_one_node)`` for ``num_ranks`` ranks.

        The two extents the SMP collective trees span: an inter-node tree
        over the occupied nodes and an intra-node tree over the fullest
        node.  Block placement packs ``ceil(P / ranks_per_node)`` nodes;
        an explicit placement reports its own occupancy (and must cover
        exactly ``num_ranks`` ranks).
        """
        if num_ranks < 1:
            raise ValueError(f"num_ranks must be >= 1, got {num_ranks}")
        if self.placement is None:
            num_nodes = (num_ranks + self.ranks_per_node - 1) // self.ranks_per_node
            return num_nodes, min(num_ranks, self.ranks_per_node)
        if self.placement.num_ranks != num_ranks:
            raise ValueError(
                f"placement maps {self.placement.num_ranks} ranks, "
                f"but the job has {num_ranks}"
            )
        return self.placement.num_nodes, self.placement.max_ranks_on_node

    # ------------------------------------------------------------- blending

    def local_pair_fraction(self, pairs) -> float:
        """Fraction of communicating rank pairs that are on-node.

        ``pairs`` is an iterable of ``(rank_a, rank_b)`` tuples (e.g. the
        ``(be_src, be_dst)`` boundary links of a
        :class:`~repro.hydro.workload.WorkloadCensus`); an installed
        placement decides which ranks share a node.
        """
        pairs = list(pairs)
        if not pairs:
            return 0.0
        local = sum(1 for a, b in pairs if self.same_node(a, b))
        return local / len(pairs)

    def flat_equivalent(self, local_fraction: float) -> NetworkModel:
        """A flat network whose costs are the pair-weighted blend.

        Blends latency and per-byte cost segment-by-segment; requires the
        two levels to share breakpoint structure (true for the default
        two-segment models).
        """
        if not 0.0 <= local_fraction <= 1.0:
            raise ValueError("local_fraction must lie in [0, 1]")
        if not np.array_equal(self.intra.breakpoints, self.inter.breakpoints):
            raise ValueError("intra/inter breakpoints must match for blending")
        w = local_fraction
        return NetworkModel(
            breakpoints=self.inter.breakpoints.copy(),
            latency=w * self.intra.latency + (1 - w) * self.inter.latency,
            per_byte=w * self.intra.per_byte + (1 - w) * self.inter.per_byte,
            name=f"blend({self.name},{local_fraction:.2f})",
        )


def es45_hierarchical_network(
    inter: NetworkModel,
    intra_latency: float = 3e-6,
    intra_bandwidth: float = 1.2e9,
    ranks_per_node: int = 4,
    intra_send_overhead: float | None = None,
    intra_recv_overhead: float | None = None,
) -> HierarchicalNetwork:
    """The ES-45-like two-level network: 4-way SMP over the given fabric."""
    from repro.machine.network import make_network

    eager = float(inter.breakpoints[0]) if inter.breakpoints.size else 4096.0
    intra = make_network(
        small_latency=intra_latency,
        large_latency=2 * intra_latency,
        eager_threshold=eager,
        bandwidth_bytes_per_s=intra_bandwidth,
        name="shared-memory",
    )
    return HierarchicalNetwork(
        intra=intra,
        inter=inter,
        ranks_per_node=ranks_per_node,
        name="es45-smp",
        intra_send_overhead=intra_send_overhead,
        intra_recv_overhead=intra_recv_overhead,
    )


# ---------------------------------------------------------------- collectives

def hier_bcast_time(h: HierarchicalNetwork, num_ranks: int, nbytes: float) -> float:
    """SMP-aware fan-out: inter-node tree plus an intra-node tree."""
    from repro.simmpi.collectives import tree_depth

    num_nodes, local = h.tree_extents(num_ranks)
    return tree_depth(num_nodes) * h.inter.tmsg_cached(nbytes) + tree_depth(
        local
    ) * h.intra.tmsg_cached(nbytes)


def hier_gather_time(h: HierarchicalNetwork, num_ranks: int, nbytes: float) -> float:
    """SMP-aware fan-in (same step structure as the fan-out)."""
    return hier_bcast_time(h, num_ranks, nbytes)


def hier_allreduce_time(h: HierarchicalNetwork, num_ranks: int, nbytes: float) -> float:
    """SMP-aware reduce + broadcast: twice the fan-out time."""
    return 2.0 * hier_bcast_time(h, num_ranks, nbytes)
