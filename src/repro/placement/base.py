"""The rank→node placement abstraction.

The paper's validation machine packs 4 ranks per ES-45 node, and *which*
ranks share a node decides which messages travel through shared memory
instead of QsNet.  A :class:`Placement` is that missing degree of freedom:
an explicit rank→node map with a per-node capacity, validated so every rank
occupies exactly one node slot and no node exceeds its capacity.

A placement is pure data — strategies that *construct* one (block,
round-robin, random, communication-aware) live in
:mod:`repro.placement.strategies`, and the cost-aware optimizer in
:mod:`repro.placement.optimize`.

>>> import numpy as np
>>> p = Placement(node_of_rank=np.array([0, 0, 1, 1]), ranks_per_node=2)
>>> p.num_ranks, p.num_nodes
(4, 2)
>>> p.same_node(0, 1), p.same_node(1, 2)
(True, False)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Placement:
    """An explicit rank→node map over an SMP cluster.

    Attributes
    ----------
    node_of_rank:
        ``node_of_rank[r]`` is the node hosting rank ``r``.  Node ids must
        be the compact range ``0 .. num_nodes-1`` (every node occupied), so
        two placements describe the same machine shape iff they use the
        same number of nodes.
    ranks_per_node:
        Node capacity.  No node may host more ranks than this.
    name:
        Strategy label (``"block"``, ``"comm-aware"``, …) for tables and
        cluster names.

    >>> import numpy as np
    >>> p = Placement(node_of_rank=np.array([0, 1, 0]), ranks_per_node=2,
    ...               name="round-robin")
    >>> p.ranks_on_node(0)
    array([0, 2])
    >>> p.max_ranks_on_node
    2
    """

    node_of_rank: np.ndarray
    ranks_per_node: int
    name: str = "custom"

    def __post_init__(self) -> None:
        nodes = np.asarray(self.node_of_rank)
        if not np.issubdtype(nodes.dtype, np.integer):
            raise ValueError("node_of_rank must be an integer array")
        nodes = nodes.astype(np.int64)
        object.__setattr__(self, "node_of_rank", nodes)
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("node_of_rank must be a non-empty 1-D array")
        if self.ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        if nodes.min() < 0:
            raise ValueError("node ids must be non-negative")
        counts = np.bincount(nodes)
        if np.any(counts == 0):
            raise ValueError("node ids must be compact (every node occupied)")
        if counts.max() > self.ranks_per_node:
            raise ValueError(
                f"node capacity exceeded: {int(counts.max())} ranks on one "
                f"node, capacity {self.ranks_per_node}"
            )

    @property
    def num_ranks(self) -> int:
        """Number of ranks mapped."""
        return int(self.node_of_rank.shape[0])

    @property
    def num_nodes(self) -> int:
        """Number of (occupied) nodes."""
        return int(self.node_of_rank.max()) + 1

    @property
    def max_ranks_on_node(self) -> int:
        """Occupancy of the fullest node (the intra-node tree extent)."""
        return int(np.bincount(self.node_of_rank).max())

    def node_of(self, rank: int) -> int:
        """The node hosting ``rank``; raises on any out-of-range rank."""
        if not 0 <= rank < self.num_ranks:
            raise ValueError(
                f"rank {rank} out of range for a {self.num_ranks}-rank placement"
            )
        return int(self.node_of_rank[rank])

    def same_node(self, a: int, b: int) -> bool:
        """Whether two ranks share a node (validated lookups)."""
        return self.node_of(a) == self.node_of(b)

    def ranks_on_node(self, node: int) -> np.ndarray:
        """Ascending rank ids hosted by ``node``."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range")
        return np.flatnonzero(self.node_of_rank == node)

    def slots(self) -> list:
        """``(node, slot)`` per rank — the bijective node-slot assignment.

        Slots number each node's ranks in ascending rank order; by the
        capacity invariant every pair is distinct and ``slot <
        ranks_per_node``.
        """
        next_slot = [0] * self.num_nodes
        out = []
        for node in self.node_of_rank.tolist():
            out.append((node, next_slot[node]))
            next_slot[node] += 1
        return out

def compact_labels(node_of_rank: np.ndarray) -> np.ndarray:
    """Relabel node ids compactly, preserving first-occurrence order.

    Optimizers may empty a node entirely; this squeezes the gap so the
    result satisfies the :class:`Placement` compactness invariant without
    changing which ranks share a node.

    >>> import numpy as np
    >>> compact_labels(np.array([2, 2, 5, 0]))
    array([0, 0, 1, 2])
    """
    nodes = np.asarray(node_of_rank, dtype=np.int64)
    mapping: dict[int, int] = {}
    out = np.empty_like(nodes)
    for i, node in enumerate(nodes.tolist()):
        if node not in mapping:
            mapping[node] = len(mapping)
        out[i] = mapping[node]
    return out
