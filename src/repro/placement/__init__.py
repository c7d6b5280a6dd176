"""Topology-aware rank placement: the rank→node map as a first-class axis.

The paper's machine is a cluster of 4-way SMP nodes where on-node messages
are far cheaper than QsNet messages, so *which* ranks share a node is a
performance knob in its own right.  This package provides the
:class:`~repro.placement.base.Placement` abstraction (a validated
rank→node map), the standard construction strategies (block, round-robin,
random, communication-aware), and the optimizer that minimises inter-node
traffic over a partition's communication graph (held in CSR form by
:mod:`repro.placement.sparse`).

A placement plugs into the machine model via
:meth:`repro.machine.cluster.ClusterConfig.with_placement`; the simulator
and the pairwise-aware analytic models then price every message by its
actual endpoint nodes.
"""

from repro.placement.base import Placement, compact_labels
from repro.placement.optimize import (
    comm_aware_placement,
    greedy_refine,
    minimax_refine,
    optimize_placement,
)
from repro.placement.sparse import (
    SparseCommGraph,
    SparsePairCosts,
    inter_node_bytes,
    placement_comm_cost,
    rank_comm_bytes,
    rank_pair_times,
    total_pair_bytes,
)
from repro.placement.strategies import (
    STRATEGIES,
    block_placement,
    make_placement,
    random_placement,
    round_robin_placement,
)

__all__ = [
    "Placement",
    "compact_labels",
    "comm_aware_placement",
    "greedy_refine",
    "minimax_refine",
    "optimize_placement",
    "SparseCommGraph",
    "SparsePairCosts",
    "inter_node_bytes",
    "placement_comm_cost",
    "rank_comm_bytes",
    "rank_pair_times",
    "total_pair_bytes",
    "STRATEGIES",
    "block_placement",
    "make_placement",
    "random_placement",
    "round_robin_placement",
]
