"""Property-based tests: every placement strategy yields a valid placement.

The :class:`~repro.placement.base.Placement` contract — each rank occupies
exactly one node slot (bijectivity into ``(node, slot)`` pairs), no node
exceeds its capacity, node ids are compact — must hold for *every* strategy
at *every* feasible ``(num_ranks, ranks_per_node)``, not just the sizes the
examples use.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import (
    SparseCommGraph,
    block_placement,
    comm_aware_placement,
    make_placement,
    random_placement,
    round_robin_placement,
)

shapes = st.tuples(st.integers(1, 24), st.integers(1, 6))


def assert_valid_placement(placement, num_ranks: int, ranks_per_node: int):
    """The full Placement invariant set."""
    assert placement.num_ranks == num_ranks
    # Capacity: no node over-full.
    counts = np.bincount(placement.node_of_rank)
    assert counts.max() <= ranks_per_node
    # Compactness: every node id in [0, num_nodes) occupied.
    assert counts.min() > 0
    assert placement.num_nodes == counts.size
    # Bijectivity into (node, slot): all pairs distinct, slots within
    # capacity.
    slots = placement.slots()
    assert len(set(slots)) == num_ranks
    assert all(0 <= slot < ranks_per_node for _, slot in slots)
    # Validated lookups agree with the raw array.
    for rank in range(num_ranks):
        assert placement.node_of(rank) == int(placement.node_of_rank[rank])


class TestStrategyInvariants:
    @given(shape=shapes)
    @settings(max_examples=60, deadline=None)
    def test_block(self, shape):
        num_ranks, capacity = shape
        assert_valid_placement(
            block_placement(num_ranks, capacity), num_ranks, capacity
        )

    @given(shape=shapes)
    @settings(max_examples=60, deadline=None)
    def test_round_robin(self, shape):
        num_ranks, capacity = shape
        assert_valid_placement(
            round_robin_placement(num_ranks, capacity), num_ranks, capacity
        )

    @given(shape=shapes, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random(self, shape, seed):
        num_ranks, capacity = shape
        placement = random_placement(num_ranks, capacity, seed=seed)
        assert_valid_placement(placement, num_ranks, capacity)
        # Random placements shuffle the block slot multiset, so their
        # node-occupancy profile matches block's exactly.
        block = block_placement(num_ranks, capacity)
        assert sorted(np.bincount(placement.node_of_rank)) == sorted(
            np.bincount(block.node_of_rank)
        )

    @given(shape=shapes, seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_comm_aware(self, shape, seed):
        num_ranks, capacity = shape
        rng = np.random.default_rng(seed)
        graph = rng.random((num_ranks, num_ranks)) * 1e4
        graph = graph + graph.T
        np.fill_diagonal(graph, 0.0)
        rows, cols = np.nonzero(graph)
        placement = comm_aware_placement(
            SparseCommGraph.from_edges(num_ranks, rows, cols, graph[rows, cols]),
            capacity,
        )
        assert_valid_placement(placement, num_ranks, capacity)

    @given(
        shape=shapes,
        token=st.sampled_from(["block", "round-robin", "random:7"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_make_placement_dispatch(self, shape, token):
        num_ranks, capacity = shape
        placement = make_placement(token, num_ranks, capacity)
        assert_valid_placement(placement, num_ranks, capacity)
