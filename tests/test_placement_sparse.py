"""Unit tests for the CSR placement structures and optimizers.

Complements ``tests/test_sparse_dense_equivalence.py`` (fuzz-scenario
sweeps) with targeted checks on synthetic graphs: the refiners reproduce
the node maps the dense ``(P, P)`` reference produced on seeded random
graphs (pinned in ``tests/goldens/placement_maps.json``), the exhaustive
trial-matrix search picks exactly the ops of a one-trial-at-a-time scan
(kept here as the reference), the heuristic refinement above the
exhaustive bound never worsens its start, and
``inter_node_bytes`` equals the masked sum over the densified graph
without allocating anything quadratic.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import (
    SparseCommGraph,
    block_placement,
    comm_aware_placement,
    inter_node_bytes,
    minimax_refine,
    placement_comm_cost,
)
from repro.placement.sparse import (
    MINIMAX_EXHAUSTIVE_MAX_RANKS,
    SparsePairCosts,
    dense_rank_costs,
)

GOLDENS_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN = json.loads((GOLDENS_DIR / "placement_maps.json").read_text())


def _load_capture_module():
    """Import the capture script from its file path (not a package module)."""
    spec = importlib.util.spec_from_file_location(
        "capture_placement_golden", GOLDENS_DIR / "capture_placement_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("capture_placement_golden", module)
    spec.loader.exec_module(module)
    return module


capture = _load_capture_module()


class TestGreedyRefine:
    @pytest.mark.parametrize("seed", capture.RANDOM_SEEDS)
    def test_matches_dense_refiner(self, seed):
        assert capture.random_greedy(seed) == GOLDEN["random_greedy"][str(seed)]

    @pytest.mark.parametrize("seed", capture.RANDOM_SEEDS)
    def test_comm_aware_same_map(self, seed):
        expected = GOLDEN["random_comm_aware"][str(seed)]
        assert capture.random_comm_aware(seed) == expected

    def test_empty_graph_is_block(self):
        empty = np.empty(0, dtype=np.int64)
        graph = SparseCommGraph.from_edges(8, empty, empty, empty)
        placed = comm_aware_placement(graph, 4)
        assert np.array_equal(
            placed.node_of_rank, block_placement(8, 4).node_of_rank
        )


class TestMinimaxRefine:
    @pytest.mark.parametrize("seed", capture.RANDOM_SEEDS)
    def test_exhaustive_mode_matches_dense(self, seed):
        assert capture.MINIMAX_SHAPE[0] <= MINIMAX_EXHAUSTIVE_MAX_RANKS
        expected = GOLDEN["random_minimax"][str(seed)]
        assert capture.random_minimax(seed) == expected

    @pytest.mark.parametrize(
        "shape", capture.MINIMAX_LARGE_SHAPES, ids=lambda s: capture.case_key(*s)
    )
    def test_exhaustive_mode_large_graphs(self, shape):
        assert shape[0] <= MINIMAX_EXHAUSTIVE_MAX_RANKS
        expected = GOLDEN["minimax_large"][capture.case_key(*shape)]
        assert capture.minimax_large(*shape) == expected

    @pytest.mark.parametrize(
        "case", capture.MINIMAX_TIE_CASES, ids=lambda c: capture.case_key(*c)
    )
    def test_exhaustive_mode_exact_ties(self, case):
        # Trials that tie exactly must resolve to the first op in scan
        # order (moves by node, then swaps by rank).
        expected = GOLDEN["minimax_ties"][capture.case_key(*case)]
        assert capture.minimax_ties(*case) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_heuristic_mode_never_worsens(self, seed):
        # Above the exhaustive threshold the candidate-restricted search
        # need not match the exhaustive picks, but it must never accept a
        # worse (max, total) objective than its start.
        num_ranks, rpn = 600, 4
        assert num_ranks > MINIMAX_EXHAUSTIVE_MAX_RANKS
        num_nodes = num_ranks // rpn
        rng = np.random.default_rng(seed)
        src = rng.integers(0, num_ranks, size=2000)
        dst = (src + 1 + rng.integers(0, 5, size=2000)) % num_ranks
        keep = src != dst
        src, dst = src[keep], dst[keep]
        w = rng.integers(1, 1000, size=src.size).astype(np.float64)
        graph = SparseCommGraph.from_edges(
            num_ranks,
            np.concatenate([src, dst]),
            np.concatenate([dst, src]),
            np.concatenate([w, w]),
        )
        t_intra = graph.weights * 1e-9
        costs = SparsePairCosts(
            num_ranks=num_ranks,
            indptr=graph.indptr,
            indices=graph.indices,
            t_intra=t_intra,
            t_inter=t_intra * 20.0,
        )
        start = np.arange(num_ranks, dtype=np.int64) % num_nodes
        refined = minimax_refine(start, costs, rpn, num_nodes)
        assert placement_comm_cost(refined, costs) <= (
            placement_comm_cost(start, costs)
        )
        # Still a valid assignment: capacities respected.
        assert np.bincount(refined, minlength=num_nodes).max() <= rpn


def _scan_minimax(nodes, costs, ranks_per_node, num_nodes, max_passes=8):
    """Reference exhaustive minimax: score one trial at a time.

    The scan the trial-matrix search replaced: each move (by node) and
    swap (by rank) delta-updates a copy of the per-rank vector and is kept
    on a strict ``cost < best``.
    """
    nodes = np.asarray(nodes, dtype=np.int64).copy()
    t_intra, t_inter = costs.to_dense()
    delta = t_inter - t_intra
    per_rank = dense_rank_costs(nodes, t_intra, t_inter)
    current = (float(per_rank.max()), float(per_rank.sum()))
    for _ in range(max_passes):
        improved = False
        for a in range(costs.num_ranks):
            na = int(nodes[a])
            counts = np.bincount(nodes, minlength=num_nodes)
            mates_a = nodes == na
            mates_a[a] = False
            best, best_op = current, None
            for m in range(num_nodes):
                if m == na or counts[m] >= ranks_per_node:
                    continue
                members_m = nodes == m
                trial = per_rank.copy()
                trial[mates_a] += delta[mates_a, a]
                trial[members_m] -= delta[members_m, a]
                trial[a] += delta[a, mates_a].sum() - delta[a, members_m].sum()
                cost = (float(trial.max()), float(trial.sum()))
                if cost < best:
                    best, best_op = cost, ("move", m)
            for b in range(a + 1, costs.num_ranks):
                nb = int(nodes[b])
                if nb == na:
                    continue
                mates_b = nodes == nb
                mates_b[b] = False
                trial = per_rank.copy()
                trial[mates_a] += delta[mates_a, a] - delta[mates_a, b]
                trial[mates_b] += delta[mates_b, b] - delta[mates_b, a]
                trial[a] += delta[a, mates_a].sum() - delta[a, mates_b].sum()
                trial[b] += delta[b, mates_b].sum() - delta[b, mates_a].sum()
                cost = (float(trial.max()), float(trial.sum()))
                if cost < best:
                    best, best_op = cost, ("swap", b)
            if best_op is None:
                continue
            improved = True
            if best_op[0] == "move":
                nodes[a] = best_op[1]
            else:
                b = best_op[1]
                nodes[a], nodes[b] = nodes[b], nodes[a]
            per_rank = dense_rank_costs(nodes, t_intra, t_inter)
            current = (float(per_rank.max()), float(per_rank.sum()))
        if not improved:
            break
    return nodes


class TestExhaustiveMatchesScan:
    """The trial-matrix search picks exactly the ops of the scalar scan."""

    @given(
        num_ranks=st.integers(2, 40),
        rpn=st.sampled_from([1, 2, 3, 4, 8, 16]),
        spare=st.integers(0, 2),
        regime=st.sampled_from(["random", "dyadic", "equal", "cheaper-inter"]),
        seed=st.integers(0, 2**16),
        round_robin=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_node_map(self, num_ranks, rpn, spare, regime, seed, round_robin):
        if regime == "random":
            costs = capture.random_costs(num_ranks, seed)
        else:
            costs = capture.regime_costs(num_ranks, seed, regime)
        full = -(-num_ranks // rpn)
        ranks = np.arange(num_ranks, dtype=np.int64)
        start = ranks % full if round_robin else ranks // rpn
        num_nodes = full + spare
        assert np.array_equal(
            minimax_refine(start, costs, rpn, num_nodes),
            _scan_minimax(start, costs, rpn, num_nodes),
        )


def _masked_sum(dense: np.ndarray, nodes: np.ndarray) -> float:
    """Bytes between rank pairs on different nodes, from the dense matrix."""
    return float(dense[nodes[:, None] != nodes[None, :]].sum()) / 2.0


class TestInterNodeBytesRework:
    """inter_node_bytes sums crossing edges; no (P, P) mask is built."""

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_vs_historical_masked_sum(self, seed):
        num_ranks, rpn = 30, 4
        dense = capture.random_graph(num_ranks, seed)
        placement = block_placement(num_ranks, rpn)
        assert inter_node_bytes(
            placement, capture.csr_graph(dense)
        ) == _masked_sum(dense, placement.node_of_rank)

    def test_shape_mismatch_rejected(self):
        graph = capture.csr_graph(capture.random_graph(6, 0))
        with pytest.raises(ValueError, match="does not match"):
            inter_node_bytes(block_placement(8, 4), graph)

    def test_no_quadratic_mask_allocation(self):
        # A (P, P) bool mask would be 4 MB at P = 2000; the crossing-edge
        # sum's working set is O(edges).  The graph itself is built before
        # tracing starts; only the call's own allocations are measured.
        num_ranks, rpn = 2000, 4
        rng = np.random.default_rng(0)
        ring = np.arange(num_ranks)
        nxt = (ring + 1) % num_ranks
        w = rng.integers(1, 100, num_ranks).astype(np.float64)
        graph = SparseCommGraph.from_edges(
            num_ranks,
            np.concatenate([ring, nxt]),
            np.concatenate([nxt, ring]),
            np.concatenate([w, w]),
        )
        placement = block_placement(num_ranks, rpn)
        inter_node_bytes(placement, graph)  # warm any lazy imports
        tracemalloc.start()
        result = inter_node_bytes(placement, graph)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < num_ranks * num_ranks // 4, (
            f"peak {peak} bytes suggests a quadratic mask was allocated"
        )
        assert result == _masked_sum(graph.to_dense(), placement.node_of_rank)


class TestSparsePairCosts:
    def test_round_trip_and_delta(self):
        costs = capture.random_costs(12, seed=1)
        t_intra, t_inter = costs.to_dense()
        rows = costs.row_of_entry()
        assert np.array_equal(
            t_intra[rows, costs.indices], np.asarray(costs.t_intra)
        )
        assert np.array_equal(
            t_inter[rows, costs.indices], np.asarray(costs.t_inter)
        )

    def test_placement_cost_matches_dense(self):
        # Each rank's cost is its row of intra (same node) or inter prices.
        costs = capture.random_costs(12, seed=2)
        t_intra, t_inter = costs.to_dense()
        nodes = block_placement(12, 4).node_of_rank
        per_rank = [
            sum(
                (t_intra if nodes[r] == nodes[c] else t_inter)[r, c]
                for c in range(12)
                if c != r
            )
            for r in range(12)
        ]
        expected = (max(per_rank), sum(per_rank))
        assert placement_comm_cost(nodes, costs) == pytest.approx(
            expected, rel=1e-12
        )
