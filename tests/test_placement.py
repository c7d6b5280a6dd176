"""The placement subsystem: strategy invariants, costing, optimizer, wiring.

Covers the ISSUE-4 invariants: every strategy yields a bijective
per-node-slot map respecting node capacity, the flat-equivalent blend is
permutation-consistent, ``ranks_per_node=1`` and non-divisible rank counts
behave, rank validation is unified across every ``HierarchicalNetwork``
entry point, and the default block placement prices identically to the
implicit map.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hydro import build_workload_census, measure_iteration_time
from repro.machine import QSNET_LIKE, es45_like_cluster
from repro.machine.hierarchy import es45_hierarchical_network, hier_bcast_time
from repro.partition import cached_partition
from repro.placement import (
    Placement,
    SparseCommGraph,
    SparsePairCosts,
    block_placement,
    comm_aware_placement,
    compact_labels,
    inter_node_bytes,
    make_placement,
    minimax_refine,
    optimize_placement,
    placement_comm_cost,
    random_placement,
    rank_comm_bytes,
    rank_pair_times,
    round_robin_placement,
    total_pair_bytes,
)

STRATEGY_TOKENS = ("block", "round-robin", "random:3", "comm-aware")


def csr(dense: np.ndarray) -> SparseCommGraph:
    """The CSR graph of a dense symmetric byte matrix."""
    rows, cols = np.nonzero(dense)
    return SparseCommGraph.from_edges(dense.shape[0], rows, cols, dense[rows, cols])


def leading_ranks(graph: SparseCommGraph, num_ranks: int) -> SparseCommGraph:
    """The subgraph among ranks ``0 .. num_ranks - 1``."""
    rows = graph.row_of_entry()
    keep = (rows < num_ranks) & (graph.indices < num_ranks)
    return SparseCommGraph.from_edges(
        num_ranks, rows[keep], graph.indices[keep], graph.weights[keep]
    )


@pytest.fixture(scope="module")
def small_census(small_deck, small_faces):
    part = cached_partition(small_deck, 16, seed=1, faces=small_faces)
    return build_workload_census(small_deck, part, small_faces)


@pytest.fixture(scope="module")
def small_graph(small_census):
    return rank_comm_bytes(small_census)


class TestPlacementInvariants:
    @pytest.mark.parametrize("num_ranks", [1, 4, 5, 16, 17])
    @pytest.mark.parametrize("ranks_per_node", [1, 3, 4])
    @pytest.mark.parametrize("token", STRATEGY_TOKENS)
    def test_bijective_per_node_slot(self, token, num_ranks, ranks_per_node):
        """Every strategy maps each rank to a distinct in-capacity slot."""
        rng = np.random.default_rng(num_ranks)
        weights = rng.random((num_ranks, num_ranks))
        graph = weights + weights.T
        np.fill_diagonal(graph, 0.0)
        placement = make_placement(
            token, num_ranks=num_ranks, ranks_per_node=ranks_per_node,
            graph=csr(graph),
        )
        assert placement.num_ranks == num_ranks
        counts = np.bincount(placement.node_of_rank)
        assert counts.max() <= ranks_per_node
        assert counts.min() >= 1  # compact labels: every node occupied
        slots = placement.slots()
        assert len(set(slots)) == num_ranks  # bijective rank → (node, slot)
        assert all(slot < ranks_per_node for _, slot in slots)

    def test_minimum_node_count(self, small_graph):
        """No strategy wastes nodes: occupancy needs exactly ceil(P/c)."""
        for token in STRATEGY_TOKENS:
            placement = make_placement(
                token, num_ranks=10, ranks_per_node=4, graph=leading_ranks(small_graph, 10)
            )
            assert placement.num_nodes == 3, token

    def test_ranks_per_node_one_is_all_inter(self):
        placement = block_placement(6, 1)
        assert placement.num_nodes == 6
        for a in range(6):
            for b in range(6):
                assert placement.same_node(a, b) == (a == b)

    def test_capacity_violation_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            Placement(node_of_rank=np.array([0, 0, 0]), ranks_per_node=2)

    def test_non_compact_labels_rejected(self):
        with pytest.raises(ValueError, match="compact"):
            Placement(node_of_rank=np.array([0, 2]), ranks_per_node=1)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            Placement(node_of_rank=np.array([0.0, 1.0]), ranks_per_node=1)

    def test_compact_labels_preserves_grouping(self):
        raw = np.array([5, 5, 2, 9, 2])
        compact = compact_labels(raw)
        assert compact.tolist() == [0, 0, 1, 2, 1]

    def test_block_matches_implicit_hierarchy_map(self):
        smp = es45_hierarchical_network(QSNET_LIKE)
        placement = block_placement(17, 4)
        for rank in range(17):
            assert placement.node_of(rank) == smp.node_of(rank)

    #: Golden node maps for fixed seeds: ``random:<seed>`` participates in
    #: sweep store keys and bitwise-compared runs, so the shuffle must be
    #: identical on every platform, Python version, and worker process.
    #: The implementation commits to an explicit ``Generator(PCG64(seed))``
    #: stream (stable within a numpy major series); any change to these
    #: arrays is a breaking change to stored sweep results.
    RANDOM_GOLDENS = {
        (6, 2, 3): [0, 1, 1, 2, 0, 2],
        (8, 4, 0): [0, 1, 0, 1, 1, 0, 0, 1],
        (12, 4, 123): [0, 1, 0, 1, 2, 2, 1, 0, 2, 2, 0, 1],
        (7, 3, 42): [0, 1, 2, 0, 1, 0, 1],
    }

    @pytest.mark.parametrize("key", sorted(RANDOM_GOLDENS))
    def test_random_seed_golden_maps(self, key):
        num_ranks, ranks_per_node, seed = key
        placement = random_placement(num_ranks, ranks_per_node, seed=seed)
        assert placement.node_of_rank.tolist() == self.RANDOM_GOLDENS[key]
        # The token form dispatches to the exact same stream.
        via_token = make_placement(
            f"random:{seed}", num_ranks=num_ranks, ranks_per_node=ranks_per_node
        )
        assert via_token.node_of_rank.tolist() == self.RANDOM_GOLDENS[key]

    def test_random_seed_ignores_global_rng_state(self):
        """Perturbing every global RNG must not move a seeded placement."""
        import random as stdlib_random

        before = random_placement(12, 4, seed=123).node_of_rank.tolist()
        stdlib_random.seed(987654)
        np.random.seed(13579)  # the legacy global numpy state
        np.random.random(100)
        stdlib_random.random()
        after = random_placement(12, 4, seed=123).node_of_rank.tolist()
        assert after == before


def placed_hierarchy(placement):
    """The SMP hierarchy of the ES-45 cluster under ``placement``."""
    smp = es45_like_cluster().with_smp(ranks_per_node=placement.ranks_per_node)
    return smp.with_placement(placement).hierarchy


class TestBlendPermutationConsistency:
    def test_local_fraction_consistent_under_relabelling(self):
        """Relabelling nodes changes nothing about who shares a node."""
        placement = round_robin_placement(12, 4)
        relabelled = Placement(
            node_of_rank=compact_labels(2 - placement.node_of_rank),
            ranks_per_node=4,
        )
        pairs = [(0, 3), (1, 2), (4, 11), (5, 6), (0, 1)]
        assert placed_hierarchy(placement).local_pair_fraction(
            pairs
        ) == pytest.approx(placed_hierarchy(relabelled).local_pair_fraction(pairs))

    def test_blend_matches_permuted_block(self):
        """A shuffled placement is block placement composed with a rank
        permutation: blending over permuted pairs must agree exactly."""
        num_ranks, rpn = 16, 4
        rng = np.random.default_rng(5)
        perm = rng.permutation(num_ranks)
        # permuted placement: rank r lives where block puts perm[r].
        placement = Placement(
            node_of_rank=compact_labels(perm // rpn), ranks_per_node=rpn
        )
        block = block_placement(num_ranks, rpn)
        pairs = [(a, b) for a in range(num_ranks) for b in range(a + 1, num_ranks)]
        permuted_pairs = [(perm[a], perm[b]) for a, b in pairs]
        frac = placed_hierarchy(placement).local_pair_fraction(pairs)
        block_frac = placed_hierarchy(block).local_pair_fraction(permuted_pairs)
        assert frac == pytest.approx(block_frac)
        smp = es45_hierarchical_network(QSNET_LIKE)
        blended = smp.flat_equivalent(frac)
        blended_block = smp.flat_equivalent(block_frac)
        for size in (8, 512, 65536):
            assert blended.tmsg(size) == blended_block.tmsg(size)


class TestUnifiedRankValidation:
    """ISSUE-4 bugfix: every entry point fails identically on bad ranks."""

    @pytest.fixture(scope="class")
    def placed(self):
        return es45_hierarchical_network(QSNET_LIKE).with_placement(
            block_placement(8, 4)
        )

    def test_negative_ranks_raise_everywhere(self, placed):
        smp = es45_hierarchical_network(QSNET_LIKE)
        for h in (smp, placed):
            for call in (
                lambda: h.node_of(-1),
                lambda: h.same_node(-1, 0),
                lambda: h.same_node(0, -1),
                lambda: h.network_for(-1, 0),
                lambda: h.tmsg_pair(0, -1, 64),
            ):
                with pytest.raises(ValueError, match="non-negative"):
                    call()

    def test_out_of_range_raises_with_placement(self, placed):
        for call in (
            lambda: placed.node_of(8),
            lambda: placed.same_node(0, 8),
            lambda: placed.network_for(8, 0),
            lambda: placed.tmsg_pair(0, 8, 64),
        ):
            with pytest.raises(ValueError, match="out of range"):
                call()

    def test_cluster_pair_lookup_fails_identically(self, placed):
        cluster = es45_like_cluster().with_smp().with_placement(
            block_placement(8, 4)
        )
        with pytest.raises(ValueError, match="out of range"):
            cluster.hierarchy.network_for(0, 8)
        with pytest.raises(ValueError, match="non-negative"):
            cluster.hierarchy.network_for(-1, 0)

    def test_engine_rejects_mismatched_placement(self, placed):
        from repro.simmpi import Engine

        cluster = es45_like_cluster().with_smp().with_placement(
            block_placement(8, 4)
        )
        with pytest.raises(ValueError, match="placement maps 8 ranks"):
            Engine(cluster, 16, 1)

    def test_capacity_mismatch_rejected(self):
        smp = es45_hierarchical_network(QSNET_LIKE)  # 4 per node
        with pytest.raises(ValueError, match="capacity"):
            smp.with_placement(block_placement(8, 2))


class TestPairwisePricing:
    def test_tmsg_pairs_bitwise_matches_scalar(self):
        h = es45_hierarchical_network(QSNET_LIKE).with_placement(
            random_placement(12, 4, seed=2)
        )
        rng = np.random.default_rng(0)
        a = rng.integers(0, 12, size=200)
        b = (a + rng.integers(1, 12, size=200)) % 12
        sizes = rng.integers(0, 70000, size=200).astype(np.float64)
        batched = h.tmsg_pairs(a, b, sizes)
        for got, aa, bb, ss in zip(batched, a, b, sizes):
            assert got == h.tmsg_pair(int(aa), int(bb), float(ss))

    def test_same_node_mask_matches_block_arithmetic(self):
        h = es45_hierarchical_network(QSNET_LIKE)
        a = np.arange(16)
        b = np.roll(a, 1)
        mask = h.same_node_mask(a, b)
        expected = np.array([h.same_node(int(x), int(y)) for x, y in zip(a, b)])
        assert np.array_equal(mask, expected)

    def test_tree_extents_block_vs_explicit(self):
        h = es45_hierarchical_network(QSNET_LIKE)
        placed = h.with_placement(block_placement(10, 4))
        assert h.tree_extents(10) == placed.tree_extents(10) == (3, 4)
        assert hier_bcast_time(h, 10, 8) == hier_bcast_time(placed, 10, 8)

    def test_host_overheads_default_to_flat(self):
        h = es45_hierarchical_network(QSNET_LIKE)
        assert h.intra_overheads(1.5e-6, 2.0e-6) == (1.5e-6, 2.0e-6)

    def test_host_overheads_cheaper_on_node(self):
        h = es45_hierarchical_network(
            QSNET_LIKE, intra_send_overhead=0.5e-6, intra_recv_overhead=0.7e-6
        )
        assert h.intra_overheads(1.5e-6, 2.0e-6) == (0.5e-6, 0.7e-6)
        # Each direction falls back to the flat value on its own.
        send_only = es45_hierarchical_network(QSNET_LIKE, intra_send_overhead=0.5e-6)
        assert send_only.intra_overheads(1.5e-6, 2.0e-6) == (0.5e-6, 2.0e-6)

    def test_explicit_block_placement_prices_identically(
        self, small_deck, small_faces, small_census
    ):
        """The golden guarantee, end to end: an explicit block map charges
        the exact same simulated time as the implicit one."""
        part = cached_partition(small_deck, 16, seed=1, faces=small_faces)
        smp = es45_like_cluster().with_smp()
        implicit = measure_iteration_time(
            small_deck, part, cluster=smp, faces=small_faces, census=small_census
        ).seconds
        explicit = measure_iteration_time(
            small_deck, part, cluster=smp.with_placement(block_placement(16, 4)),
            faces=small_faces, census=small_census,
        ).seconds
        assert explicit == implicit


class TestOptimizer:
    def test_comm_aware_never_worse_than_block_bytes(self, small_graph):
        for num_ranks in (8, 12, 16):
            graph = leading_ranks(small_graph, num_ranks)
            optimized = comm_aware_placement(graph, 4)
            block = block_placement(num_ranks, 4)
            assert inter_node_bytes(optimized, graph) <= inter_node_bytes(
                block, graph
            )

    def test_round_robin_worse_than_block_on_coherent_ids(self, small_graph):
        """Multilevel rank ids are spatially coherent, so cyclic placement
        cuts nearly every neighbour pair."""
        block = block_placement(16, 4)
        rr = round_robin_placement(16, 4)
        assert inter_node_bytes(rr, small_graph) > inter_node_bytes(
            block, small_graph
        )

    def test_graph_is_symmetric_nonnegative(self, small_graph):
        dense = small_graph.to_dense()
        assert np.array_equal(dense, dense.T)
        assert np.all(dense >= 0)
        assert np.all(np.diag(dense) == 0)
        assert total_pair_bytes(small_graph) > 0

    def test_optimize_placement_never_worse_on_objective(self, small_census):
        cluster = es45_like_cluster().with_smp(
            intra_send_overhead=0.5e-6, intra_recv_overhead=0.7e-6
        )
        optimized = optimize_placement(small_census, cluster)
        costs = rank_pair_times(small_census, cluster)
        block = block_placement(16, 4)
        assert placement_comm_cost(
            optimized.node_of_rank, costs
        ) <= placement_comm_cost(block.node_of_rank, costs)

    def test_minimax_refine_respects_capacity(self, small_census):
        cluster = es45_like_cluster().with_smp()
        costs = rank_pair_times(small_census, cluster)
        start = np.arange(16, dtype=np.int64) % 4
        refined = minimax_refine(start, costs, 4, 4)
        assert np.bincount(refined, minlength=4).max() <= 4

    @pytest.mark.parametrize("num_ranks,rpn", [(12, 4), (17, 3), (32, 8)])
    def test_minimax_refine_never_worsens_objective(self, num_ranks, rpn):
        """The incremental delta scoring must only ever accept genuine
        improvements of the exact (recomputed) lexicographic cost."""
        rng = np.random.default_rng(num_ranks)
        t_inter = rng.random((num_ranks, num_ranks))
        t_inter = t_inter + t_inter.T
        np.fill_diagonal(t_inter, 0.0)
        # Every rank pair is a link: a complete CSR topology.
        rows, cols = np.nonzero(~np.eye(num_ranks, dtype=bool))
        costs = SparsePairCosts(
            num_ranks=num_ranks,
            indptr=np.arange(num_ranks + 1) * (num_ranks - 1),
            indices=cols,
            t_intra=t_inter[rows, cols] * 0.2,
            t_inter=t_inter[rows, cols],
        )
        num_nodes = (num_ranks + rpn - 1) // rpn
        start = np.arange(num_ranks, dtype=np.int64) % num_nodes
        refined = minimax_refine(start, costs, rpn, num_nodes)
        assert placement_comm_cost(refined, costs) <= (
            placement_comm_cost(start, costs)
        )
        assert np.bincount(refined, minlength=num_nodes).max() <= rpn

    def test_optimizer_deterministic(self, small_census):
        cluster = es45_like_cluster().with_smp(
            intra_send_overhead=0.5e-6, intra_recv_overhead=0.7e-6
        )
        first = optimize_placement(small_census, cluster)
        second = optimize_placement(small_census, cluster)
        assert np.array_equal(first.node_of_rank, second.node_of_rank)

    def test_optimizer_beats_block_in_simulated_time(
        self, small_deck, small_faces, small_census
    ):
        """The acceptance scenario: comm-bound SMP machine, ≥2 ranks/node."""
        part = cached_partition(small_deck, 16, seed=1, faces=small_faces)
        cluster = es45_like_cluster(speed=8.0).with_smp(
            intra_send_overhead=0.5e-6, intra_recv_overhead=0.7e-6
        )
        optimized = optimize_placement(small_census, cluster)
        t_block = measure_iteration_time(
            small_deck, part, cluster=cluster, faces=small_faces,
            census=small_census,
        ).seconds
        t_opt = measure_iteration_time(
            small_deck, part, cluster=cluster.with_placement(optimized),
            faces=small_faces, census=small_census,
        ).seconds
        assert t_opt < t_block

    def test_make_placement_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown placement strategy"):
            make_placement("zigzag", num_ranks=4, ranks_per_node=2)

    def test_make_placement_comm_aware_needs_structure(self):
        with pytest.raises(ValueError, match="census or communication graph"):
            make_placement("comm-aware", num_ranks=4, ranks_per_node=2)


class TestSweepIntegration:
    def test_placements_axis_multiplies_grid(self):
        from repro.analysis import ClusterSpec, SweepSpec

        spec = SweepSpec(
            decks=("16x8",),
            rank_counts=(4,),
            clusters=(ClusterSpec(smp=True),),
            models=(),
            placements=(None, "round-robin"),
            max_side=16,
        )
        assert spec.num_points == 2
        tasks = spec.tasks()
        assert {t.placement for t in tasks} == {None, "round-robin"}
        keys = {t.store_key() for t in tasks}
        assert len(keys) == 2  # the axis reaches the content hash

    def test_default_placement_key_unchanged_by_field(self):
        """A task built without the placement axis hashes identically to an
        explicit ``placement=None`` task (resumability of old stores)."""
        from dataclasses import replace

        from repro.analysis import ClusterSpec, SweepSpec

        spec = SweepSpec(
            decks=("16x8",), rank_counts=(4,), clusters=(ClusterSpec(),),
            models=(), max_side=16,
        )
        task = spec.tasks()[0]
        assert task.placement is None
        explicit = replace(task, request=replace(task.request, placement=None))
        assert task.store_key() == explicit.store_key()

    def test_evaluate_point_requires_smp_for_placement(self, tiny_deck):
        from repro.analysis import SweepTask, evaluate_point
        from repro.core import PredictionRequest

        with pytest.raises(ValueError, match="SMP cluster"):
            evaluate_point(SweepTask(
                request=PredictionRequest(
                    deck="16x8", ranks=4, models=(), placement="block"
                ),
                deck=tiny_deck,
            ))

    def test_evaluate_point_runs_placement(self, tiny_deck):
        from repro.analysis import ClusterSpec, SweepTask, evaluate_point
        from repro.core import PredictionRequest

        def point(placement):
            request = PredictionRequest(
                deck="16x8", ranks=4, cluster=ClusterSpec(smp=True), models=(),
                placement=placement,
            )
            return evaluate_point(SweepTask(request=request, deck=tiny_deck))

        base = point(None)
        placed = point("block")
        # Explicit block placement measures bitwise what the default does.
        assert placed.measured == base.measured


class TestPlaceCli:
    def test_place_compare_runs(self, capsys):
        from repro.cli import main

        code = main([
            "place", "compare", "--deck", "16x8", "--ranks", "4",
            "--strategies", "block,comm-aware",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "comm-aware" in out
        assert "vs block" in out

    def test_place_optimize_runs(self, capsys):
        from repro.cli import main

        code = main([
            "place", "optimize", "--deck", "16x8", "--ranks", "4", "--show-map",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "measured iteration (ms)" in out
        assert "node   0" in out

    def test_sweep_grid_accepts_placements(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "sweep", "status", "--decks", "16x8", "--ranks", "4", "--smp",
            "--placements", "default,comm-aware",
        ])
        from repro.cli.common import placements_from_args

        assert placements_from_args(args) == (None, "comm-aware")
