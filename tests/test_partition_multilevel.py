"""Unit + integration tests for the multilevel k-way partitioner."""

import numpy as np
import pytest

from repro.mesh import build_deck, build_face_table, structured_quad_mesh
from repro.partition import (
    dual_graph_of_mesh,
    multilevel_partition,
    partition_quality,
    rcb_partition,
)
from repro.partition.multilevel import induced_subgraph, multilevel_bisect
from repro.partition.graph import graph_from_edges
from repro.util import seeded_rng


class TestInducedSubgraph:
    def test_subset_of_path(self):
        g = graph_from_edges(5, [0, 1, 2, 3], [1, 2, 3, 4])
        sub = induced_subgraph(g, np.array([1, 2, 3]))
        assert sub.num_vertices == 3
        assert sub.indices.size == 2 * 2

    def test_disconnecting_subset(self):
        g = graph_from_edges(5, [0, 1, 2, 3], [1, 2, 3, 4])
        sub = induced_subgraph(g, np.array([0, 4]))
        assert sub.indices.size == 0

    def test_vertex_weights_carried(self):
        g = graph_from_edges(3, [0, 1], [1, 2], vweights=np.array([5, 6, 7]))
        sub = induced_subgraph(g, np.array([0, 2]))
        assert sub.vweights.tolist() == [5, 7]


class TestMultilevelBisect:
    def test_grid_bisection_quality(self):
        """A 32×32 grid's optimal bisection cuts 32 edges; accept ≤ 1.5×."""
        mesh = structured_quad_mesh(32, 32)
        g = dual_graph_of_mesh(mesh, build_face_table(mesh))
        side = multilevel_bisect(g, 0.5, seeded_rng(0))
        from repro.partition.refine import compute_cut

        assert compute_cut(g, side) <= 48
        w0 = int(np.count_nonzero(side == 0))
        assert abs(w0 - 512) <= 52


class TestMultilevelPartition:
    @pytest.mark.parametrize("k", [2, 3, 7, 16])
    def test_all_parts_nonempty(self, k):
        mesh = structured_quad_mesh(20, 20)
        part = multilevel_partition(mesh, k, seed=0)
        assert np.all(part.counts() > 0)
        assert part.num_ranks == k

    def test_balance_within_tolerance(self, small_deck, small_faces):
        part = multilevel_partition(small_deck.mesh, 16, faces=small_faces, seed=1)
        counts = part.counts()
        assert counts.max() / counts.mean() <= 1.10

    def test_cut_beats_random(self, small_deck, small_faces):
        g = dual_graph_of_mesh(small_deck.mesh, small_faces)
        part = multilevel_partition(small_deck.mesh, 16, faces=small_faces, seed=1)
        q = partition_quality(g, part)
        rng = seeded_rng(9)
        random_labels = rng.integers(0, 16, small_deck.num_cells)
        from repro.partition.metrics import edge_cut

        assert q.edge_cut < 0.25 * edge_cut(g, random_labels)

    def test_competitive_with_rcb(self, small_deck, small_faces):
        """The multilevel cut should be within 2× of RCB's regular tiling."""
        g = dual_graph_of_mesh(small_deck.mesh, small_faces)
        ml = partition_quality(
            g, multilevel_partition(small_deck.mesh, 16, faces=small_faces, seed=1)
        )
        rcb = partition_quality(g, rcb_partition(small_deck.mesh, 16))
        assert ml.edge_cut <= 2.0 * rcb.edge_cut

    def test_deterministic(self, small_deck, small_faces):
        p1 = multilevel_partition(small_deck.mesh, 8, faces=small_faces, seed=5)
        p2 = multilevel_partition(small_deck.mesh, 8, faces=small_faces, seed=5)
        assert np.array_equal(p1.cell_rank, p2.cell_rank)

    def test_irregular_neighbor_counts(self, small_deck, small_faces):
        """Section 2: Metis partitions are irregular — neighbour counts vary."""
        g = dual_graph_of_mesh(small_deck.mesh, small_faces)
        part = multilevel_partition(small_deck.mesh, 16, faces=small_faces, seed=1)
        q = partition_quality(g, part)
        assert q.min_neighbors < q.max_neighbors

    def test_k_equal_cells(self):
        mesh = structured_quad_mesh(4, 2)
        part = multilevel_partition(mesh, 8, seed=0)
        assert np.all(part.counts() == 1)

    def test_rejects_k_above_n(self):
        mesh = structured_quad_mesh(2, 2)
        with pytest.raises(ValueError):
            multilevel_partition(mesh, 5)

    def test_rejects_nonpositive_k(self):
        mesh = structured_quad_mesh(2, 2)
        with pytest.raises(ValueError):
            multilevel_partition(mesh, 0)
