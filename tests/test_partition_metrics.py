"""Unit tests for repro.partition.metrics."""

import numpy as np
import pytest

from repro.mesh import build_face_table, structured_quad_mesh
from repro.partition import (
    Partition,
    dual_graph_of_mesh,
    edge_cut,
    imbalance,
    partition_quality,
    structured_block_partition,
)
from repro.partition.metrics import neighbor_counts


@pytest.fixture(scope="module")
def grid8():
    mesh = structured_quad_mesh(8, 8)
    faces = build_face_table(mesh)
    return mesh, dual_graph_of_mesh(mesh, faces)


class TestEdgeCut:
    def test_zero_for_single_part(self, grid8):
        _, g = grid8
        assert edge_cut(g, np.zeros(64, dtype=np.int64)) == 0

    def test_straight_cut(self, grid8):
        mesh, g = grid8
        part = structured_block_partition(mesh, 2, px=2, py=1)
        assert edge_cut(g, part.cell_rank) == 8


class TestImbalance:
    def test_perfect(self):
        assert imbalance(np.array([4, 4, 4])) == 1.0

    def test_skewed(self):
        assert imbalance(np.array([6, 2, 4])) == pytest.approx(1.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            imbalance(np.array([]))


class TestNeighborCounts:
    def test_2x2_tiling(self, grid8):
        mesh, g = grid8
        part = structured_block_partition(mesh, 4, px=2, py=2)
        counts = neighbor_counts(g, part.cell_rank, 4)
        assert counts.tolist() == [2, 2, 2, 2]


class TestPartitionQuality:
    def test_fields(self, grid8):
        mesh, g = grid8
        part = structured_block_partition(mesh, 4, px=2, py=2)
        q = partition_quality(g, part)
        assert q.num_ranks == 4
        assert q.imbalance == 1.0
        assert q.edge_cut == 16
        assert (q.min_neighbors, q.max_neighbors) == (2, 2)
        assert q.mean_neighbors == 2.0
