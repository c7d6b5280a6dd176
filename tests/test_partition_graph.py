"""Unit tests for repro.partition.graph (CSR graphs and contraction)."""

import numpy as np
import pytest

from repro.mesh import build_face_table, structured_quad_mesh
from repro.partition.graph import CSRGraph, contract, dual_graph_of_mesh, graph_from_edges


def path_graph(n):
    u = np.arange(n - 1)
    return graph_from_edges(n, u, u + 1)


class TestGraphFromEdges:
    def test_path(self):
        g = path_graph(4)
        assert g.num_vertices == 4
        assert g.indices.size == 2 * 3
        assert g.degree(0) == 1
        assert g.degree(1) == 2
        assert sorted(g.neighbors(1).tolist()) == [0, 2]

    def test_merges_parallel_edges(self):
        g = graph_from_edges(2, [0, 1], [1, 0], [2, 3])
        assert g.indices.size == 2 * 1
        assert g.eweights.tolist() == [5, 5]

    def test_drops_self_loops(self):
        g = graph_from_edges(2, [0, 0], [0, 1])
        assert g.indices.size == 2 * 1

    def test_total_vweight_default(self):
        assert path_graph(5).total_vweight == 5


class TestDualGraphOfMesh:
    def test_edges_equal_interior_faces(self):
        mesh = structured_quad_mesh(6, 5)
        faces = build_face_table(mesh)
        g = dual_graph_of_mesh(mesh, faces)
        assert g.indices.size == 2 * int(faces.interior_mask().sum())
        assert g.num_vertices == mesh.num_cells


class TestContract:
    def test_pairwise_contraction(self):
        g = path_graph(4)
        match = np.array([1, 0, 3, 2])
        coarse, mapping = contract(g, match)
        assert coarse.num_vertices == 2
        assert coarse.total_vweight == 4
        # The middle edge (1-2) survives with weight 1.
        assert coarse.indices.size == 2 * 1
        assert mapping.tolist() == [0, 0, 1, 1]

    def test_unmatched_vertices_survive(self):
        g = path_graph(3)
        match = np.array([1, 0, 2])
        coarse, mapping = contract(g, match)
        assert coarse.num_vertices == 2
        assert coarse.vweights.tolist() == [2, 1]

    def test_edge_weights_accumulate(self):
        # Square 0-1-2-3-0; contracting (0,1) and (2,3) merges two edges.
        g = graph_from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0])
        coarse, _ = contract(g, np.array([1, 0, 3, 2]))
        assert coarse.indices.size == 2 * 1
        assert coarse.eweights.max() == 2

    def test_rejects_non_involution(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="involution"):
            contract(g, np.array([1, 2, 0]))


class TestCSRGraphValidation:
    def test_rejects_misaligned_weights(self):
        with pytest.raises(ValueError):
            CSRGraph(
                indptr=np.array([0, 1]),
                indices=np.array([0]),
                eweights=np.array([1, 2]),
                vweights=np.array([1]),
            )

    def test_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            CSRGraph(
                indptr=np.array([1, 2]),
                indices=np.array([0]),
                eweights=np.array([1]),
                vweights=np.array([1, 1]),
            )
