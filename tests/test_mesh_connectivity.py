"""Unit tests for repro.mesh.connectivity."""

import numpy as np
import pytest

from repro.mesh import build_face_table, build_dual_graph, structured_quad_mesh


class TestFaceTable:
    def test_face_count_formula(self):
        # nx*(ny+1) horizontal + (nx+1)*ny vertical faces.
        nx, ny = 6, 4
        mesh = structured_quad_mesh(nx, ny)
        faces = build_face_table(mesh)
        assert faces.num_faces == nx * (ny + 1) + (nx + 1) * ny

    def test_interior_boundary_split(self):
        nx, ny = 6, 4
        mesh = structured_quad_mesh(nx, ny)
        faces = build_face_table(mesh)
        boundary = 2 * nx + 2 * ny
        assert int((faces.face_cells[:, 1] < 0).sum()) == boundary
        assert int(faces.interior_mask().sum()) == faces.num_faces - boundary

    def test_each_cell_has_four_distinct_faces(self):
        mesh = structured_quad_mesh(5, 3)
        faces = build_face_table(mesh)
        for c in range(mesh.num_cells):
            assert len(set(faces.cell_faces[c].tolist())) == 4

    def test_face_cells_consistent_with_cell_faces(self):
        mesh = structured_quad_mesh(4, 4)
        faces = build_face_table(mesh)
        for c in range(mesh.num_cells):
            for f in faces.cell_faces[c]:
                assert c in faces.face_cells[f]

    def test_face_nodes_canonical_order(self):
        mesh = structured_quad_mesh(3, 3)
        faces = build_face_table(mesh)
        assert np.all(faces.face_nodes[:, 0] < faces.face_nodes[:, 1])

    def test_face_cells_ordered(self):
        mesh = structured_quad_mesh(3, 3)
        faces = build_face_table(mesh)
        interior = faces.interior_mask()
        assert np.all(
            faces.face_cells[interior, 0] < faces.face_cells[interior, 1]
        )


class TestDualGraph:
    def test_edge_count(self):
        mesh = structured_quad_mesh(5, 4)
        faces = build_face_table(mesh)
        indptr, indices = build_dual_graph(faces, mesh.num_cells)
        assert indices.shape[0] == 2 * int(faces.interior_mask().sum())
        assert indptr[-1] == indices.shape[0]

    def test_symmetry(self):
        mesh = structured_quad_mesh(4, 3)
        faces = build_face_table(mesh)
        indptr, indices = build_dual_graph(faces, mesh.num_cells)
        edges = set()
        for u in range(mesh.num_cells):
            for v in indices[indptr[u] : indptr[u + 1]]:
                edges.add((u, int(v)))
        assert all((v, u) in edges for (u, v) in edges)

    def test_interior_cell_degree(self):
        mesh = structured_quad_mesh(5, 5)
        faces = build_face_table(mesh)
        indptr, _ = build_dual_graph(faces, mesh.num_cells)
        degrees = np.diff(indptr)
        # Centre cell of a 5x5 grid has 4 neighbours; corners have 2.
        assert degrees[12] == 4
        assert degrees[0] == 2
