"""Unit tests for repro.mesh.grid."""

import numpy as np
import pytest

from repro.mesh import QuadMesh, structured_quad_mesh


class TestStructuredQuadMesh:
    def test_counts(self):
        mesh = structured_quad_mesh(4, 3)
        assert mesh.num_cells == 12
        assert mesh.num_nodes == 5 * 4
        assert mesh.is_structured
        assert (mesh.nx, mesh.ny) == (4, 3)

    def test_cell_node_ids_first_cell(self):
        mesh = structured_quad_mesh(3, 2)
        # Cell 0 is the bottom-left quad: nodes (0,0),(1,0),(1,1),(0,1).
        assert mesh.cell_nodes[0].tolist() == [0, 1, 5, 4]

    def test_counter_clockwise_orientation(self):
        mesh = structured_quad_mesh(5, 5)
        x = mesh.node_x[mesh.cell_nodes]
        y = mesh.node_y[mesh.cell_nodes]
        xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        areas = 0.5 * np.sum(x * yn - xn * y, axis=1)
        assert np.all(areas > 0)

    def test_extents(self):
        mesh = structured_quad_mesh(2, 2, width=3.0, height=4.0, x0=1.0, y0=2.0)
        assert mesh.node_x.min() == pytest.approx(1.0)
        assert mesh.node_x.max() == pytest.approx(4.0)
        assert mesh.node_y.max() == pytest.approx(6.0)

    def test_uniform_spacing(self):
        mesh = structured_quad_mesh(10, 5, width=1.0)
        xs = np.unique(mesh.node_x)
        assert np.allclose(np.diff(xs), 0.1)

    def test_cell_ij_roundtrip(self):
        mesh = structured_quad_mesh(7, 3)
        i, j = mesh.cell_ij()
        assert np.array_equal(j * 7 + i, np.arange(mesh.num_cells))

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive_dims(self, bad):
        with pytest.raises(ValueError):
            structured_quad_mesh(bad, 2)


class TestQuadMeshValidation:
    def test_rejects_bad_cell_shape(self):
        with pytest.raises(ValueError, match="shape"):
            QuadMesh(node_x=[0, 1], node_y=[0, 0], cell_nodes=[[0, 1]])

    def test_rejects_out_of_range_nodes(self):
        with pytest.raises(ValueError, match="references nodes"):
            QuadMesh(
                node_x=[0, 1, 1, 0],
                node_y=[0, 0, 1, 1],
                cell_nodes=[[0, 1, 2, 9]],
            )

    def test_unstructured_has_no_ij(self):
        mesh = QuadMesh(
            node_x=[0, 1, 1, 0],
            node_y=[0, 0, 1, 1],
            cell_nodes=[[0, 1, 2, 3]],
        )
        assert not mesh.is_structured
        with pytest.raises(ValueError):
            mesh.cell_ij()
