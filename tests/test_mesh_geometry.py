"""Unit tests for repro.mesh.geometry."""

import numpy as np
import pytest

from repro.mesh import (
    QuadMesh,
    cell_areas,
    cell_centroids,
    structured_quad_mesh,
)


class TestCellAreas:
    def test_uniform_grid(self):
        mesh = structured_quad_mesh(4, 2, width=2.0, height=1.0)
        areas = cell_areas(mesh)
        assert np.allclose(areas, (2.0 / 4) * (1.0 / 2))

    def test_total_area(self):
        mesh = structured_quad_mesh(7, 5, width=3.0, height=2.0)
        assert cell_areas(mesh).sum() == pytest.approx(6.0)

    def test_positive_for_ccw(self):
        mesh = structured_quad_mesh(3, 3)
        assert np.all(cell_areas(mesh) > 0)


class TestCentroids:
    def test_unit_square(self):
        mesh = QuadMesh(
            node_x=[0, 1, 1, 0], node_y=[0, 0, 1, 1], cell_nodes=[[0, 1, 2, 3]]
        )
        c = cell_centroids(mesh)
        assert np.allclose(c, [[0.5, 0.5]])

    def test_grid_centroids(self):
        mesh = structured_quad_mesh(2, 2, width=2.0, height=2.0)
        c = cell_centroids(mesh)
        assert np.allclose(sorted(c[:, 0].tolist()), [0.5, 0.5, 1.5, 1.5])
