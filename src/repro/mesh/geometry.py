"""Geometric quantities for quad meshes: cell areas and centroids."""

from __future__ import annotations

import numpy as np

from repro.mesh.grid import QuadMesh


def _quad_vertex_coords(mesh: QuadMesh) -> tuple[np.ndarray, np.ndarray]:
    """Vertex coordinates per cell, shape ``(num_cells, 4)`` each."""
    return mesh.node_x[mesh.cell_nodes], mesh.node_y[mesh.cell_nodes]


def cell_areas(mesh: QuadMesh) -> np.ndarray:
    """Signed shoelace areas per cell (positive for counter-clockwise quads)."""
    x, y = _quad_vertex_coords(mesh)
    x_next = np.roll(x, -1, axis=1)
    y_next = np.roll(y, -1, axis=1)
    return 0.5 * np.sum(x * y_next - x_next * y, axis=1)


def cell_centroids(mesh: QuadMesh) -> np.ndarray:
    """Area centroids per cell, shape ``(num_cells, 2)``.

    Uses the polygon-centroid formula; degenerate (zero-area) quads fall back
    to the vertex average so downstream code never divides by zero.
    """
    x, y = _quad_vertex_coords(mesh)
    x_next = np.roll(x, -1, axis=1)
    y_next = np.roll(y, -1, axis=1)
    cross = x * y_next - x_next * y
    area = 0.5 * np.sum(cross, axis=1)
    cx = np.sum((x + x_next) * cross, axis=1)
    cy = np.sum((y + y_next) * cross, axis=1)
    out = np.empty((mesh.num_cells, 2))
    ok = np.abs(area) > 1e-300
    with np.errstate(invalid="ignore", divide="ignore"):
        out[:, 0] = np.where(ok, cx / (6.0 * area), x.mean(axis=1))
        out[:, 1] = np.where(ok, cy / (6.0 * area), y.mean(axis=1))
    return out

