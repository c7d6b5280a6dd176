"""Structured quadrilateral mesh generation.

Krak's decks in the paper are logically-rectangular 2-D grids.  We generate
them as fully general unstructured quad meshes (explicit node coordinates and
cell→node connectivity) so the partitioner, hydro solver, and performance
model never rely on structure — exactly like the real application, whose
Metis partitions destroy any structure anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util import as_float_array, as_int_array, check_positive


@dataclass(frozen=True)
class QuadMesh:
    """An unstructured mesh of quadrilateral cells.

    Attributes
    ----------
    node_x, node_y:
        Node coordinates, shape ``(num_nodes,)``.
    cell_nodes:
        Counter-clockwise node ids per cell, shape ``(num_cells, 4)``.
    nx, ny:
        Logical extents when the mesh was generated structured; ``0`` for a
        genuinely unstructured mesh.  Only used for fast-path partitioners.
    """

    node_x: np.ndarray
    node_y: np.ndarray
    cell_nodes: np.ndarray
    nx: int = 0
    ny: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_x", as_float_array(self.node_x, "node_x"))
        object.__setattr__(self, "node_y", as_float_array(self.node_y, "node_y"))
        object.__setattr__(
            self, "cell_nodes", as_int_array(self.cell_nodes, "cell_nodes")
        )
        if self.node_x.shape != self.node_y.shape or self.node_x.ndim != 1:
            raise ValueError("node_x and node_y must be 1-D arrays of equal length")
        if self.cell_nodes.ndim != 2 or self.cell_nodes.shape[1] != 4:
            raise ValueError("cell_nodes must have shape (num_cells, 4)")
        if self.cell_nodes.size:
            lo = int(self.cell_nodes.min())
            hi = int(self.cell_nodes.max())
            if lo < 0 or hi >= self.num_nodes:
                raise ValueError(
                    f"cell_nodes references nodes outside [0, {self.num_nodes})"
                )

    @property
    def num_nodes(self) -> int:
        """Number of mesh nodes."""
        return int(self.node_x.shape[0])

    @property
    def num_cells(self) -> int:
        """Number of quadrilateral cells."""
        return int(self.cell_nodes.shape[0])

    @property
    def is_structured(self) -> bool:
        """Whether this mesh retains its logically-rectangular metadata."""
        return self.nx > 0 and self.ny > 0

    def cell_ij(self) -> tuple[np.ndarray, np.ndarray]:
        """Return structured ``(i, j)`` indices per cell (structured meshes only)."""
        if not self.is_structured:
            raise ValueError("mesh does not carry structured metadata")
        cells = np.arange(self.num_cells)
        return cells % self.nx, cells // self.nx


def structured_quad_mesh(
    nx: int,
    ny: int,
    width: float = 1.0,
    height: float = 1.0,
    x0: float = 0.0,
    y0: float = 0.0,
) -> QuadMesh:
    """Build a uniform ``nx`` × ``ny`` structured quad mesh.

    Cell ``(i, j)`` (column ``i`` counted from the rotation axis at
    ``x = x0``, row ``j`` from the bottom) has id ``j * nx + i``; node
    ``(i, j)`` has id ``j * (nx + 1) + i``.  Cells are numbered so that the
    x direction is *radial* in the paper's cylindrical interpretation.
    """
    check_positive(nx, "nx")
    check_positive(ny, "ny")
    check_positive(width, "width")
    check_positive(height, "height")

    xs = np.linspace(x0, x0 + width, nx + 1)
    ys = np.linspace(y0, y0 + height, ny + 1)
    grid_x, grid_y = np.meshgrid(xs, ys)  # shape (ny+1, nx+1), row-major by j
    node_x = grid_x.ravel()
    node_y = grid_y.ravel()

    i = np.tile(np.arange(nx), ny)
    j = np.repeat(np.arange(ny), nx)
    sw = j * (nx + 1) + i
    se = sw + 1
    ne = se + (nx + 1)
    nw = sw + (nx + 1)
    cell_nodes = np.column_stack([sw, se, ne, nw])

    return QuadMesh(node_x=node_x, node_y=node_y, cell_nodes=cell_nodes, nx=nx, ny=ny)
