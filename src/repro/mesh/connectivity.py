"""Face tables, dual graphs, and node incidence for quad meshes.

Everything here is vectorised: face extraction for the 819 200-cell "large"
deck must run in well under a second, because the benchmark harness rebuilds
meshes for every table in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.grid import QuadMesh

#: Local edge order within a quad: (node a slot, node b slot) per side,
#: counter-clockwise starting from the bottom edge.
_QUAD_EDGES = np.array([[0, 1], [1, 2], [2, 3], [3, 0]], dtype=np.int64)


@dataclass(frozen=True)
class FaceTable:
    """Unique faces of a quad mesh.

    Attributes
    ----------
    face_nodes:
        Node pair per face, shape ``(num_faces, 2)``, with
        ``face_nodes[:, 0] < face_nodes[:, 1]`` (canonical order).
    face_cells:
        The one or two cells incident to each face, shape ``(num_faces, 2)``;
        exterior-boundary faces carry ``-1`` in column 1.  Column 0 is always
        the lower cell id.
    cell_faces:
        Face ids per cell side, shape ``(num_cells, 4)``, sides ordered as
        bottom/right/top/left of the counter-clockwise node loop.
    """

    face_nodes: np.ndarray
    face_cells: np.ndarray
    cell_faces: np.ndarray

    @property
    def num_faces(self) -> int:
        """Total number of unique faces."""
        return int(self.face_nodes.shape[0])

    def interior_mask(self) -> np.ndarray:
        """Boolean mask of faces shared by two cells."""
        return self.face_cells[:, 1] >= 0


def build_face_table(mesh: QuadMesh) -> FaceTable:
    """Extract the unique faces of ``mesh`` with cell incidence.

    Faces are deduplicated by their canonical (sorted) node pair; each
    interior face is incident to exactly two cells.  A face shared by more
    than two cells indicates a broken mesh and raises ``ValueError``.
    """
    ncells = mesh.num_cells
    # All 4*ncells directed edges, then canonicalise the node order.
    a = mesh.cell_nodes[:, _QUAD_EDGES[:, 0]]  # (ncells, 4)
    b = mesh.cell_nodes[:, _QUAD_EDGES[:, 1]]
    lo = np.minimum(a, b).ravel()
    hi = np.maximum(a, b).ravel()

    # Encode each edge as a single integer key for sorting/uniquing.
    key = lo * np.int64(mesh.num_nodes) + hi
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    unique_key, first_idx, counts = np.unique(
        sorted_key, return_index=True, return_counts=True
    )
    if counts.size and counts.max() > 2:
        raise ValueError("non-manifold mesh: a face is shared by more than two cells")

    num_faces = unique_key.shape[0]
    face_nodes = np.column_stack(
        [unique_key // mesh.num_nodes, unique_key % mesh.num_nodes]
    )

    # Map each of the 4*ncells edge slots to its face id.
    face_of_slot = np.empty(4 * ncells, dtype=np.int64)
    face_ids_sorted = np.repeat(np.arange(num_faces), counts)
    face_of_slot[order] = face_ids_sorted
    cell_faces = face_of_slot.reshape(ncells, 4)

    # Cell incidence: for each face, the owning cell(s).
    owner_cell_sorted = order // 4  # cell id of each sorted edge slot
    face_cells = np.full((num_faces, 2), -1, dtype=np.int64)
    face_cells[:, 0] = owner_cell_sorted[first_idx]
    second = counts == 2
    face_cells[second, 1] = owner_cell_sorted[first_idx[second] + 1]
    # Canonical order: lower cell id first (cells are appended in sorted edge
    # order, which is not cell order).
    swap = second & (face_cells[:, 1] < face_cells[:, 0])
    face_cells[swap] = face_cells[swap][:, ::-1]

    return FaceTable(face_nodes=face_nodes, face_cells=face_cells, cell_faces=cell_faces)


def build_dual_graph(faces: FaceTable, num_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Build the cell-adjacency (dual) graph in CSR form.

    Returns
    -------
    indptr, indices:
        CSR row pointers (``num_cells + 1``) and column indices; the graph is
        symmetric and has one edge per interior face.
    """
    interior = faces.interior_mask()
    u = faces.face_cells[interior, 0]
    v = faces.face_cells[interior, 1]
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    indptr = np.zeros(num_cells + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst.astype(np.int64)

