"""Partition-boundary census: shared faces, ghost nodes, and ownership.

Section 2 of the paper: "ghost nodes" are the nodes whose faces lie on
boundaries between processors; every ghost node is *local* to (owned by)
exactly one processor and *remote* to all others that share it.  Boundary-
exchange message sizes depend on the number of shared faces per material and
on ghost nodes touching more than one material (Section 4.1); ghost-node
update sizes depend on local/remote ownership per processor pair
(Section 4.2).  :func:`cut_face_tally` counts the shared faces and
multi-material nodes of an arbitrary partition per directed rank link, and
:func:`shared_node_pairs` lists the ghost nodes of every rank pair with
their owners; :func:`~repro.hydro.workload.build_workload_census` reads
both into the one partition-boundary census.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.connectivity import FaceTable
from repro.mesh.deck import NUM_MATERIALS
from repro.mesh.grid import QuadMesh
from repro.util import as_int_array, bincount_fixed, sorted_unique


def node_owners(mesh: QuadMesh, cell_rank: np.ndarray) -> np.ndarray:
    """Assign every node to the minimum rank among its incident cells.

    This mirrors the paper's rule that each ghost node is "local" to exactly
    one processor; interior nodes trivially belong to their only rank.
    """
    cell_rank = as_int_array(cell_rank, "cell_rank")
    if cell_rank.shape != (mesh.num_cells,):
        raise ValueError("cell_rank must have one entry per cell")
    owners = np.full(mesh.num_nodes, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(owners, mesh.cell_nodes.ravel(), np.repeat(cell_rank, 4))
    if np.any(owners == np.iinfo(np.int64).max):
        raise ValueError("mesh has nodes not referenced by any cell")
    return owners


def reverse_links(src: np.ndarray, dst: np.ndarray, num_ranks: int) -> np.ndarray:
    """Row of each directed link's reverse link (``dst → src``), for links
    sorted by ``(src, dst)`` whose reverses are all present."""
    keys = src * np.int64(num_ranks) + dst
    return np.searchsorted(keys, dst * np.int64(num_ranks) + src)


def shared_node_pairs(
    mesh: QuadMesh, cell_rank: np.ndarray, num_ranks: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every node shared by two ranks, once per pair of its ranks.

    Returns ``(node, low, high, owner)``: one entry per shared node and
    pair ``low < high`` of the ranks with a cell on it, in ascending node
    order, with the node's owner (its lowest rank, as in
    :func:`node_owners`).  The sorted ``(node, rank)`` incidences give
    each node's ranks as one run, and every pair within a run is expanded
    with array arithmetic.
    """
    entries = sorted_unique(
        mesh.cell_nodes.ravel() * np.int64(num_ranks)
        + np.repeat(cell_rank, mesh.cell_nodes.shape[1])
    )
    node_of = entries // num_ranks
    rank_of = entries % num_ranks
    n = entries.shape[0]
    first = np.ones(n, dtype=bool)
    first[1:] = node_of[1:] != node_of[:-1]
    start = np.flatnonzero(first)
    size = np.diff(np.append(start, n))
    # Entry e pairs with the `later[e]` entries after it in its run.
    later = np.repeat(start + size, size) - np.arange(n) - 1
    lo = np.repeat(np.arange(n), later)
    hi = lo + 1 + np.arange(lo.shape[0]) - np.repeat(np.cumsum(later) - later, later)
    owner = np.repeat(rank_of[start], size)
    return node_of[lo], rank_of[lo], rank_of[hi], owner[lo]


@dataclass(frozen=True)
class CutFaceTally:
    """Every cut face, tallied per directed rank link.

    A face whose two cells sit on ranks ``a`` and ``b`` is seen once from
    each side: by link ``a → b`` with the material of ``a``'s cell and by
    link ``b → a`` with the material of ``b``'s.  Links are sorted by
    ``(src, dst)``.

    Attributes
    ----------
    src, dst:
        Endpoints of each directed link.
    faces_by_material:
        Shape ``(links, NUM_MATERIALS)``: the link's faces counted by the
        material of the ``src``-side cell.
    multi_material_nodes:
        Per link, the nodes of its faces whose ``src``-side faces carry
        more than one material (Section 4.1's 12-byte surcharge).
    """

    src: np.ndarray
    dst: np.ndarray
    faces_by_material: np.ndarray
    multi_material_nodes: np.ndarray


def cut_face_tally(
    mesh: QuadMesh,
    faces: FaceTable,
    cell_material: np.ndarray,
    cell_rank: np.ndarray,
    num_ranks: int,
) -> CutFaceTally:
    """Tally the cut faces of a partition per directed link, array-at-a-time."""
    cell_material = as_int_array(cell_material, "cell_material")
    cell_rank = as_int_array(cell_rank, "cell_rank")
    if cell_rank.size and (cell_rank.min() < 0 or cell_rank.max() >= num_ranks):
        raise ValueError(f"cell_rank values must lie in [0, {num_ranks})")

    interior = np.flatnonzero(faces.interior_mask())
    c0 = faces.face_cells[interior, 0]
    c1 = faces.face_cells[interior, 1]
    cut = cell_rank[c0] != cell_rank[c1]
    fid, c0, c1 = interior[cut], c0[cut], c1[cut]
    mine = np.concatenate([c0, c1])
    theirs = np.concatenate([c1, c0])
    key = cell_rank[mine] * np.int64(num_ranks) + cell_rank[theirs]
    order = np.lexsort((np.concatenate([fid, fid]), key))
    key, mine = key[order], mine[order]
    face_of_entry = np.concatenate([fid, fid])[order]
    material = cell_material[mine]

    new_link = np.ones(key.shape[0], dtype=bool)
    new_link[1:] = key[1:] != key[:-1]
    link_key = key[new_link]
    link_of_entry = np.cumsum(new_link) - 1
    num_links = link_key.shape[0]
    faces_by_material = bincount_fixed(
        link_of_entry * NUM_MATERIALS + material, num_links * NUM_MATERIALS
    ).reshape(num_links, NUM_MATERIALS)

    # A node is multi-material on a link when the link's faces through it
    # carry two or more distinct src-side materials.
    link_node = (
        np.repeat(link_of_entry, 2) * np.int64(mesh.num_nodes)
        + faces.face_nodes[face_of_entry].ravel()
    )
    seen = sorted_unique(link_node * NUM_MATERIALS + np.repeat(material, 2))
    seen //= NUM_MATERIALS
    repeated = seen[1:][seen[1:] == seen[:-1]]
    multi_nodes = sorted_unique(repeated) // mesh.num_nodes
    return CutFaceTally(
        src=link_key // num_ranks,
        dst=link_key % num_ranks,
        faces_by_material=faces_by_material,
        multi_material_nodes=bincount_fixed(multi_nodes, num_links),
    )

