"""Partition-boundary census: shared faces, ghost nodes, and ownership.

Section 2 of the paper: "ghost nodes" are the nodes whose faces lie on
boundaries between processors; every ghost node is *local* to (owned by)
exactly one processor and *remote* to all others that share it.  Boundary-
exchange message sizes depend on the number of shared faces per material and
on ghost nodes touching more than one material (Section 4.1); ghost-node
update sizes depend on local/remote ownership per processor pair
(Section 4.2).  :func:`cut_face_tally` counts the shared faces and
multi-material nodes of an arbitrary partition per directed rank link — the
tally :func:`~repro.hydro.workload.build_workload_census` reads — and
:func:`boundary_census` views the same tally per rank pair, with each
pair's face ids, ghost nodes and ownership.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.connectivity import FaceTable
from repro.mesh.deck import NUM_MATERIALS
from repro.mesh.grid import QuadMesh
from repro.util import as_int_array, bincount_fixed, sorted_unique


@dataclass(frozen=True)
class PairBoundary:
    """Census of the boundary between one pair of ranks (``rank_a < rank_b``).

    Attributes
    ----------
    face_ids:
        Mesh face ids along the shared boundary.
    faces_by_material:
        Shape ``(2, NUM_MATERIALS)``: row 0 counts boundary faces by the
        material of the ``rank_a``-side cell, row 1 by the ``rank_b`` side.
    ghost_nodes:
        Unique node ids on the shared boundary.
    owned_by_a, owned_by_b, owned_by_other:
        How many ghost nodes each side owns (ownership = minimum incident
        rank over the whole mesh, so corner nodes may belong to a third rank).
    multi_material_nodes:
        Shape ``(2,)``: ghost nodes incident to faces of more than one
        material on the a-side / b-side respectively (these enlarge the first
        two boundary-exchange messages by 12 bytes each, Section 4.1).
    """

    rank_a: int
    rank_b: int
    face_ids: np.ndarray
    faces_by_material: np.ndarray
    ghost_nodes: np.ndarray
    owned_by_a: int
    owned_by_b: int
    owned_by_other: int
    multi_material_nodes: np.ndarray

    @property
    def num_faces(self) -> int:
        """Total shared faces, independent of material."""
        return int(self.face_ids.shape[0])

    @property
    def num_ghost_nodes(self) -> int:
        """Total ghost nodes on this pair boundary."""
        return int(self.ghost_nodes.shape[0])

    def side_index(self, rank: int) -> int:
        """Return 0/1 depending on whether ``rank`` is ``rank_a``/``rank_b``."""
        if rank == self.rank_a:
            return 0
        if rank == self.rank_b:
            return 1
        raise ValueError(f"rank {rank} is not part of pair ({self.rank_a}, {self.rank_b})")

    def local_ghost_count(self, rank: int) -> int:
        """Ghost nodes on this boundary owned by ``rank``."""
        return self.owned_by_a if self.side_index(rank) == 0 else self.owned_by_b

    def remote_ghost_count(self, rank: int) -> int:
        """Ghost nodes on this boundary *not* owned by ``rank``."""
        return self.num_ghost_nodes - self.local_ghost_count(rank)


@dataclass(frozen=True)
class BoundaryCensus:
    """All pair boundaries of a partition, plus per-rank lookup helpers."""

    num_ranks: int
    pairs: dict
    #: node id → owning rank for every mesh node (not just ghosts).
    owners: np.ndarray

    def neighbors(self, rank: int) -> list:
        """Sorted neighbour ranks of ``rank``."""
        out = []
        for (a, b) in self.pairs:
            if a == rank:
                out.append(b)
            elif b == rank:
                out.append(a)
        return sorted(out)

    def pair(self, rank_a: int, rank_b: int) -> PairBoundary:
        """The :class:`PairBoundary` between two ranks (order-insensitive)."""
        key = (min(rank_a, rank_b), max(rank_a, rank_b))
        return self.pairs[key]

    def total_boundary_faces(self, rank: int) -> int:
        """Sum of shared faces over all of ``rank``'s neighbours."""
        return sum(self.pair(rank, n).num_faces for n in self.neighbors(rank))

    def neighbor_count_stats(self) -> tuple[float, int, int]:
        """Return (mean, min, max) neighbour counts over ranks with cells."""
        counts = np.zeros(self.num_ranks, dtype=np.int64)
        for (a, b) in self.pairs:
            counts[a] += 1
            counts[b] += 1
        active = counts[counts > 0]
        if active.size == 0:
            return (0.0, 0, 0)
        return (float(active.mean()), int(active.min()), int(active.max()))


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
    ``(src, dst)``; entries are sorted by ``(link, face id)``.

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
    entry_link, entry_face:
        Link and mesh face id of every (face, side) entry.
    """

    src: np.ndarray
    dst: np.ndarray
    faces_by_material: np.ndarray
    multi_material_nodes: np.ndarray
    entry_link: np.ndarray
    entry_face: np.ndarray

    @property
    def num_links(self) -> int:
        return int(self.src.shape[0])


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
    entry_face = np.concatenate([fid, fid])[order]
    material = cell_material[mine]

    new_link = np.ones(key.shape[0], dtype=bool)
    new_link[1:] = key[1:] != key[:-1]
    link_key = key[new_link]
    entry_link = np.cumsum(new_link) - 1
    num_links = link_key.shape[0]
    faces_by_material = bincount_fixed(
        entry_link * NUM_MATERIALS + material, num_links * NUM_MATERIALS
    ).reshape(num_links, NUM_MATERIALS)

    # A node is multi-material on a link when the link's faces through it
    # carry two or more distinct src-side materials.
    link_node = (
        np.repeat(entry_link, 2) * np.int64(mesh.num_nodes)
        + faces.face_nodes[entry_face].ravel()
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
        entry_link=entry_link,
        entry_face=entry_face,
    )


def boundary_census(
    mesh: QuadMesh,
    faces: FaceTable,
    cell_material: np.ndarray,
    cell_rank: np.ndarray,
    num_ranks: int,
) -> BoundaryCensus:
    """The partition-boundary census, one :class:`PairBoundary` per pair.

    A per-pair view of :func:`cut_face_tally`: side 0 of pair ``(a, b)``
    is link ``a → b`` and side 1 is link ``b → a``, so the face and
    multi-material counts are the ones the workload census reads.

    Parameters
    ----------
    mesh, faces:
        The mesh and its face table.
    cell_material:
        Material id per cell.
    cell_rank:
        Partition assignment per cell, values in ``[0, num_ranks)``.
    num_ranks:
        Number of ranks in the partition.
    """
    tally = cut_face_tally(mesh, faces, cell_material, cell_rank, num_ranks)
    owners = node_owners(mesh, cell_rank)
    bounds = np.searchsorted(tally.entry_link, np.arange(tally.num_links + 1))
    back = reverse_links(tally.src, tally.dst, num_ranks)
    pairs: dict = {}
    for k in np.flatnonzero(tally.src < tally.dst).tolist():
        a, b, sides = int(tally.src[k]), int(tally.dst[k]), [k, int(back[k])]
        fids = tally.entry_face[bounds[k]:bounds[k + 1]]
        ghost = np.unique(faces.face_nodes[fids])
        node_owner = owners[ghost]
        owned_a = int(np.count_nonzero(node_owner == a))
        owned_b = int(np.count_nonzero(node_owner == b))
        pairs[(a, b)] = PairBoundary(
            rank_a=a,
            rank_b=b,
            face_ids=fids,
            faces_by_material=tally.faces_by_material[sides],
            ghost_nodes=ghost,
            owned_by_a=owned_a,
            owned_by_b=owned_b,
            owned_by_other=int(ghost.shape[0] - owned_a - owned_b),
            multi_material_nodes=tally.multi_material_nodes[sides],
        )
    return BoundaryCensus(num_ranks=num_ranks, pairs=pairs, owners=owners)
