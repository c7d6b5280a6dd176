"""Weighted CSR graphs and the contraction primitive for multilevel
partitioning.

The partitioner works on the *dual graph* of the mesh (one vertex per cell,
one edge per interior face), the same abstraction Metis uses for
``METIS_PartMeshDual``-style mesh partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.connectivity import FaceTable, build_dual_graph
from repro.mesh.grid import QuadMesh
from repro.util import as_int_array


@dataclass(frozen=True)
class CSRGraph:
    """An undirected graph with integer vertex and edge weights, CSR layout.

    Both directions of every edge are stored, so ``indices[indptr[v]:
    indptr[v+1]]`` lists all neighbours of ``v`` and ``eweights`` aligns with
    ``indices``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    eweights: np.ndarray
    vweights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "indptr", as_int_array(self.indptr, "indptr"))
        object.__setattr__(self, "indices", as_int_array(self.indices, "indices"))
        object.__setattr__(self, "eweights", as_int_array(self.eweights, "eweights"))
        object.__setattr__(self, "vweights", as_int_array(self.vweights, "vweights"))
        if self.indptr.ndim != 1 or self.indptr[0] != 0:
            raise ValueError("indptr must be 1-D and start at 0")
        if self.indices.shape != self.eweights.shape:
            raise ValueError("indices and eweights must align")
        if self.indptr[-1] != self.indices.shape[0]:
            raise ValueError("indptr[-1] must equal the number of stored arcs")
        if self.vweights.shape[0] != self.num_vertices:
            raise ValueError("vweights must have one entry per vertex")

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return int(self.indptr.shape[0] - 1)

    @property
    def total_vweight(self) -> int:
        """Sum of vertex weights."""
        return int(self.vweights.sum())

    def degree(self, v: int) -> int:
        """Number of neighbours of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of vertex ``v``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

def graph_from_edges(
    num_vertices: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray | None = None,
    vweights: np.ndarray | None = None,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from undirected edge lists.

    Parallel edges are merged by summing weights; self-loops are dropped.
    """
    u = as_int_array(u, "u")
    v = as_int_array(v, "v")
    if u.shape != v.shape:
        raise ValueError("u and v must have equal shapes")
    w = np.ones_like(u) if w is None else as_int_array(w, "w")
    if w.shape != u.shape:
        raise ValueError("w must align with u and v")

    keep = u != v
    u, v, w = u[keep], v[keep], w[keep]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    key = lo * np.int64(num_vertices) + hi
    order = np.argsort(key, kind="stable")
    key, w = key[order], w[order]
    start = np.flatnonzero(np.diff(key, prepend=-1))  # run heads; keys are >= 0
    unique_key = key[start]
    merged_w = np.add.reduceat(w, start) if key.size else w
    lo = unique_key // num_vertices
    hi = unique_key % num_vertices

    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    arc_w = np.concatenate([merged_w, merged_w])
    order = np.argsort(src, kind="stable")
    src, dst, arc_w = src[order], dst[order], arc_w[order]
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])

    if vweights is None:
        vweights = np.ones(num_vertices, dtype=np.int64)
    return CSRGraph(indptr=indptr, indices=dst, eweights=arc_w, vweights=vweights)


def dual_graph_of_mesh(mesh: QuadMesh, faces: FaceTable) -> CSRGraph:
    """The cell-adjacency graph of a mesh with unit weights."""
    indptr, indices = build_dual_graph(faces, mesh.num_cells)
    eweights = np.ones_like(indices)
    vweights = np.ones(mesh.num_cells, dtype=np.int64)
    return CSRGraph(indptr=indptr, indices=indices, eweights=eweights, vweights=vweights)


def contract(graph: CSRGraph, match: np.ndarray) -> tuple[CSRGraph, np.ndarray]:
    """Contract matched vertex pairs into a coarse graph.

    Parameters
    ----------
    graph:
        The fine graph.
    match:
        ``match[i]`` is ``i``'s partner (or ``i`` itself when unmatched);
        must be an involution (``match[match[i]] == i``).

    Returns
    -------
    coarse, mapping:
        The contracted graph and the fine→coarse vertex map.
    """
    match = as_int_array(match, "match")
    n = graph.num_vertices
    if match.shape != (n,):
        raise ValueError("match must have one entry per vertex")
    if not np.array_equal(match[match], np.arange(n)):
        raise ValueError("match must be an involution")

    # The lower id of each pair represents it; coarse ids follow rep order.
    is_rep = match >= np.arange(n)
    mapping = (np.cumsum(is_rep) - 1)[np.minimum(np.arange(n), match)]
    num_coarse = int(np.count_nonzero(is_rep))

    vweights = np.zeros(num_coarse, dtype=np.int64)
    np.add.at(vweights, mapping, graph.vweights)

    src = np.repeat(mapping, np.diff(graph.indptr))
    dst = mapping[graph.indices]
    # Each undirected fine edge appears as two arcs; keep one direction to
    # avoid double-counting weights in graph_from_edges.
    keep = src < dst
    coarse = graph_from_edges(
        num_coarse, src[keep], dst[keep], graph.eweights[keep], vweights
    )
    return coarse, mapping
