"""Columnar link census: the one form every census-wide pricing reads.

The object-based :class:`~repro.hydro.workload.WorkloadCensus` carries one
Python object per link — perfect for the validation-scale meshes, hopeless
at 10^5–10^6 ranks.  :class:`SparseLinkCensus` stores the same information
*columnar* (one numpy array per field, O(edges) memory).  The
mesh-specific model
(:meth:`~repro.perfmodel.mesh_specific.MeshSpecificModel.predict`) and the
placement graphs (:func:`~repro.placement.sparse.rank_comm_bytes`,
:func:`~repro.placement.sparse.rank_pair_times`) price only this form; a
workload census is converted once, at entry, by
:func:`as_link_census`.  At a million ranks a full prediction completes in
seconds without ever materialising a ``(P, P)`` array.

Equivalence contract: :func:`link_wire_times` sums each link's priced
messages in the serial order of the scalar per-neighbour helpers
(:func:`~repro.perfmodel.boundary.priced_tally_time`,
:func:`~repro.perfmodel.ghostmodel.priced_ghost_time`), so pricing a
converted census is bitwise identical to pricing its links one by one.
``tests/goldens/mesh_model.json`` pins the predictions of the object-walk
implementation this replaced; ``tests/test_model_golden.py`` and
``tests/test_sparse_dense_equivalence.py`` check them bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hydro.workload import NUM_EXCHANGE_GROUPS
from repro.machine.costdb import (
    BOUNDARY_BYTES_PER_FACE,
    BOUNDARY_BYTES_PER_MULTI_NODE,
    BOUNDARY_MSGS_PER_STEP,
    NUM_MATERIALS,
)
from repro.machine.network import NetworkModel
from repro.perfmodel.ghostmodel import GHOST_PHASE_BYTES

#: Edges priced per vectorized chunk — bounds peak memory at large P
#: (a chunk touches ~10 temporaries of `chunk × groups` float64).
DEFAULT_CHUNK_EDGES = 1 << 19


@dataclass(frozen=True)
class SparseLinkCensus:
    """Columnar per-link workload census (O(edges) memory).

    Directed boundary/ghost link arrays are rank-major and
    neighbour-sorted, like the workload census's link lists: entry ``k``
    of the boundary arrays is the link *owned* by ``be_src[k]`` toward
    ``be_dst[k]``, with its per-exchange-group face and multi-material
    ghost-node counts; ghost entries carry the locally-owned/remote node
    counts.  The material census is stored deduplicated: row
    ``cell_profiles[profile_of_rank[r]]`` is rank ``r``'s per-material
    cell counts (weak-scaled machines have a handful of distinct
    profiles, so this is O(1) instead of O(P) for the synthetic
    generator).
    """

    num_ranks: int
    be_src: np.ndarray
    be_dst: np.ndarray
    be_faces: np.ndarray
    be_multi: np.ndarray
    gn_src: np.ndarray
    gn_dst: np.ndarray
    gn_local: np.ndarray
    gn_remote: np.ndarray
    cell_profiles: np.ndarray
    profile_of_rank: np.ndarray

    def __post_init__(self) -> None:
        if self.num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        for name in ("be_src", "be_dst", "gn_src", "gn_dst", "profile_of_rank"):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=np.int64)
            )
        for name in ("be_faces", "be_multi", "gn_local", "gn_remote",
                     "cell_profiles"):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=np.float64)
            )
        eb = self.be_src.shape[0]
        if self.be_dst.shape != (eb,):
            raise ValueError("boundary endpoint arrays must align")
        if self.be_faces.shape != (eb, NUM_EXCHANGE_GROUPS) or (
            self.be_multi.shape != (eb, NUM_EXCHANGE_GROUPS)
        ):
            raise ValueError(
                "boundary tallies must be (edges, NUM_EXCHANGE_GROUPS)"
            )
        eg = self.gn_src.shape[0]
        if (
            self.gn_dst.shape != (eg,)
            or self.gn_local.shape != (eg,)
            or self.gn_remote.shape != (eg,)
        ):
            raise ValueError("ghost link arrays must align")
        for ends in (self.be_src, self.be_dst, self.gn_src, self.gn_dst):
            if ends.size and (ends.min() < 0 or ends.max() >= self.num_ranks):
                raise ValueError("link endpoints out of rank range")
        for counts in (self.be_faces, self.be_multi, self.gn_local,
                       self.gn_remote, self.cell_profiles):
            if np.any(counts < 0):
                raise ValueError("census counts must be non-negative")
        if self.profile_of_rank.shape != (self.num_ranks,):
            raise ValueError("profile_of_rank must map every rank")
        if self.cell_profiles.ndim != 2:
            raise ValueError("cell_profiles must be (profiles, materials)")
        if self.profile_of_rank.size and (
            self.profile_of_rank.min() < 0
            or self.profile_of_rank.max() >= self.cell_profiles.shape[0]
        ):
            raise ValueError("profile_of_rank indexes outside cell_profiles")

    @property
    def num_boundary_links(self) -> int:
        return int(self.be_src.size)

    @property
    def num_ghost_links(self) -> int:
        return int(self.gn_src.size)

    def material_counts(self) -> np.ndarray:
        """The full ``(P, materials)`` census (small-P reference only)."""
        return self.cell_profiles[self.profile_of_rank]

    @classmethod
    def from_workload_census(cls, census) -> "SparseLinkCensus":
        """Exact columnar form of an object-based workload census.

        Links keep the census order — rank-major, each rank's boundary
        links then its ghost links, each sorted by neighbour — and
        per-group face/multi counts accumulate in the census's group
        order, so pricing the result reproduces the per-link tallies
        value for value.
        """
        be_src: list = []
        be_dst: list = []
        group_link: list = []
        group_id: list = []
        group_faces: list = []
        group_multi: list = []
        gn_src: list = []
        gn_dst: list = []
        gn_local: list = []
        gn_remote: list = []
        for rank in range(census.num_ranks):
            for bl in census.boundary_links[rank]:
                link = len(be_src)
                be_src.append(rank)
                be_dst.append(bl.nbr_rank)
                for (group, f, g) in bl.mine.groups:
                    group_link.append(link)
                    group_id.append(group)
                    group_faces.append(f)
                    group_multi.append(g)
            for gl in census.ghost_links[rank]:
                gn_src.append(rank)
                gn_dst.append(gl.nbr_rank)
                gn_local.append(gl.owned_by_me)
                gn_remote.append(gl.not_owned_by_me)
        be_faces = np.zeros((len(be_src), NUM_EXCHANGE_GROUPS))
        be_multi = np.zeros_like(be_faces)
        cell = (
            np.array(group_link, dtype=np.int64),
            np.array(group_id, dtype=np.int64),
        )
        np.add.at(be_faces, cell, np.array(group_faces, dtype=np.float64))
        np.add.at(be_multi, cell, np.array(group_multi, dtype=np.float64))
        cells = np.asarray(census.material_counts, dtype=np.float64)
        profiles, inverse = np.unique(cells, axis=0, return_inverse=True)
        return cls(
            num_ranks=census.num_ranks,
            be_src=np.array(be_src, dtype=np.int64),
            be_dst=np.array(be_dst, dtype=np.int64),
            be_faces=be_faces,
            be_multi=be_multi,
            gn_src=np.array(gn_src, dtype=np.int64),
            gn_dst=np.array(gn_dst, dtype=np.int64),
            gn_local=np.array(gn_local, dtype=np.float64),
            gn_remote=np.array(gn_remote, dtype=np.float64),
            cell_profiles=profiles,
            profile_of_rank=inverse.astype(np.int64).reshape(-1),
        )


def as_link_census(census) -> SparseLinkCensus:
    """``census`` in columnar form, converting a workload census once."""
    if isinstance(census, SparseLinkCensus):
        return census
    return SparseLinkCensus.from_workload_census(census)


def _near_square_grid(num_ranks: int) -> tuple[int, int]:
    """``(width, height)`` — the divisor pair closest to square."""
    width = 1
    for cand in range(int(np.sqrt(num_ranks)), 0, -1):
        if num_ranks % cand == 0:
            width = cand
            break
    return width, num_ranks // width


def weak_scaled_census(
    num_ranks: int,
    cells_per_rank: float = 8192.0,
    faces_per_side: float = 90.0,
    multi_frac: float = 0.125,
    ghost_per_side: float = 128.0,
) -> SparseLinkCensus:
    """A weak-scaled 2-D rank grid at any P — the extrapolation workload.

    Every rank owns the same subgrid (the paper's weak-scaling premise:
    problem size grows with the machine), so the mesh is a
    ``width × height`` rank grid with 4-neighbour boundary and ghost
    links and a single material profile.  Construction is fully
    vectorized: O(P) work and memory, no Python per-rank objects —
    usable at 10^6 ranks.

    ``faces_per_side`` splits across the exchange groups in fixed
    proportions; ``multi_frac`` of each group's faces carry the
    multi-material surcharge.
    """
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    if cells_per_rank < 0 or faces_per_side < 0 or ghost_per_side < 0:
        raise ValueError("census magnitudes must be non-negative")
    if not 0.0 <= multi_frac <= 1.0:
        raise ValueError("multi_frac must lie in [0, 1]")
    width, height = _near_square_grid(num_ranks)
    ranks = np.arange(num_ranks, dtype=np.int64)
    x = ranks % width
    y = ranks // width
    has_right = x < width - 1
    has_down = y < height - 1
    right = ranks[has_right]
    down = ranks[has_down]
    # Directed links, rank-major and neighbour-sorted like a workload census.
    src = np.concatenate([right, right + 1, down, down + width])
    dst = np.concatenate([right + 1, right, down + width, down])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]

    group_split = np.array([0.5, 0.3, 0.2])[:NUM_EXCHANGE_GROUPS]
    group_split = group_split / group_split.sum()
    faces_row = faces_per_side * group_split
    edges = src.size
    be_faces = np.broadcast_to(faces_row, (edges, NUM_EXCHANGE_GROUPS)).copy()
    be_multi = multi_frac * be_faces

    material_split = np.full(NUM_MATERIALS, 1.0 / NUM_MATERIALS)
    profile = (cells_per_rank * material_split)[None, :]
    return SparseLinkCensus(
        num_ranks=num_ranks,
        be_src=src,
        be_dst=dst,
        be_faces=be_faces,
        be_multi=be_multi,
        gn_src=src.copy(),
        gn_dst=dst.copy(),
        gn_local=np.full(edges, float(ghost_per_side)),
        gn_remote=np.full(edges, 0.75 * ghost_per_side),
        cell_profiles=profile,
        profile_of_rank=np.zeros(num_ranks, dtype=np.int64),
    )


# ----------------------------------------------------------------- pricing


def link_bytes(census: SparseLinkCensus) -> tuple[np.ndarray, np.ndarray]:
    """Per-link bytes ``(boundary, ghost)`` — the comm-graph weights.

    Matches ``(counts · sizes).sum()`` over each boundary link's Table-3
    tally (with surcharge) and ``sizes.sum()`` over each ghost link's six
    messages; byte counts are integer-valued so the vectorized sums are
    exact.
    """
    faces, multi = census.be_faces, census.be_multi
    positive = faces > 0
    big = BOUNDARY_BYTES_PER_FACE * faces + BOUNDARY_BYTES_PER_MULTI_NODE * multi
    small = BOUNDARY_BYTES_PER_FACE * faces
    per_group = np.where(positive, 2.0 * big + 4.0 * small, 0.0)
    final = BOUNDARY_BYTES_PER_FACE * faces.sum(axis=1)
    be_bytes = per_group.sum(axis=1) + BOUNDARY_MSGS_PER_STEP * final
    phase_bytes = np.array(GHOST_PHASE_BYTES, dtype=np.float64)
    gn_bytes = (census.gn_local + census.gn_remote) * phase_bytes.sum()
    return be_bytes, gn_bytes


def link_wire_times(
    census: SparseLinkCensus,
    network: NetworkModel,
    include_multi_surcharge: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-link wire time ``(boundary, ghost)`` on one network level.

    Each boundary link is its Table-3 tally priced through ``Tmsg`` and
    summed serially in tally order — per active exchange group ``+ 2·T(big)``
    then ``+ 4·T(small)``, then ``+ 6·T(final)`` — and each ghost link
    ``+ (T(local) + T(remote))`` per phase in phase order: Equations
    (5)–(7) with exactly the association of the scalar helpers
    :func:`~repro.perfmodel.boundary.priced_tally_time` and
    :func:`~repro.perfmodel.ghostmodel.priced_ghost_time`.  Links are
    priced :data:`DEFAULT_CHUNK_EDGES` at a time to bound the
    temporaries.
    """
    be_time = np.empty(census.num_boundary_links, dtype=np.float64)
    for lo in range(0, census.num_boundary_links, DEFAULT_CHUNK_EDGES):
        hi = min(lo + DEFAULT_CHUNK_EDGES, census.num_boundary_links)
        faces = census.be_faces[lo:hi]
        small = BOUNDARY_BYTES_PER_FACE * faces
        big = small
        if include_multi_surcharge:
            big = small + BOUNDARY_BYTES_PER_MULTI_NODE * census.be_multi[lo:hi]
        t_big = network.tmsg_many(big)
        t_small = network.tmsg_many(small)
        t_final = network.tmsg_many(BOUNDARY_BYTES_PER_FACE * faces.sum(axis=1))
        acc = np.zeros(hi - lo, dtype=np.float64)
        for group in range(faces.shape[1]):
            step = (acc + 2.0 * t_big[:, group]) + 4.0 * t_small[:, group]
            acc = np.where(faces[:, group] > 0, step, acc)
        be_time[lo:hi] = acc + float(BOUNDARY_MSGS_PER_STEP) * t_final

    gn_time = np.empty(census.num_ghost_links, dtype=np.float64)
    for lo in range(0, census.num_ghost_links, DEFAULT_CHUNK_EDGES):
        hi = min(lo + DEFAULT_CHUNK_EDGES, census.num_ghost_links)
        local = census.gn_local[lo:hi]
        remote = census.gn_remote[lo:hi]
        acc = np.zeros(hi - lo, dtype=np.float64)
        for nbytes in GHOST_PHASE_BYTES:
            acc = acc + (
                network.tmsg_many(nbytes * local)
                + network.tmsg_many(nbytes * remote)
            )
        gn_time[lo:hi] = acc
    return be_time, gn_time


def link_message_counts(census: SparseLinkCensus) -> tuple[np.ndarray, np.ndarray]:
    """Messages per link ``(boundary, ghost)``: one sextet per active
    exchange group plus the all-faces sextet; two per ghost phase."""
    active = np.count_nonzero(census.be_faces > 0, axis=1)
    be_msgs = float(BOUNDARY_MSGS_PER_STEP) * (active + 1).astype(np.float64)
    gn_msgs = np.full(census.num_ghost_links, 2.0 * len(GHOST_PHASE_BYTES))
    return be_msgs, gn_msgs
