"""Census-wide pricing of the columnar workload census.

:class:`~repro.hydro.workload.WorkloadCensus` holds one numpy array per
link field (O(links) memory), so a full prediction prices every link with
array arithmetic.  The mesh-specific model
(:meth:`~repro.perfmodel.mesh_specific.MeshSpecificModel.predict`) and the
placement graphs (:func:`~repro.placement.sparse.rank_comm_bytes`,
:func:`~repro.placement.sparse.rank_pair_times`) price through this module,
and :func:`weak_scaled_census` builds the census of a weak-scaled machine
directly in columns.  At a million ranks a full prediction completes in
seconds without ever materialising a ``(P, P)`` array.

Equivalence contract: :func:`link_wire_times` sums each link's priced
messages in the serial order of the scalar per-neighbour helpers
(:func:`~repro.perfmodel.boundary.priced_tally_time`,
:func:`~repro.perfmodel.ghostmodel.priced_ghost_time`), so pricing the
census is bitwise identical to pricing its links one by one.
``tests/goldens/mesh_model.json`` pins the predictions;
``tests/test_model_golden.py`` and ``tests/test_sparse_dense_equivalence.py``
check them bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.hydro.workload import NUM_EXCHANGE_GROUPS, WorkloadCensus
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
) -> WorkloadCensus:
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
    return WorkloadCensus(
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


def link_bytes(census: WorkloadCensus) -> tuple[np.ndarray, np.ndarray]:
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
    census: WorkloadCensus,
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


def link_message_counts(census: WorkloadCensus) -> tuple[np.ndarray, np.ndarray]:
    """Messages per link ``(boundary, ghost)``: one sextet per active
    exchange group plus the all-faces sextet; two per ghost phase."""
    active = np.count_nonzero(census.be_faces > 0, axis=1)
    be_msgs = float(BOUNDARY_MSGS_PER_STEP) * (active + 1).astype(np.float64)
    gn_msgs = np.full(census.num_ghost_links, 2.0 * len(GHOST_PHASE_BYTES))
    return be_msgs, gn_msgs
