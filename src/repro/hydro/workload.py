"""Per-rank workload and messaging census for the execution-driven simulation.

The census captures exactly what the discrete-event simulator and the
mesh-specific model charge, without running the numerics:

* the material census (cells per material) for compute charges;
* for phase 2, per directed rank link, the boundary faces per *exchange
  group* on the sending side (identical materials — the two aluminums —
  are combined, as Krak does), plus the ghost nodes touching more than one
  material (they enlarge the first two messages of each sextet);
* for phases 4/5/7, per directed rank link, the shared nodes split by
  ownership.

It is held columnar — one numpy array per field, O(links) memory — so the
same type serves a validation mesh and a weak-scaled machine of 10^6
ranks.  The simulator, the mesh-specific model and the placement graphs
all read it, and functional runs are priced from it exactly like
timing-only runs, so the two modes are communication-identical by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.mesh.connectivity import FaceTable, build_face_table
from repro.mesh.deck import ALUMINUM_INNER, ALUMINUM_OUTER, FOAM, HE_GAS, InputDeck, NUM_MATERIALS
from repro.mesh.ghost import cut_face_tally, reverse_links, shared_node_pairs
from repro.partition.base import Partition
from repro.util import bincount_fixed

#: Material id → boundary-exchange group ("Identical materials (such as the
#: two aluminum materials in our input deck) are treated as one during
#: boundary exchanges", Section 4.1).
EXCHANGE_GROUP = {HE_GAS: 0, ALUMINUM_INNER: 1, FOAM: 2, ALUMINUM_OUTER: 1}
NUM_EXCHANGE_GROUPS = 3

#: ``(materials, groups)`` 0/1 matrix: face counts by material → by group.
_GROUP_OF_MATERIAL = np.eye(NUM_EXCHANGE_GROUPS, dtype=np.int64)[
    [EXCHANGE_GROUP[mat] for mat in range(NUM_MATERIALS)]
]

_LINK_COLUMNS = (
    "be_src", "be_dst", "be_faces", "be_multi",
    "gn_src", "gn_dst", "gn_local", "gn_remote",
)


def _row_ranges(src: np.ndarray, num_ranks: int) -> tuple:
    """Each rank's ``range`` of rows in a rank-major link column."""
    bounds = np.searchsorted(src, np.arange(num_ranks + 1)).tolist()
    return tuple(range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))


def material_profiles(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(profiles, profile_of_rank)``: the distinct rows of a
    ``(ranks, materials)`` cell-count matrix and each rank's row."""
    profiles, inverse = np.unique(
        np.asarray(cells, dtype=np.float64), axis=0, return_inverse=True
    )
    return profiles, inverse.astype(np.int64).reshape(-1)


@dataclass(frozen=True)
class WorkloadCensus:
    """Everything the simulator and the models charge, for every rank.

    Directed boundary and ghost links are rank-major and neighbour-sorted:
    entry ``k`` of the boundary columns is the link *owned* by
    ``be_src[k]`` toward ``be_dst[k]``, with its per-exchange-group face
    and multi-material ghost-node counts on the ``be_src`` side; ghost
    entries carry the shared nodes ``gn_src`` owns (``gn_local``) and the
    rest (``gn_remote``).  The material census is stored deduplicated: row
    ``cell_profiles[profile_of_rank[r]]`` is rank ``r``'s per-material cell
    counts (a weak-scaled machine has a handful of distinct profiles).
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

    @cached_property
    def boundary_links(self) -> tuple:
        """Rank ``r``'s boundary links: its ``range`` of boundary rows."""
        return _row_ranges(self.be_src, self.num_ranks)

    @cached_property
    def ghost_links(self) -> tuple:
        """Rank ``r``'s ghost links: its ``range`` of ghost rows."""
        return _row_ranges(self.gn_src, self.num_ranks)

    @cached_property
    def be_reverse(self) -> np.ndarray:
        """Row of each boundary link's reverse link (``be_dst → be_src``)."""
        return reverse_links(self.be_src, self.be_dst, self.num_ranks)

    def shares_links(self, other: "WorkloadCensus") -> bool:
        """Whether ``other`` carries this census's very link columns."""
        return all(getattr(self, n) is getattr(other, n) for n in _LINK_COLUMNS)

    def material_counts(self) -> np.ndarray:
        """The full ``(ranks, materials)`` cell counts."""
        return self.cell_profiles[self.profile_of_rank]

    def with_material_counts(self, cells: np.ndarray) -> "WorkloadCensus":
        """This census's links under new ``(ranks, materials)`` counts."""
        profiles, profile_of_rank = material_profiles(cells)
        return replace(
            self, cell_profiles=profiles, profile_of_rank=profile_of_rank
        )

    def work_vector(self, rank: int) -> np.ndarray:
        """Material census of ``rank`` as a float work vector."""
        return self.cell_profiles[self.profile_of_rank[rank]].copy()


def _split_multi(faces: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Spread each link's multi-material node count over its active groups.

    Section 4.1 records multi-material nodes per side only; each enlarges
    the messages of the groups it borders.  Every active group (one with
    faces) gets ``floor(total / active)`` and the first ``remainder``
    active groups one more, so each link's per-group counts sum to its
    total.
    """
    active = faces > 0
    num_active = active.sum(axis=1)
    share = 1.0 / np.maximum(num_active, 1)
    each = np.floor(total * share).astype(np.int64)
    remainder = total - num_active * each
    position = np.cumsum(active, axis=1) - 1
    extra = position < remainder[:, None]
    return np.where(active, each[:, None] + extra, 0)


def _ghost_links(mesh, cell_rank: np.ndarray, num_ranks: int):
    """Directed ghost links ``(src, dst, local, remote)`` of a partition:
    the shared nodes of every rank pair, tallied by owner."""
    _, low_rank, high_rank, own = shared_node_pairs(mesh, cell_rank, num_ranks)
    pairs, pair_of = np.unique(
        low_rank * np.int64(num_ranks) + high_rank, return_inverse=True
    )
    num_pairs = pairs.shape[0]
    shared = bincount_fixed(pair_of, num_pairs)
    owned_low = bincount_fixed(pair_of[own == low_rank], num_pairs)
    owned_high = bincount_fixed(pair_of[own == high_rank], num_pairs)
    a, b = pairs // num_ranks, pairs % num_ranks
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    local = np.concatenate([owned_low, owned_high])
    remote = np.concatenate([shared - owned_low, shared - owned_high])
    order = np.lexsort((dst, src))
    return src[order], dst[order], local[order], remote[order]


def build_workload_census(
    deck: InputDeck,
    partition: Partition,
    faces: FaceTable | None = None,
) -> WorkloadCensus:
    """Build the full :class:`WorkloadCensus` for a deck + partition."""
    mesh = deck.mesh
    if faces is None:
        faces = build_face_table(mesh)
    num_ranks = partition.num_ranks
    tally = cut_face_tally(
        mesh, faces, deck.cell_material, partition.cell_rank, num_ranks
    )
    be_faces = tally.faces_by_material @ _GROUP_OF_MATERIAL
    gn_src, gn_dst, gn_local, gn_remote = _ghost_links(
        mesh, partition.cell_rank, num_ranks
    )
    profiles, profile_of_rank = material_profiles(
        partition.material_census(deck.cell_material, NUM_MATERIALS)
    )
    return WorkloadCensus(
        num_ranks=num_ranks,
        be_src=tally.src,
        be_dst=tally.dst,
        be_faces=be_faces,
        be_multi=_split_multi(be_faces, tally.multi_material_nodes),
        gn_src=gn_src,
        gn_dst=gn_dst,
        gn_local=gn_local,
        gn_remote=gn_remote,
        cell_profiles=profiles,
        profile_of_rank=profile_of_rank,
    )

