"""Per-rank distributed state: local mesh views and neighbour exchange links.

Each rank holds the cells assigned to it by the partition, the union of
their nodes, and — for every neighbouring rank — the list of *shared* nodes
in a canonical (global-id-sorted) order so both sides of an exchange agree
on message layout without any negotiation, exactly like a production code's
communication lists.

Node ownership follows the paper's rule: every shared ("ghost") node is
local to exactly one processor (here: the minimum incident rank) and remote
to the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hydro.burn import ProgrammedBurn
from repro.hydro.materials import (
    KRAK_MATERIAL_MODELS,
    initial_density,
    initial_energy,
)
from repro.mesh.deck import InputDeck
from repro.mesh.geometry import cell_areas, cell_centroids
from repro.mesh.ghost import node_owners, shared_node_pairs
from repro.partition.base import Partition


@dataclass
class NeighborLink:
    """Exchange metadata between this rank and one neighbour.

    Attributes
    ----------
    nbr_rank:
        The neighbouring rank id.
    shared_local_idx:
        Local node indices of the shared nodes, ordered by global node id
        (both sides use the same order).
    owner_of_shared:
        Owning rank of each shared node (global ownership function).
    """

    nbr_rank: int
    shared_local_idx: np.ndarray
    owner_of_shared: np.ndarray


@dataclass
class RankState:
    """All state one simulated rank holds for the hydro computation."""

    rank: int
    #: Global ids of local cells / nodes (both ascending).
    cells_g: np.ndarray
    nodes_g: np.ndarray
    #: Cell→node connectivity in local node indices, shape (ncells, 4).
    cell_nodes: np.ndarray
    #: Material id per local cell.
    material: np.ndarray
    #: Owner rank per local node.
    node_owner: np.ndarray
    #: Exchange links, sorted by neighbour rank.
    links: list[NeighborLink]

    # --- node fields ---
    x: np.ndarray = field(default=None)  # type: ignore[assignment]
    y: np.ndarray = field(default=None)  # type: ignore[assignment]
    vx: np.ndarray = field(default=None)  # type: ignore[assignment]
    vy: np.ndarray = field(default=None)  # type: ignore[assignment]
    node_mass: np.ndarray = field(default=None)  # type: ignore[assignment]
    fx: np.ndarray = field(default=None)  # type: ignore[assignment]
    fy: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Axis-of-rotation nodes (x = 0): reflective boundary, vx pinned to 0.
    on_axis: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Rigid-wall masks: nodes whose x / y velocity is pinned to zero.  By
    #: default ``fix_vx`` is the rotation axis and ``fix_vy`` is empty; test
    #: problems (shock tubes, pistons) close the box by widening these.
    fix_vx: np.ndarray = field(default=None)  # type: ignore[assignment]
    fix_vy: np.ndarray = field(default=None)  # type: ignore[assignment]

    # --- cell fields ---
    cell_mass: np.ndarray = field(default=None)  # type: ignore[assignment]
    volume: np.ndarray = field(default=None)  # type: ignore[assignment]
    rho: np.ndarray = field(default=None)  # type: ignore[assignment]
    energy: np.ndarray = field(default=None)  # type: ignore[assignment]
    pressure: np.ndarray = field(default=None)  # type: ignore[assignment]
    viscosity: np.ndarray = field(default=None)  # type: ignore[assignment]
    sound_speed: np.ndarray = field(default=None)  # type: ignore[assignment]
    burn_frac: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Per-cell programmed-burn arrival times.
    burn_arrival: np.ndarray = field(default=None)  # type: ignore[assignment]

    @property
    def num_cells(self) -> int:
        """Local cell count."""
        return int(self.cells_g.shape[0])

    @property
    def num_nodes(self) -> int:
        """Local node count (including shared nodes)."""
        return int(self.nodes_g.shape[0])

    def material_counts(self, num_materials: int) -> np.ndarray:
        """Local cells per material."""
        return np.bincount(self.material, minlength=num_materials)[:num_materials]


def _shared_node_pairs(
    deck: InputDeck, partition: Partition
) -> dict[tuple[int, int], np.ndarray]:
    """Map every rank pair sharing at least one node to its shared node ids.

    Built from node→rank incidence (any shared node, including corner-only
    contacts, so the additive ghost sums are globally exact).
    """
    num_ranks = partition.num_ranks
    node, low, high, _ = shared_node_pairs(deck.mesh, partition.cell_rank, num_ranks)
    # A stable sort by pair keeps each pair's nodes in ascending order.
    key = low * np.int64(num_ranks) + high
    order = np.argsort(key, kind="stable")
    key, node = key[order], node[order]
    pairs, start = np.unique(key, return_index=True)
    groups = np.split(node, start[1:])
    return {
        (int(k // num_ranks), int(k % num_ranks)): gids
        for k, gids in zip(pairs.tolist(), groups)
    }


def build_rank_states(
    deck: InputDeck,
    partition: Partition,
    models=KRAK_MATERIAL_MODELS,
    detonation_speed: float = 7000.0,
) -> list[RankState]:
    """Construct the full distributed state for every rank.

    Initial conditions: nodes at mesh coordinates, zero velocity, reference
    density/energy per material, cell masses from planar cell areas (the
    solver runs in planar 2-D; see DESIGN.md for the rotation note).
    """
    mesh = deck.mesh
    if partition.num_cells != mesh.num_cells:
        raise ValueError("partition does not match the deck's mesh")
    owners = node_owners(mesh, partition.cell_rank)
    areas = np.abs(cell_areas(mesh))
    centroids = cell_centroids(mesh)
    burn = ProgrammedBurn.from_deck(
        centroids, deck.cell_material, deck.detonator_xy, detonation_speed
    )
    axis_x = float(mesh.node_x.min())

    shared = _shared_node_pairs(deck, partition)

    states: list[RankState] = []
    for rank in range(partition.num_ranks):
        cells_g = partition.cells_of(rank)
        if cells_g.size == 0:
            raise ValueError(f"rank {rank} received no cells")
        cn_global = mesh.cell_nodes[cells_g]
        nodes_g = np.unique(cn_global)
        cell_nodes_local = np.searchsorted(nodes_g, cn_global)

        links = []
        for (a, b), gids in shared.items():
            if rank not in (a, b):
                continue
            nbr = b if rank == a else a
            local_idx = np.searchsorted(nodes_g, gids)
            links.append(
                NeighborLink(
                    nbr_rank=nbr,
                    shared_local_idx=local_idx,
                    owner_of_shared=owners[gids],
                )
            )
        links.sort(key=lambda lk: lk.nbr_rank)

        mat = deck.cell_material[cells_g]
        rho = initial_density(mat, models)
        vol = areas[cells_g].copy()
        st = RankState(
            rank=rank,
            cells_g=cells_g,
            nodes_g=nodes_g,
            cell_nodes=cell_nodes_local,
            material=mat,
            node_owner=owners[nodes_g],
            links=links,
            x=mesh.node_x[nodes_g].copy(),
            y=mesh.node_y[nodes_g].copy(),
            vx=np.zeros(nodes_g.shape[0]),
            vy=np.zeros(nodes_g.shape[0]),
            node_mass=np.zeros(nodes_g.shape[0]),
            fx=np.zeros(nodes_g.shape[0]),
            fy=np.zeros(nodes_g.shape[0]),
            on_axis=np.abs(mesh.node_x[nodes_g] - axis_x) < 1e-12,
            fix_vx=np.abs(mesh.node_x[nodes_g] - axis_x) < 1e-12,
            fix_vy=np.zeros(nodes_g.shape[0], dtype=bool),
            cell_mass=rho * vol,
            volume=vol,
            rho=rho.copy(),
            energy=initial_energy(mat, models),
            pressure=np.zeros(cells_g.shape[0]),
            viscosity=np.zeros(cells_g.shape[0]),
            sound_speed=np.zeros(cells_g.shape[0]),
            burn_frac=np.zeros(cells_g.shape[0]),
            burn_arrival=burn.arrival_time[cells_g].copy(),
        )
        states.append(st)
    return states
