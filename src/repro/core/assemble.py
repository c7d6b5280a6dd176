"""Materialise a :class:`~repro.core.request.PredictionRequest` into live
model objects.

This is the single assembly seam of the reproduction: deck construction,
face tables, partitions, workload censuses, calibrated cost tables, and
explicit rank→node placements are all built here, so the CLI, the sweep
orchestrator, the verification scenario builder, the benchmark workloads,
and the prediction service cannot drift apart on how a request becomes a
simulation.  Everything is deterministic in the request, which is what
makes the request's content hash a sound cache key.

Long-lived callers (sweep parents, the prediction service) ask about
the same few decks and partitions again and again, so everything that
depends only on a request's mesh-side fields — the deck, its partition and
their workload census — is memoised per process (:func:`mesh_side`), and so
are the rank placement those fields fix with the machine and strategy
(:func:`placed_cluster`) and the engine structure of the static job they
fix with the iteration count (:func:`static_result`).  The partition ``.npz``
files under the cache dir stay the only persisted tier.

The module is store-agnostic: trace-fitted calibrations are loaded from
any object with ``get(key)`` (the content-addressed
:class:`~repro.analysis.store.ResultStore` in practice), but nothing here
imports the analysis layer — the dependency points the other way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace

import numpy as np

from repro.core.parsing import as_deck_size, is_weak_deck, weak_cells_per_rank
from repro.core.request import PredictionRequest
from repro.hydro.driver import krak_job
from repro.hydro.workload import WorkloadCensus, build_workload_census
from repro.machine.cluster import ClusterConfig
from repro.mesh.connectivity import FaceTable, build_face_table
from repro.mesh.deck import InputDeck, build_deck
from repro.partition.base import Partition
from repro.partition.cache import cached_partition
from repro.perfmodel.calibrate import (
    FittedCalibration,
    calibrate_contrived_grid,
    default_sample_sides,
)
from repro.perfmodel.costcurves import CostTable
from repro.simmpi.engine import SimResult
from repro.util.artifacts import MODEL_VERSION, stable_hash
from repro.util.lru import LRUMemo, array_bytes

__all__ = [
    "Assembled",
    "apply_placement",
    "assemble",
    "calibration_key",
    "calibration_table",
    "deck_for",
    "faces_for",
    "fitted_calibration",
    "mesh_side",
    "placed_cluster",
    "static_result",
]


#: Entries each per-process memo keeps before evicting the least recently
#: used: far above the handful of decks and machines one process serves.
_MEMO_MAX = 16

#: Byte budget of :data:`_FACES_MEMO`.  A face table takes 18.8 MiB for the
#: medium deck and 75.1 MiB for the large one, so the budget holds the
#: large deck's with the medium and small decks' beside it.
_FACES_MAX_BYTES = 128 * 2**20

#: Per-process face-table memo: face tables depend only on the mesh
#: topology, and one process typically evaluates many points of one deck.
#: Bounded both in entries and in bytes (:data:`_FACES_MAX_BYTES`).
_FACES_MEMO = LRUMemo(_MEMO_MAX, max_bytes=_FACES_MAX_BYTES)


def faces_for(deck: InputDeck) -> FaceTable:
    """The deck's face table, memoised per process by mesh topology."""
    mesh = deck.mesh
    if mesh.nx > 0 and mesh.ny > 0:
        # Structured meshes are fully determined by their logical extents.
        key = ("structured", mesh.nx, mesh.ny)
    else:
        # Genuinely unstructured meshes (nx = ny = 0) must be keyed by their
        # actual topology or two same-sized meshes would share faces.
        key = ("unstructured", stable_hash(mesh.cell_nodes))
    faces = _FACES_MEMO.get(key)
    if faces is None:
        faces = build_face_table(mesh)
        _FACES_MEMO.put(key, faces)
    return faces


#: Byte budget of :data:`_MESH_MEMO`: the arrays of its entries, summed
#: (:func:`~repro.util.lru.array_bytes`), a deck counted in its own
#: entry only.  A process serving the medium deck at 16, 64 and 256 ranks,
#: flat and SMP with comm-aware placement, holds 32,384,182 B (30.9 MiB):
#: the deck 10.95 MiB, the three partitions with their censuses 4.89 MiB,
#: two placements 640 B and the three job structures 15.05 MiB (0.51, 2.76
#: and 11.78 MiB).  The budget holds that four times over, or the large
#: deck (43.8 MiB) with partitions and jobs of its own.
_MESH_MAX_BYTES = 128 * 2**20

#: Per-process memo of what a request's mesh-side fields fix: ``("deck",
#: spec)`` → the deck, ``("partition", spec, ranks, method, seed)`` →
#: ``(deck, partition, census)``, that key extended by the cluster spec and
#: placement strategy (``"placement"`` in front) → the
#: :class:`~repro.placement.Placement`, and extended by the iteration
#: count instead (``"job"`` in front) → the static job's
#: :class:`~repro.simmpi.engine.JobStructure`.  Every array they hold is
#: read-only.  The memo is bounded both in entries and in bytes
#: (:data:`_MESH_MAX_BYTES`); a partition entry is charged without its
#: deck.
_MESH_MEMO = LRUMemo(_MEMO_MAX, max_bytes=_MESH_MAX_BYTES)


def _read_only(value):
    """``value`` with every array field, through nested dataclasses, made
    read-only, so a caller that writes into a shared memo entry raises."""
    for field in dataclasses.fields(value):
        item = getattr(value, field.name)
        if isinstance(item, np.ndarray):
            item.flags.writeable = False
        elif dataclasses.is_dataclass(item):
            _read_only(item)
    return value


def _mesh_key(request: PredictionRequest) -> tuple:
    """``(deck size, ranks, partition method, seed)``: the request fields
    that fix its deck, partition and census."""
    return (
        as_deck_size(request.deck),
        request.ranks,
        request.partition_method,
        request.seed,
    )


def deck_for(spec) -> InputDeck:
    """The deck ``spec`` names (:func:`~repro.core.parsing.parse_deck`),
    memoised per process with :func:`mesh_side`'s decks; its arrays are
    read-only."""
    key = ("deck", as_deck_size(spec))
    deck = _MESH_MEMO.get(key)
    if deck is None:
        deck = _read_only(build_deck(key[1]))
        _MESH_MEMO.put(key, deck)
    return deck


def mesh_side(request: PredictionRequest) -> tuple:
    """``(deck, faces, partition, census)`` of a request's deck spec, rank
    count, partition method and seed, memoised per process.

    A miss builds the deck (or reuses the memoised one), loads or computes
    the partition through the ``.npz`` cache and takes the census.  The
    returned objects are shared by every request with the same mesh-side
    fields; their arrays are read-only.
    """
    key = ("partition", *_mesh_key(request))
    entry = _MESH_MEMO.get(key)
    if entry is None:
        deck = deck_for(key[1])
        faces = faces_for(deck)
        partition = cached_partition(
            deck,
            request.ranks,
            method=request.partition_method,
            seed=request.seed,
            faces=faces,
        )
        census = build_workload_census(deck, partition, faces)
        entry = (deck, _read_only(partition), _read_only(census))
        # The deck is charged to its own entry; this one keeps it for as
        # long as it lives, also once that entry is evicted or refused.
        _MESH_MEMO.put(key, entry, nbytes=array_bytes(entry[1:]))
    deck, partition, census = entry
    return deck, faces_for(deck), partition, census


def apply_placement(
    cluster: ClusterConfig,
    strategy: str,
    num_ranks: int,
    census: WorkloadCensus,
    seed: int = 0,
) -> ClusterConfig:
    """The cluster with an explicit rank→node map installed.

    ``strategy`` is a :func:`repro.placement.make_placement` name; the
    comm-aware strategy optimises against ``census``.  Requires the SMP
    hierarchy — placements are meaningless on a flat machine.
    """
    if cluster.hierarchy is None:
        raise ValueError(
            "a placement requires an SMP cluster (enable the hierarchy)"
        )
    from repro.placement import make_placement

    return cluster.with_placement(
        make_placement(
            strategy,
            num_ranks=num_ranks,
            ranks_per_node=cluster.hierarchy.ranks_per_node,
            census=census,
            cluster=cluster,
            seed=seed,
        )
    )


def placed_cluster(
    request: PredictionRequest, cluster: ClusterConfig, census: WorkloadCensus
) -> ClusterConfig:
    """``cluster`` with the request's placement installed, the placement
    memoised per process.

    The placement is fixed by the mesh-side fields (through ``census``),
    the cluster spec and the strategy, so those request fields are its
    key.  A miss builds it with :func:`apply_placement`; its
    ``node_of_rank`` is read-only because every request with the key
    shares it.
    """
    key = ("placement", *_mesh_key(request), request.cluster, request.placement)
    placement = _MESH_MEMO.get(key)
    if placement is None:
        placed = apply_placement(
            cluster, request.placement, request.ranks, census, seed=request.seed
        )
        placement = _read_only(placed.hierarchy.placement)
        _MESH_MEMO.put(key, placement)
    return cluster.with_placement(placement)


def static_result(request: PredictionRequest, asm: "Assembled") -> SimResult:
    """The request's static, unperturbed Krak run on its machine, the
    job's engine structure memoised per process.

    The structure depends only on the census and the iteration count, so
    its key is the request's mesh-side fields and ``iterations``: requests
    that differ only in the machine (flat or SMP, ``speed``, the
    ``intra_*`` knobs, a fitted calibration) or the placement share it.
    A miss lowers the job and builds the structure, as
    :meth:`~repro.simmpi.engine.Engine.run_compiled` would; a hit prices
    the job's compute seconds without lowering, bitwise the same.
    """
    program, engine = krak_job(
        asm.deck, asm.partition, asm.cluster, request.iterations,
        asm.faces, asm.census, None, None,
    )
    key = ("job", *_mesh_key(request), request.iterations)
    structure = _MESH_MEMO.get(key)
    if structure is None:
        table = program.lower()
        structure = engine.structure(table)
        _MESH_MEMO.put(key, structure)
        seconds = table.farg[structure.compute_idx]
    else:
        seconds = program.compute_seconds()
    return engine.price(structure, seconds)


def calibration_key(cluster: ClusterConfig, sides) -> str:
    """Content hash of a calibration's full parameter set (the key of the
    per-process calibration memo)."""
    return stable_hash(
        {
            "kind": "calibration",
            "version": MODEL_VERSION,
            "cluster": cluster,
            "sides": tuple(sides),
        }
    )


#: Per-process calibration memo (key → CostTable).  One process (a sweep
#: parent, the prediction service) prices many requests against few
#: machines, so each table is computed once per process.
_TABLE_MEMO = LRUMemo(_MEMO_MAX)


def calibration_table(cluster: ClusterConfig, sides) -> CostTable:
    """Contrived-grid calibration, memoised in process.

    A table is read straight from the node model in milliseconds, so it is
    recomputed in every process rather than stored on disk.
    """
    key = calibration_key(cluster, sides)
    table = _TABLE_MEMO.get(key)
    if table is None:
        table = calibrate_contrived_grid(cluster, sides=tuple(sides))
        _TABLE_MEMO.put(key, table)
    return table


#: Per-process fitted-calibration memo (store key → FittedCalibration).
_FITTED_MEMO = LRUMemo(_MEMO_MAX)


def fitted_calibration(key: str, store) -> FittedCalibration:
    """Load a stored :class:`FittedCalibration` by its store key.

    Unlike :func:`calibration_table`, a fitted calibration cannot be
    recomputed from the request — it came from an external trace — so a
    missing key is an error, not a cache miss.
    """
    fitted = _FITTED_MEMO.get(key)
    if fitted is not None:
        return fitted
    if store is None:
        raise ValueError(
            "request references a fitted calibration but no store was given"
        )
    payload = store.get(key)
    if payload is None:
        raise KeyError(
            f"no fitted calibration stored under {key!r}; run "
            "'repro calibrate fit <trace>' first"
        )
    fitted = FittedCalibration.from_payload(payload)
    _FITTED_MEMO.put(key, fitted)
    return fitted


@dataclass(frozen=True)
class Assembled:
    """Live objects for one request (the inputs every pipeline stage needs).

    For weak-scaled decks only ``cluster`` and ``table`` are populated —
    there is no real mesh to build; the sparse model synthesises its own
    columnar census at prediction time.
    """

    request: PredictionRequest
    cluster: ClusterConfig
    table: CostTable | None
    deck: InputDeck | None = None
    faces: FaceTable | None = None
    partition: Partition | None = None
    census: WorkloadCensus | None = None

    @property
    def weak_cells_per_rank(self) -> float | None:
        """Per-rank workload for ``weak:`` requests, else ``None``."""
        if is_weak_deck(self.request.deck):
            return weak_cells_per_rank(self.request.deck)
        return None


def assemble(request: PredictionRequest, store=None) -> Assembled:
    """Build every live object ``request`` describes.

    The deck, partition, census and placement come from the per-process
    :func:`mesh_side` and :func:`placed_cluster` memos; the cluster and
    calibration are resolved per request.  ``store`` holds the
    trace-fitted calibration a request may reference (see
    :func:`fitted_calibration`).
    """
    cluster = request.cluster.build()
    if request.calibration is not None:
        # The request pins a trace-fitted machine: the fitted cost table
        # replaces the contrived-grid calibration, and the fitted network
        # and host overheads replace the spec's defaults.
        if cluster.hierarchy is not None:
            raise ValueError(
                "a fitted calibration describes one flat network; "
                "it cannot be combined with an SMP cluster spec"
            )
        fitted = fitted_calibration(request.calibration, store)
        cluster = replace(
            cluster.with_network(fitted.network),
            send_overhead=fitted.send_overhead,
            recv_overhead=fitted.recv_overhead,
        )
        table = fitted.table if request.models else None
    else:
        table = (
            calibration_table(cluster, default_sample_sides(request.max_side))
            if request.models
            else None
        )
    if is_weak_deck(request.deck):
        return Assembled(request=request, cluster=cluster, table=table)

    deck, faces, partition, census = mesh_side(request)
    if request.placement is not None:
        cluster = placed_cluster(request, cluster, census)
    return Assembled(
        request=request,
        cluster=cluster,
        table=table,
        deck=deck,
        faces=faces,
        partition=partition,
        census=census,
    )
