"""The prediction pipeline: one request in, one result out.

:func:`predict` prices a request with every model it names;
:func:`measure` additionally runs the simulated machine and reports the
"measured" per-iteration time next to the predictions.  Both consume a
:class:`~repro.core.request.PredictionRequest` and return a
:class:`~repro.core.request.PredictionResult`; every other surface (CLI
subcommands, sweep tasks, verification scenarios, benchmarks, the
prediction service) is a thin shell over these two calls.

:func:`run_point` is the same engine over pre-built objects (deck,
cluster, cost table) — the sweep orchestrator's entry, kept separate so
worker processes can ship objects rather than re-derive them, bit-for-bit
compatible with the historical ``evaluate_point`` loop body.
"""

from __future__ import annotations

from repro.core.assemble import Assembled, apply_placement, assemble
from repro.core.parsing import is_weak_deck
from repro.core.request import PredictionRequest, PredictionResult
from repro.hydro.driver import measure_iteration_time
from repro.hydro.workload import build_workload_census
from repro.mesh.connectivity import build_face_table
from repro.partition.cache import cached_partition
from repro.perfmodel.general import GeneralModel
from repro.perfmodel.mesh_specific import MeshSpecificModel
from repro.perfmodel.runtime import PredictedTime
from repro.perfmodel.sparse_mesh import weak_scaled_census
from repro.perfmodel.transition import TransitionModel
from repro.util.artifacts import MODEL_VERSION, stable_hash

__all__ = [
    "measure",
    "predict",
    "predict_models",
    "request_key",
    "run_point",
]


def request_key(request: PredictionRequest, mode: str = "predict") -> str:
    """Content hash of everything that determines a request's result.

    ``mode`` separates prediction-only results from measured ones — the
    two pipelines produce different payloads for the same request.  The
    result is deterministic in the request (calibration, partitioning, and
    the simulator are all seeded), which is what makes this a sound
    store/cache key.
    """
    if mode not in ("predict", "measure"):
        raise ValueError(f"unknown request mode {mode!r}")
    return stable_hash(
        {
            "kind": "core-prediction",
            "version": MODEL_VERSION,
            "mode": mode,
            "request": request,
        }
    )


def predict_models(deck, census, num_ranks, cluster, table, models) -> dict:
    """Price one assembled configuration with each named model.

    Returns ``{model label → PredictedTime}``.  The constructor calls and
    argument order are exactly the historical sweep-runner dispatch, so
    totals are bit-identical to what it always produced.
    """
    out = {}
    for model in models:
        if model == "mesh-specific":
            pred = MeshSpecificModel(table=table, network=cluster.network).predict(
                census
            )
        elif model in ("homogeneous", "heterogeneous"):
            pred = GeneralModel(
                table=table, network=cluster.network, mode=model
            ).predict(deck.num_cells, num_ranks)
        elif model == "transition":
            pred = TransitionModel.for_deck(deck, table, cluster.network).predict(
                deck.num_cells, num_ranks
            )
        elif model == "sparse":
            raise ValueError(
                "the 'sparse' model prices weak-scaled decks only "
                "(use a 'weak:<cells_per_rank>' deck spec)"
            )
        else:
            raise ValueError(f"unknown model {model!r}")
        out[model] = pred
    return out


def _measure_seconds(deck, partition, cluster, faces, census, dynamic,
                     iterations, warmup, perturb=None) -> float:
    """One simulated measurement; a dynamic spec's window wins.

    ``perturb`` reaches only this measurement path: model predictions are
    always priced on the clean machine, so perturbed results quantify how
    far injected noise pushes "reality" away from the model.
    """
    if dynamic is None:
        return measure_iteration_time(
            deck,
            partition,
            cluster=cluster,
            iterations=iterations,
            warmup=warmup,
            faces=faces,
            census=census,
            perturb=perturb,
        ).seconds
    return measure_iteration_time(
        deck,
        partition,
        cluster=cluster,
        iterations=dynamic.iterations,
        warmup=dynamic.warmup,
        faces=faces,
        census=census,
        dynamic=dynamic.build(),
        perturb=perturb,
    ).seconds


def run_point(
    deck,
    num_ranks: int,
    cluster,
    table,
    models=(),
    seed: int = 1,
    partition_method: str = "multilevel",
    faces=None,
    dynamic=None,
    placement: str | None = None,
    iterations: int = 3,
    warmup: int = 1,
    with_measurement: bool = True,
    perturb=None,
):
    """The pipeline body over pre-built objects.

    Returns ``(measured_seconds_or_None, {model → PredictedTime})``.  This
    is the former ``evaluate_point`` loop body, verbatim: partition →
    census → optional placement → simulated measurement → model pricing.
    ``dynamic`` is a :class:`~repro.core.request.DynamicSpec` (its
    iteration window overrides ``iterations``/``warmup``); ``placement``
    is a strategy name applied to the SMP hierarchy for the measurement
    while model predictions keep the flat network; ``perturb`` is a
    :class:`~repro.perturb.PerturbSpec` injected into the measurement only.
    """
    if models and table is None:
        raise ValueError("a cost table is required when models are requested")
    if faces is None:
        faces = build_face_table(deck.mesh)
    partition = cached_partition(
        deck, num_ranks, method=partition_method, seed=seed, faces=faces
    )
    census = build_workload_census(deck, partition, faces)
    if placement is not None:
        cluster = apply_placement(cluster, placement, num_ranks, census, seed=seed)
    measured = None
    if with_measurement:
        measured = _measure_seconds(
            deck, partition, cluster, faces, census, dynamic, iterations, warmup,
            perturb=perturb,
        )
    return measured, predict_models(deck, census, num_ranks, cluster, table, models)


def _sparse_result(asm: Assembled, request: PredictionRequest) -> PredictionResult:
    """Price a weak-scaled request through the sparse O(P log P) path."""
    census = weak_scaled_census(
        request.ranks, cells_per_rank=asm.weak_cells_per_rank
    )
    model = MeshSpecificModel(
        table=asm.table, network=asm.cluster.network, hierarchy=asm.cluster.hierarchy
    )
    predicted = model.predict(census)
    return _package(
        request,
        measured=None,
        predictions={"sparse": predicted},
        meta={
            "links": census.num_boundary_links + census.num_ghost_links,
            "cluster_name": asm.cluster.name,
        },
    )


def _phase_dict(pred: PredictedTime) -> dict:
    return {
        "computation": pred.computation,
        "boundary_exchange": pred.boundary_exchange,
        "ghost_updates": pred.ghost_updates,
        "collectives": pred.collectives,
        "communication": pred.communication,
        "total": pred.total,
    }


def _package(request, measured, predictions, meta) -> PredictionResult:
    return PredictionResult(
        request=request,
        measured=measured,
        predicted={m: p.total for m, p in predictions.items()},
        phases={m: _phase_dict(p) for m, p in predictions.items()},
        meta=meta,
    )


def _run(request: PredictionRequest, with_measurement: bool, store) -> PredictionResult:
    if is_weak_deck(request.deck):
        if with_measurement:
            raise ValueError(
                "weak-scaled decks cannot be measured (no real mesh); "
                "use predict()"
            )
        return _sparse_result(assemble(request, store=store), request)
    asm = assemble(request, store=store)
    measured = None
    if with_measurement:
        measured = _measure_seconds(
            asm.deck,
            asm.partition,
            asm.cluster,
            asm.faces,
            asm.census,
            request.dynamic,
            request.iterations,
            request.warmup,
            perturb=request.perturb,
        )
    predictions = predict_models(
        asm.deck, asm.census, request.ranks, asm.cluster, asm.table, request.models
    )
    return _package(
        request,
        measured=measured,
        predictions=predictions,
        meta={
            "cells": asm.deck.num_cells,
            "deck_name": asm.deck.name,
            "cluster_name": asm.cluster.name,
        },
    )


def predict(request: PredictionRequest, store=None) -> PredictionResult:
    """Price ``request`` with every model it names (no simulation).

    ``store`` optionally persists the calibration table (see
    :func:`repro.core.assemble.calibration_table`); result-level caching
    is the caller's concern — key with :func:`request_key`.
    """
    return _run(request, with_measurement=False, store=store)


def measure(request: PredictionRequest, store=None) -> PredictionResult:
    """Simulate ``request`` on its machine and price it with every model.

    The returned result carries the "measured" per-iteration seconds next
    to the model predictions, so :meth:`PredictionResult.error` works.
    Weak-scaled decks have no real mesh and cannot be measured.
    """
    return _run(request, with_measurement=True, store=store)
