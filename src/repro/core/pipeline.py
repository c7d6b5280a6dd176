"""The prediction pipeline: one request in, one result out.

:func:`predict` prices a request with every model it names;
:func:`measure` additionally runs the simulated machine and reports the
"measured" per-iteration time next to the predictions.  Both consume a
:class:`~repro.core.request.PredictionRequest` and return a
:class:`~repro.core.request.PredictionResult`; every other surface (CLI
subcommands, sweep grid points, verification scenarios, benchmarks, the
prediction service) is a thin shell over these two calls, and
:func:`request_key` is the one store key of their results.
"""

from __future__ import annotations

from repro.core.assemble import Assembled, assemble, static_result
from repro.core.parsing import is_weak_deck
from repro.core.request import PredictionRequest, PredictionResult
from repro.hydro.driver import measure_iteration_time
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

    Returns ``{model label → PredictedTime}``.
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


def _measure_seconds(asm: Assembled, request: PredictionRequest) -> float:
    """One simulated measurement; a dynamic spec's window wins.

    A static, unperturbed request reuses its partition's memoised job
    structure (:func:`~repro.core.assemble.static_result`).  ``request.perturb``
    reaches only this measurement path: model predictions are always
    priced on the clean machine, so perturbed results quantify how far
    injected noise pushes "reality" away from the model.
    """
    window = request if request.dynamic is None else request.dynamic
    if request.dynamic is None and request.perturb is None:
        trace = static_result(request, asm).trace
        return trace.mean_iteration_time(window.warmup, window.iterations)
    return measure_iteration_time(
        asm.deck,
        asm.partition,
        cluster=asm.cluster,
        iterations=window.iterations,
        warmup=window.warmup,
        faces=asm.faces,
        census=asm.census,
        dynamic=request.dynamic,
        perturb=request.perturb,
    ).seconds


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
    measured = _measure_seconds(asm, request) if with_measurement else None
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

    ``store`` holds the trace-fitted calibration the request may
    reference (see :func:`repro.core.assemble.fitted_calibration`);
    result-level caching is the caller's concern — key with
    :func:`request_key`.
    """
    return _run(request, with_measurement=False, store=store)


def measure(request: PredictionRequest, store=None) -> PredictionResult:
    """Simulate ``request`` on its machine and price it with every model.

    The returned result carries the "measured" per-iteration seconds next
    to the model predictions, so :meth:`PredictionResult.error` works.
    Weak-scaled decks have no real mesh and cannot be measured.
    """
    return _run(request, with_measurement=True, store=store)
