"""The model core: a CLI-free, filesystem-agnostic prediction API.

One import point for "describe a configuration, get its numbers":

* :class:`PredictionRequest` / :class:`PredictionResult` — typed,
  JSON-round-trippable request/result pair (:mod:`repro.core.request`);
* :func:`predict` / :func:`measure` — the single pipeline every surface
  (CLI, sweeps, verification, benchmarks, the prediction service) runs
  through (:mod:`repro.core.pipeline`);
* :func:`assemble` and friends — deterministic materialisation of specs
  into live decks/partitions/clusters (:mod:`repro.core.assemble`);
* :class:`LRUResultCache` — in-memory recency tier over the
  content-addressed result store (:mod:`repro.core.cache`);
* spec parsing helpers shared by every entry point
  (:mod:`repro.core.parsing`).

The core depends only on the substrate packages (mesh, partition, hydro,
machine, perfmodel, placement, util) — never on the CLI, the analysis
orchestration, or the service, which are all clients.
"""

from repro.core.assemble import (
    Assembled,
    apply_placement,
    assemble,
    calibration_key,
    calibration_table,
    deck_for,
    faces_for,
    mesh_side,
)
from repro.core.cache import LRUResultCache
from repro.core.parsing import (
    WEAK_PREFIX,
    as_deck_size,
    csv_ints,
    csv_strings,
    deck_label,
    is_weak_deck,
    parse_deck,
    weak_cells_per_rank,
)
from repro.core.pipeline import (
    measure,
    predict,
    predict_models,
    request_key,
)
from repro.core.request import (
    KNOWN_MODELS,
    ClusterSpec,
    DynamicSpec,
    PerturbSpec,
    PredictionRequest,
    PredictionResult,
)

__all__ = [
    "KNOWN_MODELS",
    "WEAK_PREFIX",
    "Assembled",
    "ClusterSpec",
    "DynamicSpec",
    "LRUResultCache",
    "PerturbSpec",
    "PredictionRequest",
    "PredictionResult",
    "apply_placement",
    "as_deck_size",
    "assemble",
    "calibration_key",
    "calibration_table",
    "csv_ints",
    "csv_strings",
    "deck_label",
    "deck_for",
    "faces_for",
    "is_weak_deck",
    "measure",
    "mesh_side",
    "parse_deck",
    "predict",
    "predict_models",
    "request_key",
    "weak_cells_per_rank",
]
