"""repro — reproduction of *A Performance Model of the Krak Hydrodynamics
Application* (Barker, Pakin, Kerbyson; ICPP 2006).

The package rebuilds the paper's whole stack from scratch:

* :mod:`repro.mesh` — spatial grids, the layered-cylinder input decks, and
  the cut-face and shared-node tallies of a partition (gathered into one
  census by :mod:`repro.hydro.workload`);
* :mod:`repro.partition` — a multilevel k-way partitioner (Metis stand-in)
  plus RCB/block baselines;
* :mod:`repro.machine` — the simulated ES-45/QsNet-like cluster cost model;
* :mod:`repro.simmpi` — a deterministic discrete-event simulated MPI;
* :mod:`repro.hydro` — MiniKrak, a 15-phase multi-material Lagrangian
  hydro mini-app (the measured application);
* :mod:`repro.perfmodel` — the paper's analytic model (Equations 1–10,
  calibration, mesh-specific and general variants);
* :mod:`repro.core` — the request/result API: one
  :class:`~repro.core.PredictionRequest` in, one measured or predicted
  :class:`~repro.core.PredictionResult` out;
* :mod:`repro.analysis` — declarative sweep grids of such requests, error
  metrics, and report rendering.

Quickstart::

    from repro import quick_validation
    point = quick_validation("small", num_ranks=16)
    print(point.measured, point.predicted)
"""

from repro.mesh import build_deck
from repro.machine import es45_like_cluster
from repro.partition import cached_partition
from repro.hydro import run_krak, measure_iteration_time
from repro.perfmodel import (
    CostTable,
    GeneralModel,
    MeshSpecificModel,
    calibrate_contrived_grid,
    calibrate_linear_system,
)
from repro.analysis import SweepSpec, run_sweep

__version__ = "1.0.0"

__all__ = [
    "build_deck",
    "es45_like_cluster",
    "cached_partition",
    "run_krak",
    "measure_iteration_time",
    "CostTable",
    "GeneralModel",
    "MeshSpecificModel",
    "calibrate_contrived_grid",
    "calibrate_linear_system",
    "SweepSpec",
    "run_sweep",
    "quick_validation",
]


def quick_validation(deck_size: str = "small", num_ranks: int = 16, seed: int = 1):
    """One-call validation point: measure + general-homogeneous prediction.

    Calibrates a small cost table from contrived grids, "measures" the deck
    (a deck spec: ``small``/``medium``/``large`` or ``NXxNY``) on the
    simulated cluster, and predicts with the general homogeneous model.
    Returns a :class:`repro.analysis.runner.ValidationPoint`.
    """
    spec = SweepSpec(
        decks=(deck_size,), rank_counts=(num_ranks,), models=("homogeneous",),
        seeds=(seed,),
    )
    return run_sweep(spec)[0].point
