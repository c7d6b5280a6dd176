"""The one-import public surface of the repro package.

Downstream code (notebooks, scripts, services) should depend on this
module rather than reaching into subpackages:

>>> from repro.api import PredictionRequest, predict
>>> result = predict(PredictionRequest(deck="16x8", ranks=4, max_side=16))
>>> sorted(result.predicted)
['heterogeneous', 'homogeneous']
>>> result.measured is None
True

Everything exported here is a stable name with a stable signature:

* :class:`PredictionRequest` / :class:`PredictionResult` — declarative,
  JSON-round-trippable request/result pair;
* :func:`predict` / :func:`measure` — the single prediction/measurement
  pipeline every surface runs through;
* :func:`run_krak` — one simulated MiniKrak execution (the "measured"
  application, priced by the batch-compiled engine, see
  ``docs/engine.md``);
* :class:`SweepSpec` — declarative multi-axis sweeps for the analysis
  runner.

The subpackage paths (``repro.core``, ``repro.hydro.driver``,
``repro.analysis``) remain importable — this facade adds a stable door,
it does not close the old ones.
"""

from repro.analysis import SweepSpec
from repro.core import (
    PredictionRequest,
    PredictionResult,
    measure,
    predict,
)
from repro.hydro.driver import run_krak

__all__ = [
    "PredictionRequest",
    "PredictionResult",
    "SweepSpec",
    "measure",
    "predict",
    "run_krak",
]
