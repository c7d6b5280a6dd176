"""Regenerate the golden validation points of the sweep engine.

Run from the repository root::

    PYTHONPATH=src python tests/goldens/capture_sweep_golden.py

The output ``tests/goldens/sweep_points.json`` was first written by the
object-level sweep path, where each ``SweepTask`` carried a built deck,
cluster and cost table and ``run_points`` evaluated it through
``core.pipeline.run_point``.  It pins, for each case below, the
``ValidationPoint`` payload (``deck_name``, ``num_ranks``, ``measured``,
``predicted``) of every grid point, in grid order, as ``run_sweep``
returns it.  The cases cover:

* ``static`` — decks 16x8 and 32x16 under the multilevel partitioner with
  the three sweep models;
* ``rcb`` — the rcb partitioner;
* ``measure-only`` — an empty ``models`` axis (no calibration);
* ``dynamic`` — a time-evolving workload under ``imbalance:1.1``;
* ``smp-comm-aware`` — an SMP machine with the comm-aware placement;
* ``noise-straggler`` — OS noise plus transient stragglers;
* ``churn`` — node churn under a dynamic repartitioning policy.

Times are hex floats, so a match is a bitwise match.  Only regenerate
after an *intentional* change to the simulation or the models.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis import SweepSpec, run_sweep
from repro.core.request import ClusterSpec, DynamicSpec
from repro.perturb import PerturbSpec

GOLDEN_PATH = Path(__file__).resolve().parent / "sweep_points.json"

SWEEP_MODELS = ("mesh-specific", "homogeneous", "heterogeneous")

#: case name → ``SweepSpec`` keyword arguments.  A small calibration range
#: keeps the capture fast; the numbers only need to be deterministic.
CASES = {
    "static": dict(decks=("16x8", "32x16"), rank_counts=(2, 4)),
    "rcb": dict(decks=("16x8",), rank_counts=(4,), partition_methods=("rcb",)),
    "measure-only": dict(decks=("32x16",), rank_counts=(4,), models=()),
    "dynamic": dict(
        decks=("16x8",),
        rank_counts=(4,),
        dynamics=(DynamicSpec(policy="imbalance:1.1", iterations=6),),
    ),
    "smp-comm-aware": dict(
        decks=("16x8",),
        rank_counts=(8,),
        clusters=(ClusterSpec(smp=True),),
        placements=("comm-aware",),
    ),
    "noise-straggler": dict(
        decks=("16x8",),
        rank_counts=(4,),
        perturbs=(
            PerturbSpec(
                seed=2, compute_noise=0.1, straggler_prob=0.2, straggler_factor=4.0
            ),
        ),
    ),
    "churn": dict(
        decks=("16x8",),
        rank_counts=(4,),
        models=("homogeneous",),
        dynamics=(DynamicSpec(policy="every:2", iterations=6),),
        perturbs=(PerturbSpec(seed=3, churn_prob=0.3),),
    ),
}


def case_spec(name: str) -> SweepSpec:
    kwargs = {"models": SWEEP_MODELS, "max_side": 16, **CASES[name]}
    return SweepSpec(**kwargs)


def hex_payload(payload: dict) -> dict:
    """A point payload with its times as hex floats."""
    return {
        "deck_name": payload["deck_name"],
        "num_ranks": payload["num_ranks"],
        "measured": float(payload["measured"]).hex(),
        "predicted": {m: float(t).hex() for m, t in payload["predicted"].items()},
    }


def capture_case(name: str) -> list:
    return [
        hex_payload(outcome.point.to_payload())
        for outcome in run_sweep(case_spec(name), jobs=1)
    ]


def capture() -> dict:
    return {name: capture_case(name) for name in CASES}


def main() -> int:
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
