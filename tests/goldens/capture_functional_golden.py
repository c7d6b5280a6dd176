"""Regenerate the bitwise golden for functional-mode Krak runs.

Run from the repository root::

    PYTHONPATH=src python tests/goldens/capture_functional_golden.py

The output ``tests/goldens/functional_run.json`` pins, as exact hex floats,
what a functional (real-numerics) run produces: the final global
diagnostics, every rank's final clock, and every rank's ``rho``,
``energy``, ``vx`` and ``x`` arrays after a few iterations of a small deck
on 2 and 4 ranks.  Functional mode is otherwise checked only to a relative
tolerance or by conservation, so this is the file that proves a refactor
of the phase program left the numerics untouched to the last bit.  Only
regenerate after an *intentional* change to the hydro numerics.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.hydro import run_krak
from repro.mesh import build_deck, build_face_table
from repro.partition import make_partition

GOLDEN_PATH = Path(__file__).resolve().parent / "functional_run.json"

#: Deck, iteration count and rank counts of the pinned runs.
NX, NY, ITERATIONS = 16, 8, 4
RANK_COUNTS = (2, 4)

#: Per-rank state arrays recorded after the run (cell and node fields).
FIELDS = ("rho", "energy", "vx", "x")


def hexf(value: float) -> str:
    return float(value).hex()


def functional_run(ranks: int):
    """The pinned functional run on ``ranks`` ranks."""
    deck = build_deck((NX, NY))
    faces = build_face_table(deck.mesh)
    partition = make_partition(
        deck.mesh, ranks, method="multilevel", seed=1, faces=faces
    )
    return run_krak(
        deck, partition, iterations=ITERATIONS, functional=True, faces=faces
    )


def record(run) -> dict:
    """Hex-float snapshot of one functional run."""
    return {
        "diagnostics": {k: hexf(v) for k, v in sorted(run.diagnostics.items())},
        "final_clocks": [hexf(c) for c in run.result.final_clocks],
        "states": [
            {name: [hexf(v) for v in getattr(st, name)] for name in FIELDS}
            for st in run.states
        ],
    }


def main(output: Path | None = None) -> int:
    output = GOLDEN_PATH if output is None else output
    golden = {
        "nx": NX,
        "ny": NY,
        "iterations": ITERATIONS,
        "runs": {str(ranks): record(functional_run(ranks)) for ranks in RANK_COUNTS},
    }
    output.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
