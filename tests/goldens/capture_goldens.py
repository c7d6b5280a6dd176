"""Regenerate the bitwise goldens for the vectorized hot paths.

Run from the repository root::

    PYTHONPATH=src python tests/goldens/capture_goldens.py

The output ``tests/goldens/vectorized_paths.json`` records, as exact hex
floats, every quantity the vectorized ``Tmsg``/boundary/collectives/engine
paths must reproduce *bitwise*: raw Equation-(4) evaluations, boundary and
ghost exchange times, collective times, mesh-specific and general model
predictions, simulated iteration times, a Figure-5 subset (medium-deck
measured curve plus both decks' general-model curves), and every knot of
the default contrived-grid calibration on the flat and SMP clusters.

Only regenerate after an *intentional* semantic change to the timing model;
a vectorization or refactor must never need to.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.hydro import build_workload_census, measure_iteration_time
from repro.machine import QSNET_LIKE, es45_like_cluster
from repro.mesh import build_deck, build_face_table
from repro.partition import cached_partition
from repro.perfmodel import (
    GeneralModel,
    MeshSpecificModel,
    allreduce_total_time,
    boundary_exchange_time,
    boundary_message_sizes,
    broadcast_time,
    calibrate_contrived_grid,
    collectives_time,
    default_sample_sides,
    gather_total_time,
)
from repro.perfmodel.ghostmodel import ghost_phase_total, ghost_update_time

GOLDEN_PATH = Path(__file__).resolve().parent / "vectorized_paths.json"

#: Message sizes probing every Tmsg segment and both breakpoint sides.
TMSG_SIZES = [0, 1, 4, 8, 32, 100, 1000, 4095, 4096, 4097, 65536, 1048576]

#: The Table 3 worked example plus general-model-shaped fractional faces.
BOUNDARY_CASES = [
    ([3.0, 4.0, 3.0], [1.0, 3.0, 2.0]),
    ([3.0, 4.0, 3.0], None),
    ([12.5, 0.0, 7.25, 3.0], [2.0, 0.0, 1.0, 0.0]),
    ([56.568542494923804], None),
    ([10.0, 10.0, 10.0, 10.0], None),
]

GHOST_CASES = [(0, 0), (1, 2), (17, 16), (500, 499)]

COLLECTIVE_RANKS = [2, 16, 64, 256, 1024]

#: Coarse power-of-two calibration — matches tests' ``coarse_cost_table``.
CAL_SIDES = [1, 2, 4, 8, 16, 32, 64, 128, 256]

FIGURE5_RANKS = [1, 4, 16, 64]
FIGURE5_MODEL_RANKS = [1, 4, 16, 64, 256, 1024]


def hexf(value: float) -> str:
    return float(value).hex()


def predicted_dict(pred) -> dict:
    return {
        "computation": hexf(pred.computation),
        "boundary_exchange": hexf(pred.boundary_exchange),
        "ghost_updates": hexf(pred.ghost_updates),
        "collectives": hexf(pred.collectives),
        "total": hexf(pred.total),
    }


def table_knots(table) -> dict:
    """Every knot of a cost table: the shared abscissae and, per phase and
    material, the per-cell costs."""
    return {
        "cells": [hexf(v) for v in table.curves[0][0].cells],
        "per_cell": [
            [[hexf(v) for v in curve.per_cell] for curve in row]
            for row in table.curves
        ],
    }


def main(output: Path | None = None) -> int:
    """Capture the goldens; ``output`` defaults to the committed location.

    Passing another path regenerates *without* touching the committed file
    — the regression test for this script captures into a tmpdir and
    asserts the bytes match the committed goldens exactly.
    """
    output = GOLDEN_PATH if output is None else Path(output)
    cluster = es45_like_cluster()
    smp = es45_like_cluster().with_smp()
    golden: dict = {"_format": "float.hex() strings; regenerate with capture_goldens.py"}

    # --- Equation (4) ------------------------------------------------------
    nets = {"qsnet": QSNET_LIKE, "smp_intra": smp.hierarchy.intra}
    golden["tmsg"] = {
        label: {str(s): hexf(net.tmsg(s)) for s in TMSG_SIZES}
        for label, net in nets.items()
    }
    arr = QSNET_LIKE.tmsg(np.array(TMSG_SIZES, dtype=np.float64))
    golden["tmsg_array"] = [hexf(v) for v in arr]
    golden["bandwidth_time"] = {
        str(s): hexf(QSNET_LIKE.bandwidth_time(s)) for s in TMSG_SIZES
    }
    golden["startup_time"] = {
        str(s): hexf(QSNET_LIKE.startup_time(s)) for s in TMSG_SIZES
    }

    # --- Equation (5) / Table 3 -------------------------------------------
    golden["boundary"] = [
        {
            "faces": faces,
            "multi": multi,
            "time": hexf(
                boundary_exchange_time(
                    QSNET_LIKE,
                    np.array(faces),
                    None if multi is None else np.array(multi),
                )
            ),
        }
        for faces, multi in BOUNDARY_CASES
    ]
    golden["boundary_rows"] = [
        [count, hexf(nbytes)]
        for count, nbytes in boundary_message_sizes(
            np.array([3.0, 4.0, 3.0]), np.array([1.0, 3.0, 2.0])
        )
    ]

    # --- Equations (6)-(7) -------------------------------------------------
    golden["ghost"] = [
        {
            "n_local": nl,
            "n_remote": nr,
            "phase_total": hexf(ghost_phase_total(QSNET_LIKE, nl, nr)),
            "update_8": hexf(ghost_update_time(QSNET_LIKE, nl, nr, 8)),
        }
        for nl, nr in GHOST_CASES
    ]

    # --- Equations (8)-(10) ------------------------------------------------
    golden["collectives"] = {
        str(p): {
            "bcast": hexf(broadcast_time(QSNET_LIKE, p)),
            "allreduce": hexf(allreduce_total_time(QSNET_LIKE, p)),
            "gather": hexf(gather_total_time(QSNET_LIKE, p)),
            "total": hexf(collectives_time(QSNET_LIKE, p)),
        }
        for p in COLLECTIVE_RANKS
    }

    # --- model predictions (coarse calibration) ---------------------------
    table = calibrate_contrived_grid(cluster, sides=CAL_SIDES)
    small = build_deck("small")
    small_faces = build_face_table(small.mesh)
    mesh_model = MeshSpecificModel(table=table, network=cluster.network)
    golden["mesh_specific"] = {}
    for p in (16, 128):
        part = cached_partition(small, p, seed=1, faces=small_faces)
        census = build_workload_census(small, part, small_faces)
        golden["mesh_specific"][str(p)] = predicted_dict(mesh_model.predict(census))

    golden["general"] = {}
    for mode in ("homogeneous", "heterogeneous"):
        model = GeneralModel(table=table, network=cluster.network, mode=mode)
        golden["general"][mode] = {
            str(p): predicted_dict(model.predict(819200, p))
            for p in (1, 16, 512)
        }

    # --- simulated (engine) times -----------------------------------------
    golden["measured"] = {}
    for label, deck_name, faces, p, clu in (
        ("small_16", "small", small_faces, 16, cluster),
        ("small_64", "small", small_faces, 64, cluster),
        ("small_16_smp", "small", small_faces, 16, smp),
    ):
        deck = small
        part = cached_partition(deck, p, seed=1, faces=faces)
        census = build_workload_census(deck, part, faces)
        m = measure_iteration_time(deck, part, cluster=clu, faces=faces, census=census)
        golden["measured"][label] = hexf(m.seconds)

    # --- Figure 5 subset ---------------------------------------------------
    medium = build_deck("medium")
    medium_faces = build_face_table(medium.mesh)
    golden["figure5_medium_measured"] = {}
    for p in FIGURE5_RANKS:
        part = cached_partition(medium, p, seed=1, faces=medium_faces)
        census = build_workload_census(medium, part, medium_faces)
        m = measure_iteration_time(
            medium, part, cluster=cluster, faces=medium_faces, census=census
        )
        golden["figure5_medium_measured"][str(p)] = hexf(m.seconds)

    large = build_deck("large")
    golden["figure5_predicted"] = {}
    for deck in (medium, large):
        per_deck: dict = {}
        for mode in ("homogeneous", "heterogeneous"):
            model = GeneralModel(table=table, network=cluster.network, mode=mode)
            per_deck[mode] = {
                str(p): hexf(model.predict(deck.num_cells, p).total)
                for p in FIGURE5_MODEL_RANKS
            }
        golden["figure5_predicted"][deck.name] = per_deck

    # --- default contrived-grid calibration ------------------------------
    golden["calibration"] = {
        label: table_knots(
            calibrate_contrived_grid(clu, sides=default_sample_sides(256))
        )
        for label, clu in (("flat", cluster), ("smp", smp))
    }

    output.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the goldens here instead of the committed path",
    )
    sys.exit(main(parser.parse_args().output))
