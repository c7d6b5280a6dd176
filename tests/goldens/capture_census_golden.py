"""Regenerate the golden workload census and lowered op columns.

Run from the repository root::

    PYTHONPATH=src python tests/goldens/capture_census_golden.py

The output ``tests/goldens/workload_census.json`` pins, for fixed inputs:

* ``census`` — every directed boundary link of each case as
  ``[src, dst, [[group, faces, multi_material_nodes], ...], total_faces]``
  (active exchange groups only, ascending), every directed ghost link as
  ``[src, dst, owned_by_src, not_owned_by_src, owned_by_dst,
  not_owned_by_dst]``, both rank-major and neighbour-sorted, and the
  ``(ranks, materials)`` cell counts;
* ``lowered`` — the sha256 of every rank's slice of the job's lowered op
  table (``ProgramWriter.finish()``: ``opcode``, ``farg``, ``a``, ``b``) for a
  static, a dynamic (``imbalance:1.1``) and a failure-plus-churn run of
  the small deck at 16 ranks, plus the number of repartitions each run
  fired.

The file was first written from the per-link objects of the census this
columnar form replaced.  Only regenerate after an *intentional* change to
the census.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.hydro import build_workload_census
from repro.hydro.dynamic import DynamicController, DynamicSpec
from repro.hydro.phases import KrakProgram
from repro.machine import es45_like_cluster
from repro.mesh import build_deck, build_face_table
from repro.mesh.ghost import reverse_links
from repro.partition import Partition, make_partition
from repro.perturb import Perturbation, PerturbSpec
from repro.simmpi.compile import ProgramWriter

GOLDEN_PATH = Path(__file__).resolve().parent / "workload_census.json"

#: name → (deck size, ranks, partition method).  ``random`` labels every
#: cell with a seeded uniform rank (each rank keeps at least one cell).
CENSUS_CASES = {
    "small_16_multilevel": ("small", 16, "multilevel"),
    "small_24_multilevel": ("small", 24, "multilevel"),
    "medium_64_rcb": ("medium", 64, "rcb"),
    "16x8_8_block": ((16, 8), 8, "block"),
    "16x8_6_rcb": ((16, 8), 6, "rcb"),
    "random_9x7_2": ((9, 7), 2, "random"),
    "random_12x10_4": ((12, 10), 4, "random"),
    "random_16x8_6": ((16, 8), 6, "random"),
}

#: name → (dynamic spec, perturbation spec) of the lowered small/16 runs.
LOWERED_RUNS = {
    "static": (None, None),
    "dynamic": (DynamicSpec(policy="imbalance:1.1", iterations=6), None),
    "failure_churn": (
        DynamicSpec(policy="never", iterations=6),
        PerturbSpec(seed=5, fail_rank=3, fail_iteration=2,
                    restart_seconds=0.01, churn_prob=0.5),
    ),
}
LOWERED_RANKS = 16
STATIC_ITERATIONS = 3


@lru_cache(maxsize=None)
def problem(name: str):
    """``(deck, faces, partition)`` of a census case."""
    size, ranks, method = CENSUS_CASES[name]
    deck = build_deck(size)
    faces = build_face_table(deck.mesh)
    if method == "random":
        rng = np.random.default_rng(ranks)
        labels = rng.integers(0, ranks, deck.num_cells)
        labels[:ranks] = np.arange(ranks)
        partition = Partition(num_ranks=ranks, cell_rank=labels)
    else:
        partition = make_partition(deck.mesh, ranks, method=method, seed=1,
                                   faces=faces)
    return deck, faces, partition


def census_record(census) -> dict:
    """The census's links and cell counts as plain JSON values."""
    faces = census.be_faces.astype(np.int64).tolist()
    multi = census.be_multi.astype(np.int64).tolist()
    boundary = [
        [src, dst, [[g, f, m] for g, (f, m) in enumerate(zip(fs, ms)) if f > 0],
         sum(fs)]
        for src, dst, fs, ms in zip(
            census.be_src.tolist(), census.be_dst.tolist(), faces, multi
        )
    ]
    # A ghost link's reverse row holds the neighbour's ownership counts.
    back = reverse_links(census.gn_src, census.gn_dst, census.num_ranks)
    columns = (
        census.gn_src, census.gn_dst, census.gn_local, census.gn_remote,
        census.gn_local[back], census.gn_remote[back],
    )
    ghost = np.column_stack(columns).astype(np.int64).tolist()
    materials = census.material_counts().astype(np.int64).tolist()
    return {"boundary": boundary, "ghost": ghost, "materials": materials}


def census_case(name: str) -> dict:
    deck, faces, partition = problem(name)
    return census_record(build_workload_census(deck, partition, faces))


def lowered_case(name: str) -> dict:
    """Per-rank sha256 of the lowered columns, wired as ``run_krak`` does."""
    deck, faces, partition = problem("small_16_multilevel")
    census = build_workload_census(deck, partition, faces)
    dynamic, perturb = LOWERED_RUNS[name]
    perturbation = None if perturb is None else Perturbation(perturb, LOWERED_RANKS)
    controller, iterations = None, STATIC_ITERATIONS
    if dynamic is not None:
        churn = perturbation.churn_at if perturbation is not None else None
        controller = DynamicController(
            deck, partition, dynamic, faces=faces, base_census=census,
            force_repartition=churn,
        )
        iterations = dynamic.iterations
    writer = ProgramWriter()
    KrakProgram(
        census=census, node_model=es45_like_cluster().node,
        iterations=iterations, dynamic=controller, perturb=perturbation,
    ).lower_into(writer)
    table = writer.finish()
    digests = []
    for rank in range(LOWERED_RANKS):
        digest = hashlib.sha256()
        for col in table.rank_columns(rank):
            digest.update(np.ascontiguousarray(col).tobytes())
        digests.append(digest.hexdigest())
    repartitions = (
        0 if controller is None else controller.run_info().num_repartitions
    )
    return {"ranks": digests, "repartitions": repartitions}


def capture() -> dict:
    return {
        "census": {name: census_case(name) for name in CENSUS_CASES},
        "lowered": {name: lowered_case(name) for name in LOWERED_RUNS},
    }


def main() -> int:
    GOLDEN_PATH.write_text(json.dumps(capture(), sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
