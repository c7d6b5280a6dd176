"""Regenerate the golden predictions of the mesh-specific model.

Run from the repository root::

    PYTHONPATH=src python tests/goldens/capture_model_golden.py

The output ``tests/goldens/mesh_model.json`` was first written by the
object-walk implementation of ``MeshSpecificModel.predict`` (one priced
tally per census link, summed per rank in link order), which the columnar
pricing over ``WorkloadCensus`` has since replaced.  It pins, for fixed
inputs:

* ``fuzz`` — the four ``PredictedTime`` terms of every fuzz scenario
  (seeds 0-49) on the flat ES-45 cluster (``flat``), its ``with_smp()``
  form (``smp``) and, for SMP scenarios, the scenario's own SMP cluster
  with its placement (``own_smp``), each with the multi-material
  surcharge on (``surcharge``) and off (``plain``);
* ``small_deck`` — the same terms on the small deck at 16 and 24 ranks on
  the flat cluster, its SMP form and the SMP form under the comm-aware
  placement;
* ``pair_times`` — the sha256 of ``rank_pair_times``' ``indptr``,
  ``indices``, ``t_intra`` and ``t_inter`` bytes on every SMP case above;
* ``weak`` — the weak-scaled census terms at P = 64, 256 and 4096 (flat
  and SMP).  These record the values at capture time for comparison
  only: no test checks them.

Tables come from ``calibrate_contrived_grid(cluster, sides=[1, 8, 64])``.
Terms are hex floats, so a match is a bitwise match.  Only regenerate
after an *intentional* change to the model.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.core.assemble import apply_placement
from repro.hydro import build_workload_census
from repro.machine import es45_like_cluster
from repro.mesh import build_deck, build_face_table
from repro.partition import make_partition
from repro.perfmodel import (
    MeshSpecificModel,
    calibrate_contrived_grid,
    weak_scaled_census,
)
from repro.placement import rank_pair_times

GOLDEN_PATH = Path(__file__).resolve().parent / "mesh_model.json"

FUZZ_SEEDS = range(50)
SMALL_DECK_RANKS = (16, 24)
WEAK_RANKS = (64, 256, 4096)
SIDES = (1, 8, 64)
TERMS = ("computation", "boundary_exchange", "ghost_updates", "collectives")

_TABLES: dict = {}


def table_for(cluster):
    """The contrived-grid table of ``cluster``, computed once per machine.

    Calibration runs two ranks, so it uses the cluster without any
    explicit rank→node placement.
    """
    if cluster.hierarchy is not None and cluster.hierarchy.placement is not None:
        cluster = replace(
            cluster, hierarchy=replace(cluster.hierarchy, placement=None)
        )
    key = repr(cluster)
    if key not in _TABLES:
        _TABLES[key] = calibrate_contrived_grid(cluster, sides=list(SIDES))
    return _TABLES[key]


def flat_cluster():
    return es45_like_cluster()


def smp_cluster():
    return es45_like_cluster().with_smp()


def terms(cluster, census, surcharge: bool = True) -> list:
    """The four predicted terms as hex floats."""
    model = MeshSpecificModel(
        table=table_for(cluster),
        network=cluster.network,
        include_multi_surcharge=surcharge,
        hierarchy=cluster.hierarchy,
    )
    predicted = model.predict(census)
    return [float(getattr(predicted, name)).hex() for name in TERMS]


def both_surcharges(cluster, census) -> dict:
    return {
        "surcharge": terms(cluster, census, True),
        "plain": terms(cluster, census, False),
    }


def pair_times_digest(census, cluster) -> str:
    costs = rank_pair_times(census, cluster)
    digest = hashlib.sha256()
    for arr in (costs.indptr, costs.indices, costs.t_intra, costs.t_inter):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@lru_cache(maxsize=None)
def built_fuzz(seed: int):
    from repro.verify.scenarios import build_scenario, random_scenario

    return build_scenario(random_scenario(seed))


def fuzz_case(seed: int) -> dict:
    built = built_fuzz(seed)
    out = {
        "flat": both_surcharges(flat_cluster(), built.census),
        "smp": both_surcharges(smp_cluster(), built.census),
    }
    if built.smp_base is not None:
        out["own_smp"] = both_surcharges(built.cluster, built.census)
    return out


def fuzz_pair_times(seed: int) -> dict:
    built = built_fuzz(seed)
    out = {"smp": pair_times_digest(built.census, smp_cluster())}
    if built.smp_base is not None:
        out["own_smp"] = pair_times_digest(built.census, built.smp_base)
    return out


def small_deck_census(num_ranks: int):
    deck = build_deck("small")
    faces = build_face_table(deck.mesh)
    part = make_partition(
        deck.mesh, num_ranks, method="multilevel", seed=1, faces=faces
    )
    return build_workload_census(deck, part, faces)


def small_deck_clusters(num_ranks: int, census) -> dict:
    smp = smp_cluster()
    return {
        "flat": flat_cluster(),
        "smp": smp,
        "smp_comm_aware": apply_placement(smp, "comm-aware", num_ranks, census),
    }


def small_deck_case(num_ranks: int) -> dict:
    census = small_deck_census(num_ranks)
    return {
        name: terms(cluster, census)
        for name, cluster in small_deck_clusters(num_ranks, census).items()
    }


def small_deck_pair_times(num_ranks: int) -> str:
    return pair_times_digest(small_deck_census(num_ranks), smp_cluster())


def weak_case(num_ranks: int) -> dict:
    census = weak_scaled_census(num_ranks)
    return {
        "flat": terms(flat_cluster(), census),
        "smp": terms(smp_cluster(), census),
    }


def capture() -> dict:
    return {
        "fuzz": {str(s): fuzz_case(s) for s in FUZZ_SEEDS},
        "small_deck": {str(r): small_deck_case(r) for r in SMALL_DECK_RANKS},
        "pair_times": {
            "fuzz": {str(s): fuzz_pair_times(s) for s in FUZZ_SEEDS},
            "small_deck": {
                str(r): small_deck_pair_times(r) for r in SMALL_DECK_RANKS
            },
        },
        "weak": {str(p): weak_case(p) for p in WEAK_RANKS},
    }


def main() -> int:
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
