"""The CSR placement path reproduces the dense ``(P, P)`` reference.

The dense implementation of the placement API is pinned as data:
``tests/goldens/placement_maps.json`` records, captured from it, the node
maps and exact priced costs of every fuzz scenario (see
``tests/goldens/capture_placement_golden.py``).  The one (CSR)
implementation must reproduce them bitwise —

* the bytes-objective optimizer's node map on every seed (integer-exact
  sums, provably complete candidate sets, preserved scan order);
* the priced ``(max, total)`` objective of the block, round-robin and
  optimized maps, and the full optimizer's node map, on every SMP seed;
* the full optimizer on the small deck at 16 and 24 ranks.

Full model predictions have one implementation too: ``predict`` prices the
columnar workload census.  ``tests/goldens/mesh_model.json`` pins the
object-walk implementation it replaced, and the predictions must reproduce
it bitwise.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.verify.scenarios import build_scenario, random_scenario

GOLDENS_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN = json.loads((GOLDENS_DIR / "placement_maps.json").read_text())
MODEL_GOLDEN = json.loads((GOLDENS_DIR / "mesh_model.json").read_text())
MODEL_TERMS = ("computation", "boundary_exchange", "ghost_updates", "collectives")


def _load_capture_module():
    """Import the capture script from its file path (not a package module)."""
    spec = importlib.util.spec_from_file_location(
        "capture_placement_golden", GOLDENS_DIR / "capture_placement_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("capture_placement_golden", module)
    spec.loader.exec_module(module)
    return module


capture = _load_capture_module()

#: Fuzz seeds whose scenario carries an SMP machine.
SMP_SEEDS = sorted(int(s) for s in GOLDEN["smp_optimize"])


def _built(seed: int):
    return build_scenario(random_scenario(seed))


def test_golden_covers_every_seed():
    assert sorted(int(s) for s in GOLDEN["fuzz_comm_aware"]) == list(
        capture.FUZZ_SEEDS
    )
    assert SMP_SEEDS == capture.smp_seeds()


@pytest.mark.parametrize("seed", capture.FUZZ_SEEDS)
def test_graph_and_bytes_objective_bitwise(seed):
    # The bytes-objective optimizer: identical node map, not just an
    # equally good one.
    assert capture.fuzz_comm_aware(seed) == GOLDEN["fuzz_comm_aware"][str(seed)]


@pytest.mark.parametrize("seed", SMP_SEEDS)
def test_priced_costs_within_tolerance(seed):
    # Exact hex floats: the priced objective is row-summed exactly as the
    # dense reference did at these rank counts.
    expected = GOLDEN["smp_optimize"][str(seed)]
    assert capture.smp_optimize(seed)["cost"] == expected["cost"]


@pytest.mark.parametrize("seed", SMP_SEEDS)
def test_full_optimizer_same_node_map(seed):
    # The complete priced pipeline (bytes start + minimax refinement).
    expected = GOLDEN["smp_optimize"][str(seed)]
    assert capture.smp_optimize(seed)["map"] == expected["map"]


@pytest.mark.parametrize("ranks", capture.SMALL_DECK_RANKS)
def test_small_deck_optimizer_node_map(ranks):
    expected = GOLDEN["small_deck_optimize"][str(ranks)]
    assert capture.small_deck_optimize(ranks) == expected


@pytest.mark.parametrize("seed", range(0, 50, 5))
@pytest.mark.parametrize("smp", [False, True])
def test_model_predictions_within_tolerance(seed, smp):
    # The columnar census must give the object-walk model's pinned terms
    # bit for bit.
    from repro.machine import es45_like_cluster
    from repro.perfmodel import MeshSpecificModel, calibrate_contrived_grid

    built = _built(seed)
    cluster = es45_like_cluster()
    if smp:
        cluster = cluster.with_smp()
    table = calibrate_contrived_grid(cluster, sides=[1, 8, 64])
    model = MeshSpecificModel(
        table=table,
        network=cluster.network,
        hierarchy=cluster.hierarchy,
    )
    expected = MODEL_GOLDEN["fuzz"][str(seed)]["smp" if smp else "flat"]
    predicted = model.predict(built.census)
    assert [
        float(getattr(predicted, name)).hex() for name in MODEL_TERMS
    ] == expected["surcharge"]
