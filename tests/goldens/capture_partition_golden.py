"""Regenerate the golden partitions of the multilevel partitioner.

Run from the repository root::

    PYTHONPATH=src python tests/goldens/capture_partition_golden.py

The output ``tests/goldens/partitions.json`` pins, as the SHA-256 of the
``int64`` label bytes (so a match is a bitwise match):

* ``deck`` — ``multilevel_partition`` of the ``small`` and ``medium`` decks
  at 4, 16, 64 and 256 ranks (seed 0);
* ``weighted`` — ``weighted_repartition`` of the ``small`` deck at 4 and 8
  ranks under a seeded per-cell work vector;
* ``random`` — ``multilevel_partition_graph`` on seeded random graphs with
  isolated vertices, disconnected components, heavy edge weights and
  non-unit vertex weights, so matching refuses pairs over ``max_vweight``;
* ``fm`` — the ``fm_refine`` cut and the digest of the refined sides on
  the same graphs, from a seeded random bisection.

Every rank count, seed and draw is fixed; regenerate only after an
*intentional* change to the partitioner, which moves every partition cache
entry and so needs a ``MODEL_VERSION`` bump.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "partitions.json"

DECKS = ("small", "medium")
DECK_RANKS = (4, 16, 64, 256)
WEIGHTED_RANKS = (4, 8)
RANDOM_SEEDS = range(6)
#: Rank counts of the ``multilevel_partition_graph`` runs on random graphs.
RANDOM_RANKS = (2, 5, 8)


def digest(values) -> str:
    """SHA-256 of an integer array as contiguous ``int64`` bytes."""
    data = np.ascontiguousarray(np.asarray(values, dtype=np.int64)).tobytes()
    return hashlib.sha256(data).hexdigest()


def random_graph(seed: int):
    """A seeded weighted graph that exercises every partitioner branch.

    A few components of random local edges, a run of isolated vertices,
    duplicate arcs (merged by ``graph_from_edges``), a tenth of the edges
    a thousand times heavier, and vertex weights 1–6.
    """
    from repro.partition.graph import graph_from_edges

    rng = np.random.default_rng(seed)
    sizes = rng.integers(60, 260, size=int(rng.integers(2, 5)))
    isolated = int(rng.integers(3, 12))
    us, vs = [], []
    offset = 0
    for size in sizes.tolist():
        a = rng.integers(0, size, size=3 * size)
        b = np.clip(a + rng.integers(-6, 7, size=a.size), 0, size - 1)
        us.append(a + offset)
        vs.append(b + offset)
        offset += size
    u = np.concatenate(us)
    v = np.concatenate(vs)
    w = rng.integers(1, 4, size=u.size)
    heavy = rng.random(u.size) < 0.1
    w[heavy] *= 1000
    n = offset + isolated
    vweights = rng.integers(1, 7, size=n)
    return graph_from_edges(n, u, v, w, vweights)


def deck_partition(name: str, num_ranks: int) -> str:
    from repro.mesh import build_deck, build_face_table
    from repro.partition import multilevel_partition

    deck = build_deck(name)
    faces = build_face_table(deck.mesh)
    return digest(multilevel_partition(deck.mesh, num_ranks, faces=faces).cell_rank)


def weighted(num_ranks: int) -> str:
    from repro.mesh import build_deck
    from repro.partition import weighted_repartition
    from repro.partition.dynamic import clear_repartition_memo

    deck = build_deck("small")
    work = np.random.default_rng(7).integers(1, 40, size=deck.mesh.num_cells)
    clear_repartition_memo()
    part = weighted_repartition(deck.mesh, work, num_ranks, seed=3)
    return digest(part.cell_rank)


def random_partition(seed: int, num_ranks: int) -> str:
    from repro.partition.multilevel import multilevel_partition_graph

    return digest(multilevel_partition_graph(random_graph(seed), num_ranks, seed=seed))


def fm(seed: int) -> dict:
    from repro.partition.refine import fm_refine

    graph = random_graph(seed)
    rng = np.random.default_rng(seed + 100)
    side = rng.integers(0, 2, size=graph.num_vertices).astype(np.int64)
    cut = fm_refine(graph, side, target_frac0=0.4, rng=rng, imbalance_tol=0.05)
    return {"cut": int(cut), "side": digest(side)}


def capture() -> dict:
    return {
        "deck": {
            f"{name}/{p}": deck_partition(name, p) for name in DECKS for p in DECK_RANKS
        },
        "weighted": {str(p): weighted(p) for p in WEIGHTED_RANKS},
        "random": {
            f"{s}/{p}": random_partition(s, p) for s in RANDOM_SEEDS for p in RANDOM_RANKS
        },
        "fm": {str(s): fm(s) for s in RANDOM_SEEDS},
    }


def main() -> int:
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
