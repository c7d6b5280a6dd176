"""Regenerate the golden node maps of the comm-aware placement optimizers.

Run from the repository root::

    PYTHONPATH=src python tests/goldens/capture_placement_golden.py

The output ``tests/goldens/placement_maps.json`` was first written by the
dense ``(P, P)`` implementation of the placement API, which the CSR
structures (``SparseCommGraph``, ``SparsePairCosts``) have since replaced.
It pins, for fixed inputs:

* ``fuzz_comm_aware`` — the bytes-objective ``comm_aware_placement`` map of
  every fuzz scenario (seeds 0-49);
* ``smp_optimize`` — the priced ``optimize_placement`` map of every fuzz
  scenario with an SMP machine, plus the exact ``placement_comm_cost``
  ``(max, total)`` of the block, round-robin and optimized maps;
* ``random_greedy`` / ``random_comm_aware`` / ``random_minimax`` — the
  refiners on seeded random graphs (``greedy_refine`` from the round-robin
  start, ``comm_aware_placement``, exhaustive ``minimax_refine`` from the
  block start);
* ``minimax_large`` — exhaustive ``minimax_refine`` from the block start on
  seeded random cost graphs at 48, 64 and 128 ranks with 2, 4 and 8 ranks
  per node, with one spare node so moves as well as swaps are legal;
* ``minimax_ties`` — the same search where trials tie exactly: costs on a
  coarse dyadic grid (``t_inter`` equal to ``t_intra`` on some links),
  ``t_inter == t_intra`` everywhere, and ``t_inter < t_intra`` (spreading
  out wins);
* ``small_deck_optimize`` — ``optimize_placement`` on the small deck at 16,
  24 and 64 ranks on the overhead SMP cluster of the ``placement.*``
  benches.

Node maps are integer lists and costs are hex floats, so a match is a
bitwise match.  The script runs against either form of the API (dense
matrices or CSR structures) and must reproduce the file byte for byte on
both; only regenerate after an *intentional* change to the optimizers.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import numpy as np

from repro.placement import (
    SparseCommGraph,
    block_placement,
    comm_aware_placement,
    greedy_refine,
    minimax_refine,
    optimize_placement,
    placement_comm_cost,
    rank_comm_bytes,
    rank_pair_times,
    round_robin_placement,
)
from repro.placement.sparse import SparsePairCosts

GOLDEN_PATH = Path(__file__).resolve().parent / "placement_maps.json"

FUZZ_SEEDS = range(50)
RANDOM_SEEDS = range(8)
#: (ranks, ranks per node) of the random-graph refiner runs.
GREEDY_SHAPE = (24, 4)
COMM_AWARE_SHAPE = (20, 4)
MINIMAX_SHAPE = (24, 4)
#: (ranks, ranks per node) of the larger exhaustive minimax runs.
MINIMAX_LARGE_SHAPES = tuple((p, rpn) for p in (48, 64, 128) for rpn in (2, 4, 8))
#: (cost regime, ranks, ranks per node, seed) of the exact-tie minimax runs.
MINIMAX_TIE_CASES = tuple(
    (regime, p, rpn, seed)
    for regime in ("dyadic", "equal", "cheaper-inter")
    for p, rpn in ((24, 4), (48, 8))
    for seed in range(2)
)
SMALL_DECK_RANKS = (16, 24, 64)

#: True when the API takes dense ``(P, P)`` matrices rather than CSR forms.
DENSE_API = "t_intra" in inspect.signature(placement_comm_cost).parameters


def hexf(value: float) -> str:
    return float(value).hex()


def node_list(nodes) -> list:
    return [int(n) for n in np.asarray(nodes)]


def random_graph(num_ranks: int, seed: int, density: float = 0.2) -> np.ndarray:
    """Random symmetric zero-diagonal integer byte matrix."""
    rng = np.random.default_rng(seed)
    upper = np.triu(
        rng.integers(1, 10_000, size=(num_ranks, num_ranks)).astype(np.float64)
        * (rng.random((num_ranks, num_ranks)) < density),
        k=1,
    )
    return upper + upper.T


def csr_graph(dense: np.ndarray) -> SparseCommGraph:
    """The CSR graph of a dense symmetric byte matrix."""
    rows, cols = np.nonzero(dense)
    return SparseCommGraph.from_edges(dense.shape[0], rows, cols, dense[rows, cols])


def graph_arg(dense: np.ndarray):
    """A random graph in the form the placement API takes."""
    return dense if DENSE_API else csr_graph(dense)


def random_costs(num_ranks: int, seed: int) -> SparsePairCosts:
    """Priced costs on one random topology, ``t_inter`` dearer than ``t_intra``."""
    rng = np.random.default_rng(seed)
    graph = csr_graph(random_graph(num_ranks, seed))
    t_intra = rng.random(graph.num_entries) * 1e-5
    t_inter = t_intra + rng.random(graph.num_entries) * 1e-4
    return SparsePairCosts(
        num_ranks=num_ranks,
        indptr=graph.indptr,
        indices=graph.indices,
        t_intra=t_intra,
        t_inter=t_inter,
    )


def regime_costs(num_ranks: int, seed: int, regime: str) -> SparsePairCosts:
    """Priced costs on one random topology in a tie-prone regime.

    ``dyadic`` puts both prices on multiples of 2**-20 s with ``t_inter``
    equal to ``t_intra`` on about a third of the links, so many trial sums
    tie exactly; ``equal`` prices every link the same at both levels;
    ``cheaper-inter`` makes every inter-node price lower than its
    intra-node one.
    """
    rng = np.random.default_rng(seed)
    graph = csr_graph(random_graph(num_ranks, seed))
    size = graph.num_entries
    if regime == "dyadic":
        t_intra = rng.integers(1, 4, size).astype(np.float64) * 2.0**-20
        t_inter = t_intra + rng.integers(0, 3, size) * 2.0**-20
    elif regime == "equal":
        t_intra = rng.random(size) * 1e-5
        t_inter = t_intra.copy()
    elif regime == "cheaper-inter":
        t_intra = rng.random(size) * 1e-4
        t_inter = t_intra * rng.uniform(0.1, 0.9, size)
    else:
        raise ValueError(f"unknown cost regime {regime!r}")
    return SparsePairCosts(
        num_ranks=num_ranks,
        indptr=graph.indptr,
        indices=graph.indices,
        t_intra=t_intra,
        t_inter=t_inter,
    )


def cost_args(costs) -> tuple:
    """Priced costs (a dense pair or ``SparsePairCosts``) as API arguments."""
    if DENSE_API:
        return costs.to_dense() if isinstance(costs, SparsePairCosts) else costs
    return (costs,)


def fuzz_comm_aware(seed: int) -> list:
    from repro.verify.scenarios import build_scenario, random_scenario

    built = build_scenario(random_scenario(seed))
    graph = rank_comm_bytes(built.census)
    return node_list(
        comm_aware_placement(graph, built.scenario.ranks_per_node).node_of_rank
    )


def smp_seeds() -> list:
    """Fuzz seeds whose scenario carries an SMP machine."""
    from repro.verify.scenarios import random_scenario

    return [s for s in FUZZ_SEEDS if random_scenario(s).smp]


def smp_optimize(seed: int) -> dict:
    from repro.verify.scenarios import build_scenario, random_scenario

    built = build_scenario(random_scenario(seed))
    ranks, rpn = built.scenario.num_ranks, built.scenario.ranks_per_node
    optimized = optimize_placement(built.census, built.smp_base)
    args = cost_args(rank_pair_times(built.census, built.smp_base))
    maps = {
        "block": block_placement(ranks, rpn).node_of_rank,
        "round-robin": round_robin_placement(ranks, rpn).node_of_rank,
        "optimized": optimized.node_of_rank,
    }
    return {
        "map": node_list(optimized.node_of_rank),
        "cost": {
            name: [hexf(v) for v in placement_comm_cost(nodes, *args)]
            for name, nodes in maps.items()
        },
    }


def random_greedy(seed: int) -> list:
    num_ranks, rpn = GREEDY_SHAPE
    num_nodes = num_ranks // rpn
    start = np.arange(num_ranks, dtype=np.int64) % num_nodes
    graph = graph_arg(random_graph(num_ranks, seed))
    return node_list(greedy_refine(start, graph, rpn, num_nodes))


def random_comm_aware(seed: int) -> list:
    num_ranks, rpn = COMM_AWARE_SHAPE
    graph = graph_arg(random_graph(num_ranks, seed))
    return node_list(comm_aware_placement(graph, rpn).node_of_rank)


def random_minimax(seed: int) -> list:
    num_ranks, rpn = MINIMAX_SHAPE
    num_nodes = num_ranks // rpn
    start = np.arange(num_ranks, dtype=np.int64) // rpn
    args = cost_args(random_costs(num_ranks, seed))
    return node_list(minimax_refine(start, *args, rpn, num_nodes))


def spare_node_minimax(costs: SparsePairCosts, rpn: int) -> list:
    """Exhaustive ``minimax_refine`` from the block start, one node spare."""
    num_ranks = costs.num_ranks
    num_nodes = num_ranks // rpn + 1
    start = np.arange(num_ranks, dtype=np.int64) // rpn
    return node_list(minimax_refine(start, *cost_args(costs), rpn, num_nodes))


def minimax_large(num_ranks: int, rpn: int) -> list:
    return spare_node_minimax(random_costs(num_ranks, seed=num_ranks + rpn), rpn)


def minimax_ties(regime: str, num_ranks: int, rpn: int, seed: int) -> list:
    return spare_node_minimax(regime_costs(num_ranks, seed, regime), rpn)


def case_key(*parts) -> str:
    return "/".join(str(p) for p in parts)


def small_deck_optimize(num_ranks: int) -> list:
    from repro.hydro import build_workload_census
    from repro.machine import es45_like_cluster
    from repro.mesh import build_deck, build_face_table
    from repro.partition import make_partition

    deck = build_deck("small")
    faces = build_face_table(deck.mesh)
    part = make_partition(
        deck.mesh, num_ranks, method="multilevel", seed=1, faces=faces
    )
    census = build_workload_census(deck, part, faces)
    cluster = es45_like_cluster().with_smp(
        ranks_per_node=4, intra_send_overhead=0.5e-6, intra_recv_overhead=0.7e-6
    )
    return node_list(optimize_placement(census, cluster).node_of_rank)


def capture() -> dict:
    return {
        "fuzz_comm_aware": {str(s): fuzz_comm_aware(s) for s in FUZZ_SEEDS},
        "smp_optimize": {str(s): smp_optimize(s) for s in smp_seeds()},
        "random_greedy": {str(s): random_greedy(s) for s in RANDOM_SEEDS},
        "random_comm_aware": {str(s): random_comm_aware(s) for s in RANDOM_SEEDS},
        "random_minimax": {str(s): random_minimax(s) for s in RANDOM_SEEDS},
        "minimax_large": {
            case_key(*shape): minimax_large(*shape) for shape in MINIMAX_LARGE_SHAPES
        },
        "minimax_ties": {
            case_key(*case): minimax_ties(*case) for case in MINIMAX_TIE_CASES
        },
        "small_deck_optimize": {
            str(r): small_deck_optimize(r) for r in SMALL_DECK_RANKS
        },
    }


def main() -> int:
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
