#!/usr/bin/env python
"""Placement study: what rank→node mapping does to SMP iteration time.

The validation machine packs ranks onto 4-way SMP nodes, so every partition
scenario is really a *family* of scenarios — one per rank→node placement.
This study measures one deck under each placement strategy (block,
round-robin, random, comm-aware) across several rank counts, reporting
inter-node traffic shares and simulated iteration times, then shows the
communication-aware optimizer's margin over the launcher's block default.

Run:  python examples/placement_study.py [--deck small] [--ranks 16,32]
          [--ranks-per-node 4] [--speed 8]
          [--strategies block,round-robin,random:1,comm-aware] [--smoke]
"""

import argparse

from repro.analysis import TextTable
from repro.hydro import build_workload_census, measure_iteration_time
from repro.machine import es45_like_cluster
from repro.mesh import build_deck, build_face_table
from repro.partition import cached_partition
from repro.placement import (
    inter_node_bytes,
    make_placement,
    placement_comm_cost,
    rank_comm_bytes,
    rank_pair_times,
    total_pair_bytes,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--deck", default="small", help="small|medium|large or NXxNY")
    parser.add_argument("--ranks", default="16,32", help="comma list of PE counts")
    parser.add_argument("--ranks-per-node", type=int, default=4)
    parser.add_argument(
        "--speed", type=float, default=8.0,
        help="CPU speed multiplier (faster CPUs make placement matter more)",
    )
    parser.add_argument(
        "--strategies", default="block,round-robin,random:1,comm-aware",
        help="comma list of block|round-robin|random[:seed]|comm-aware",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny configuration for CI smoke runs (seconds, not minutes)",
    )
    args = parser.parse_args()

    if args.smoke:
        args.deck, args.ranks = "32x16", "8"

    deck = build_deck(
        args.deck
        if "x" not in args.deck
        else tuple(int(v) for v in args.deck.split("x"))
    )
    faces = build_face_table(deck.mesh)
    cluster = es45_like_cluster(speed=args.speed).with_smp(
        ranks_per_node=args.ranks_per_node,
        intra_send_overhead=0.5e-6,
        intra_recv_overhead=0.7e-6,
    )
    rank_counts = [int(v) for v in args.ranks.split(",") if v.strip()]
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]

    for num_ranks in rank_counts:
        partition = cached_partition(
            deck, num_ranks, seed=args.seed, faces=faces
        )
        census = build_workload_census(deck, partition, faces)
        graph = rank_comm_bytes(census)
        total = total_pair_bytes(graph)
        costs = rank_pair_times(census, cluster)

        table = TextTable(
            f"{deck.name} deck, {num_ranks} ranks on {cluster.name} "
            f"({args.ranks_per_node}/node)",
            ["strategy", "inter-node share", "max rank p2p (ms)",
             "measured (ms)", "vs block"],
        )
        block = make_placement(
            "block", num_ranks=num_ranks, ranks_per_node=args.ranks_per_node
        )
        baseline = measure_iteration_time(
            deck, partition, cluster=cluster.with_placement(block),
            faces=faces, census=census,
        ).seconds
        for strategy in strategies:
            placement = make_placement(
                strategy,
                num_ranks=num_ranks,
                ranks_per_node=args.ranks_per_node,
                census=census,
                cluster=cluster,
                seed=args.seed,
            )
            seconds = (
                baseline
                if strategy == "block"
                else measure_iteration_time(
                    deck, partition, cluster=cluster.with_placement(placement),
                    faces=faces, census=census,
                ).seconds
            )
            share = inter_node_bytes(placement, graph) / total if total else 0.0
            max_cost, _ = placement_comm_cost(placement.node_of_rank, costs)
            table.add_row(
                placement.name,
                f"{share * 100:.0f}%",
                max_cost * 1e3,
                seconds * 1e3,
                f"{(baseline - seconds) / baseline * 100:+.2f}%",
            )
            print(f"  {placement.name}: done", flush=True)
        print()
        print(table.render())
        print()


if __name__ == "__main__":
    main()
