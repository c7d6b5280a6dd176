#!/usr/bin/env python
"""Partition study: what the data-partitioning algorithm costs at runtime.

The paper motivates performance models as tools for "quantitatively
evaluating the potential performance benefit of alterations to the
application, such as the data-partitioning algorithms".  This example does
exactly that: it partitions one deck with the multilevel Metis-analogue,
recursive coordinate bisection, and two block baselines, then compares both
partition quality and the resulting simulated iteration time.

The per-method measurements are a measurement-only sweep grid (no model
predictions, so no calibration) on :mod:`repro.analysis.runner`: methods
run concurrently with ``--jobs`` and finished methods replay from the
result store on re-runs.

Run:  python examples/partition_study.py [--deck small] [--ranks 16] [--jobs 4]
"""

import argparse

from repro.analysis import SweepSpec, TextTable, prediction_store, run_sweep
from repro.mesh import build_deck, build_face_table
from repro.partition import (
    cached_partition,
    dual_graph_of_mesh,
    partition_quality,
)

METHODS = ("multilevel", "rcb", "structured-block", "block")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--deck", default="small", help="small|medium|large or NXxNY")
    parser.add_argument("--ranks", type=int, default=16)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--no-cache", action="store_true", help="recompute instead of resuming"
    )
    args = parser.parse_args()

    spec = SweepSpec(
        decks=(args.deck,),
        rank_counts=(args.ranks,),
        partition_methods=METHODS,
        models=(),  # measurement only — no calibration needed
        seeds=(1,),
    )

    def progress(done, total, task, point, cached):
        source = "store" if cached else "simulated"
        print(f"  [{done}/{total}] {task.partition_method}: {source}", flush=True)

    outcomes = run_sweep(
        spec,
        jobs=args.jobs,
        store=None if args.no_cache else prediction_store(),
        progress=progress,
    )

    # Partition quality is computed in-process: the sweep workers populated
    # the partition cache, so these lookups are disk reads, not re-partitions.
    deck = build_deck(
        args.deck
        if "x" not in args.deck
        else tuple(int(v) for v in args.deck.split("x"))
    )
    faces = build_face_table(deck.mesh)
    graph = dual_graph_of_mesh(deck.mesh, faces)

    report = TextTable(
        f"partitioner comparison, {deck.name} deck, {args.ranks} ranks",
        [
            "method",
            "edge cut",
            "imbalance",
            "mean nbrs",
            "max nbrs",
            "iter time (ms)",
            "vs best",
        ],
    )
    rows = []
    for outcome in outcomes:
        method = outcome.task.partition_method
        part = cached_partition(deck, args.ranks, method=method, seed=1, faces=faces)
        rows.append((method, partition_quality(graph, part), outcome.point.measured))

    best = min(t for _, _, t in rows)
    for method, q, t in rows:
        report.add_row(
            method,
            q.edge_cut,
            q.imbalance,
            q.mean_neighbors,
            q.max_neighbors,
            t * 1e3,
            f"{(t / best - 1) * 100:+.1f}%",
        )
    print()
    print(report.render())


if __name__ == "__main__":
    main()
