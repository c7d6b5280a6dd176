#!/usr/bin/env python
"""Dynamic repartitioning study: imbalance-vs-time under each policy.

The burn front (Section 2.1) moves through the HE material, so per-cell
cost — and therefore the weighted load balance of any static partition —
evolves over the run.  This study runs one deck under the three
repartitioning policies (``never``, ``every:N``, ``imbalance:X``), prints
each policy's load-imbalance trajectory as a plot-ready text series, and
compares steady-state iteration times including the modelled repartition
cost (census allgather + cell-migration messages).

Run:  python examples/dynamic_repartition_study.py [--deck small]
          [--ranks 16] [--iterations 16] [--burn-mult 8]
          [--policies never,every:4,imbalance:1.15] [--smoke]
"""

import argparse

from repro.analysis import TextTable, format_series
from repro.api import run_krak
from repro.hydro import DynamicSpec
from repro.machine import es45_like_cluster
from repro.mesh import build_deck, build_face_table
from repro.partition import cached_partition


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--deck", default="small", help="small|medium|large or NXxNY")
    parser.add_argument("--ranks", type=int, default=16)
    parser.add_argument("--iterations", type=int, default=16)
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument(
        "--burn-mult", type=float, default=8.0,
        help="cost multiplier for actively-burning cells",
    )
    parser.add_argument(
        "--policies", default="never,every:4,imbalance:1.15",
        help="comma list of never|every:N|imbalance:X",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny configuration for CI smoke runs (seconds, not minutes)",
    )
    args = parser.parse_args()

    if args.smoke:
        args.deck, args.ranks, args.iterations = "32x16", 8, 6

    deck = build_deck(
        args.deck
        if "x" not in args.deck
        else tuple(int(v) for v in args.deck.split("x"))
    )
    cluster = es45_like_cluster()
    faces = build_face_table(deck.mesh)
    partition = cached_partition(deck, args.ranks, seed=1, faces=faces)
    specs = [
        DynamicSpec(policy=p.strip(), burn_multiplier=args.burn_mult)
        for p in args.policies.split(",")
        if p.strip()
    ]

    table = TextTable(
        f"repartitioning policies, {deck.name} deck, {args.ranks} ranks, "
        f"burning cells x{args.burn_mult:g}",
        ["policy", "iter (ms)", "vs never", "repartitions", "cells moved"],
    )
    series = []
    baseline = None
    for spec in specs:
        run = run_krak(
            deck,
            partition,
            cluster=cluster,
            iterations=args.iterations,
            faces=faces,
            dynamic=spec,
        )
        seconds = run.mean_iteration_time(args.warmup)
        info = run.dynamic
        if baseline is None:
            baseline = seconds
        table.add_row(
            info.policy,
            seconds * 1e3,
            f"{(seconds / baseline - 1) * 100:+.1f}%",
            info.num_repartitions,
            info.cells_moved,
        )
        times, imbalances = info.imbalance_series()
        series.append(
            format_series(f"imbalance vs time [{info.policy}]", times, imbalances, "s", "")
        )
        print(f"  {info.policy}: done", flush=True)

    print()
    print(table.render())
    for text in series:
        print()
        print(text)


if __name__ == "__main__":
    main()
