#!/usr/bin/env python
"""Scaling study: the Figure-5 workflow on any deck.

Sweeps processor counts in powers of two, "measuring" each configuration on
the simulated machine and predicting it with both general-model variants.
This is the paper's core use case: projecting strong-scaling behaviour for
machine procurement.

The sweep runs on the orchestration engine of
:mod:`repro.analysis.runner`: pass ``--jobs N`` to evaluate points on N
worker processes, and re-run the same command to resume — finished points
replay from the on-disk result store instead of being simulated again
(``--no-cache`` disables the store).

Run:  python examples/scaling_study.py [--deck medium] [--max-ranks 256] [--jobs 4]
"""

import argparse

from repro.analysis import SweepSpec, TextTable, prediction_store, run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--deck", default="small", help="small|medium|large or NXxNY")
    parser.add_argument("--max-ranks", type=int, default=128)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--no-cache", action="store_true", help="recompute instead of resuming"
    )
    args = parser.parse_args()

    spec = SweepSpec.figure5(decks=(args.deck,), max_ranks=args.max_ranks, max_side=256)

    def progress(done, total, task, point, cached):
        source = "store" if cached else "simulated"
        print(f"  [{done}/{total}] P = {task.num_ranks}: {source}", flush=True)

    print(f"calibrating, then sweeping P = 1 .. {args.max_ranks} on the {args.deck} deck ...")
    outcomes = run_sweep(
        spec,
        jobs=args.jobs,
        store=None if args.no_cache else prediction_store(),
        progress=progress,
    )
    points = [outcome.point for outcome in outcomes]
    deck = outcomes[0].task.deck

    report = TextTable(
        f"strong scaling, {deck.name} deck ({deck.num_cells} cells)",
        [
            "PEs",
            "measured (ms)",
            "homogeneous (ms)",
            "err",
            "heterogeneous (ms)",
            "err",
        ],
    )
    for pt in points:
        report.add_row(
            pt.num_ranks,
            pt.measured * 1e3,
            pt.predicted["homogeneous"] * 1e3,
            f"{pt.error('homogeneous') * 100:+.0f}%",
            pt.predicted["heterogeneous"] * 1e3,
            f"{pt.error('heterogeneous') * 100:+.0f}%",
        )
    print()
    print(report.render())

    # Parallel efficiency relative to the single-rank measurement.
    base = points[0].measured
    eff = TextTable("parallel efficiency (measured)", ["PEs", "speedup", "efficiency"])
    for pt in points:
        speedup = base / pt.measured
        eff.add_row(pt.num_ranks, f"{speedup:.1f}x", f"{speedup / pt.num_ranks * 100:.0f}%")
    print()
    print(eff.render())


if __name__ == "__main__":
    main()
