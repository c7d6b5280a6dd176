#!/usr/bin/env python
"""Straggler study: does ``imbalance:X`` beat ``every:N`` under noise?

The dynamic layer repartitions when the *census-weighted* load imbalance
drifts (the burn front moving through the HE material).  Stragglers are a
different kind of imbalance: transient, per-(rank, iteration) slowdowns
the census never sees and no repartition can fix — the slow rank next
iteration is a fresh draw.  So when stragglers dominate, a fixed-cadence
``every:N`` policy keeps paying the census-allgather + cell-migration
bill for partitions that cannot help, while ``imbalance:X`` only fires
when the burn-driven (fixable) imbalance actually crosses its threshold.

This study sweeps straggler amplitude against the three policies on one
deck and prints, per (noise, policy): mean iteration time (including the
modelled repartition cost), the slowdown vs the ``never`` control at the
same noise level, and the repartition tally.  The expected shape: at
zero noise the adaptive policies reproduce the clean study; as straggler
noise grows, ``every:N``'s overhead stays (repartitions fire on
schedule) while its benefit shrinks relative to the noise floor, and
``imbalance:X`` converges to ``never`` — firing rarely wins.

Run:  python examples/straggler_repartition_study.py [--deck small]
          [--ranks 16] [--iterations 16] [--burn-mult 8]
          [--policies never,every:4,imbalance:1.15]
          [--noise 0,0.05x4,0.25x4] [--seed 7] [--smoke]
"""

import argparse

from repro.analysis import TextTable
from repro.api import run_krak
from repro.hydro import DynamicSpec
from repro.machine import es45_like_cluster
from repro.mesh import build_deck, build_face_table
from repro.partition import cached_partition
from repro.perturb import PerturbSpec, parse_perturb


def parse_noise(token: str, seed: int) -> PerturbSpec | None:
    """``PROBxFACTOR`` (or bare ``PROB``, or ``0``) → straggler spec."""
    token = token.strip()
    prob, sep, factor = token.partition("x")
    spec = PerturbSpec(
        seed=seed,
        straggler_prob=float(prob),
        straggler_factor=float(factor) if sep else 4.0,
    )
    return None if spec.is_null else spec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--deck", default="small", help="small|medium|large or NXxNY")
    parser.add_argument("--ranks", type=int, default=16)
    parser.add_argument("--iterations", type=int, default=16)
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument(
        "--burn-mult", type=float, default=8.0,
        help="cost multiplier for actively-burning cells (the fixable imbalance)",
    )
    parser.add_argument(
        "--policies", default="never,every:4,imbalance:1.15",
        help="comma list of never|every:N|imbalance:X",
    )
    parser.add_argument(
        "--noise", default="0,0.05x4,0.25x4",
        help="comma list of straggler levels PROBxFACTOR (0 = clean)",
    )
    parser.add_argument(
        "--seed", type=int, default=7,
        help="perturbation seed (common random numbers across policies)",
    )
    parser.add_argument(
        "--perturb", default=None,
        help="full perturbation token overriding --noise (see docs/perturbations.md)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny configuration for CI smoke runs (seconds, not minutes)",
    )
    args = parser.parse_args()

    if args.smoke:
        args.deck, args.ranks, args.iterations = "32x16", 8, 6
        args.noise = "0,0.5x4"

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
    if args.perturb is not None:
        perturbs = [parse_perturb(args.perturb)]
    else:
        perturbs = [
            parse_noise(level, args.seed)
            for level in args.noise.split(",")
            if level.strip()
        ]

    table = TextTable(
        f"straggler noise vs repartitioning policy, {deck.name} deck, "
        f"{args.ranks} ranks, burning cells x{args.burn_mult:g}",
        ["noise", "policy", "iter (ms)", "vs never", "repartitions", "cells moved"],
    )
    winners = []
    for perturb in perturbs:
        label = "none" if perturb is None else perturb.label
        baseline = None
        best = None
        for spec in specs:
            run = run_krak(
                deck,
                partition,
                cluster=cluster,
                iterations=args.iterations,
                faces=faces,
                dynamic=spec,
                perturb=perturb,
            )
            seconds = run.mean_iteration_time(args.warmup)
            info = run.dynamic
            if baseline is None:
                baseline = seconds  # first policy is the control
            if best is None or seconds < best[1]:
                best = (info.policy, seconds)
            table.add_row(
                label,
                info.policy,
                seconds * 1e3,
                f"{(seconds / baseline - 1) * 100:+.1f}%",
                info.num_repartitions,
                info.cells_moved,
            )
            print(f"  {label} / {info.policy}: done", flush=True)
        winners.append((label, best[0]))

    print()
    print(table.render())
    print()
    for label, winner in winners:
        print(f"cheapest policy at noise={label}: {winner}")
    print(
        "\nReading: repartitioning can only fix census-visible (burn-driven)"
        "\nimbalance. Stragglers are invisible to the census and transient, so"
        "\nas they grow, every:N keeps paying migration cost for no benefit"
        "\nwhile imbalance:X fires only on the fixable part."
    )


if __name__ == "__main__":
    main()
