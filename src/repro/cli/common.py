"""Shared CLI plumbing: spec parsing and argument groups.

Every subcommand module builds its inputs through the model core
(:mod:`repro.core`) — deck specs, cluster specs, comma lists — so the CLI
never re-implements a constructor the sweep runner, the verifier, or the
prediction service uses.  This module only adapts ``argparse`` namespaces
to core types.
"""

from __future__ import annotations

from repro.analysis import ClusterSpec, DynamicSpec, SweepSpec, powers_of_two
from repro.core import csv_ints, csv_strings, deck_label, parse_deck
from repro.perturb import parse_perturb

__all__ = [
    "add_common_arguments",
    "add_grid_arguments",
    "add_place_arguments",
    "csv_ints",
    "csv_strings",
    "deck_label",
    "dynamic_label",
    "dynamics_from_args",
    "make_cluster",
    "parse_deck",
    "perturb_label",
    "perturbs_from_args",
    "placement_label",
    "placements_from_args",
    "spec_from_args",
]


def make_cluster(args):
    """The simulated machine an argument namespace describes."""
    return ClusterSpec(speed=args.speed, smp=getattr(args, "smp", False)).build()


def dynamics_from_args(args) -> tuple:
    """Workload-axis entries: ``static`` → None, anything else a policy spec
    (``never``/``every:N``/``imbalance:X``) shared across the other knobs."""
    out = []
    for token in csv_strings(args.dynamic):
        if token == "static":
            out.append(None)
        else:
            out.append(
                DynamicSpec(
                    policy=token,
                    burn_multiplier=args.burn_mult,
                    iterations=args.dyn_iterations,
                )
            )
    return tuple(out)


def dynamic_label(task) -> str:
    """Workload tag of a task for progress lines and table titles."""
    return "static" if task.dynamic is None else task.dynamic.label


def placements_from_args(args) -> tuple:
    """Placement-axis entries: ``default`` → None (implicit block map),
    anything else a strategy name for :func:`repro.placement.make_placement`."""
    return tuple(
        None if token in ("default", "none") else token
        for token in csv_strings(args.placements)
    )


def placement_label(task) -> str:
    """Placement tag of a task for progress lines and table titles."""
    return "default" if task.placement is None else task.placement


def perturbs_from_args(args) -> tuple:
    """Perturbation-axis entries: ``none`` → None (clean machine), anything
    else a ``+``-joined clause spec for :func:`repro.perturb.parse_perturb`
    (e.g. ``noise:0.05+straggler:0.1x4+seed:7``)."""
    return tuple(parse_perturb(token) for token in csv_strings(args.perturb))


def perturb_label(task) -> str:
    """Perturbation tag of a task for progress lines and table titles."""
    return "none" if task.perturb is None else task.perturb.label


def spec_from_args(args) -> SweepSpec:
    """Build the declarative grid shared by ``sweep run|status|clear``.

    Cross-axis rules (a placement needs ``--smp``; churn needs every
    ``--dynamic`` entry to be a policy) are the grid's requests' own
    checks, which :meth:`SweepSpec.requests` runs before any point.
    """
    ranks = csv_ints(args.ranks) if args.ranks else powers_of_two(args.max_ranks)
    return SweepSpec(
        decks=csv_strings(args.decks),
        rank_counts=ranks,
        clusters=(ClusterSpec(speed=args.speed, smp=args.smp),),
        partition_methods=csv_strings(args.methods),
        models=csv_strings(args.models),
        seeds=csv_ints(args.seeds),
        dynamics=dynamics_from_args(args),
        placements=placements_from_args(args),
        perturbs=perturbs_from_args(args),
        max_side=args.max_side,
    )


def add_common_arguments(p) -> None:
    """The deck/machine/seed flags most single-point commands share."""
    p.add_argument("--deck", default="small", help="small|medium|large or NXxNY")
    p.add_argument("--speed", type=float, default=1.0, help="CPU speed multiplier")
    p.add_argument("--smp", action="store_true", help="enable 4-way SMP hierarchy")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-side", type=int, default=256, help="calibration range")


def add_grid_arguments(p) -> None:
    """The declarative-grid axes shared by ``sweep run|status|clear``."""
    p.add_argument(
        "--decks", default="small", help="comma list: small|medium|large or NXxNY"
    )
    p.add_argument(
        "--ranks", default="", help="comma list of PE counts (overrides --max-ranks)"
    )
    p.add_argument(
        "--max-ranks", type=int, default=64, help="powers of two up to this"
    )
    p.add_argument(
        "--methods", default="multilevel",
        help="comma list: multilevel|rcb|block|structured-block",
    )
    p.add_argument(
        "--models", default="homogeneous,heterogeneous",
        help="comma list: mesh-specific|homogeneous|heterogeneous",
    )
    p.add_argument("--seeds", default="1", help="comma list of partition seeds")
    p.add_argument("--speed", type=float, default=1.0, help="CPU speed multiplier")
    p.add_argument("--smp", action="store_true", help="enable 4-way SMP hierarchy")
    p.add_argument("--max-side", type=int, default=256, help="calibration range")
    p.add_argument(
        "--dynamic", default="static",
        help=(
            "comma list of workloads: static (no time evolution) or a "
            "repartition policy never|every:N|imbalance:X"
        ),
    )
    p.add_argument(
        "--burn-mult", type=float, default=4.0,
        help="cost multiplier for actively-burning cells (dynamic runs)",
    )
    p.add_argument(
        "--dyn-iterations", type=int, default=12,
        help="iterations per dynamic run (static runs keep the default 3)",
    )
    p.add_argument(
        "--placements", default="default",
        help=(
            "comma list of rank placements (requires --smp): default "
            "(implicit block map) or block|round-robin|random[:seed]|"
            "comm-aware"
        ),
    )
    p.add_argument(
        "--perturb", default="none",
        help=(
            "comma list of perturbations: none (clean machine) or "
            "'+'-joined clauses noise:X | straggler:PxF | degrade:M | "
            "fail:R@IxS | churn:P | seed:N "
            "(e.g. noise:0.05+straggler:0.1x4+seed:7; churn needs --dynamic)"
        ),
    )


def add_place_arguments(p) -> None:
    """The configuration flags shared by ``place compare`` and ``place
    optimize``."""
    p.add_argument("--deck", default="small", help="small|medium|large or NXxNY")
    p.add_argument("--ranks", type=int, default=16)
    p.add_argument(
        "--ranks-per-node", type=int, default=4, help="SMP node capacity"
    )
    p.add_argument(
        "--method", default="multilevel",
        help="partitioner: multilevel|rcb|block|structured-block",
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--speed", type=float, default=1.0, help="CPU speed multiplier")
    p.add_argument(
        "--intra-send-us", type=float, default=0.5,
        help="on-node send overhead, microseconds (fabric: 1.5)",
    )
    p.add_argument(
        "--intra-recv-us", type=float, default=0.7,
        help="on-node recv overhead, microseconds (fabric: 2.0)",
    )
