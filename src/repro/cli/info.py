"""Single-configuration subcommands: ``info``, ``calibrate``, ``validate``.

``validate`` is a thin shell over :func:`repro.core.measure` — one
request in, one measured-vs-predicted table out.
"""

from __future__ import annotations

from repro.analysis import TextTable
from repro.cli.common import add_common_arguments, make_cluster, parse_deck
from repro.core import ClusterSpec, PredictionRequest, calibration_table
from repro.core import measure as core_measure
from repro.machine.costdb import PHASE_SYNC_POINTS, table4_census
from repro.mesh import MATERIAL_NAMES, material_fractions
from repro.perfmodel import default_sample_sides

#: Display label of each model on the ``validate`` table, in row order.
_VALIDATE_MODELS = (
    ("mesh-specific", "mesh-specific"),
    ("homogeneous", "general homogeneous"),
    ("heterogeneous", "general heterogeneous"),
    ("transition", "transition"),
)


def cmd_info(args) -> int:
    """Print deck, machine, and iteration-structure facts."""
    deck = parse_deck(args.deck)
    table = TextTable(f"deck '{deck.name}'", ["property", "value"])
    table.add_row("cells", deck.num_cells)
    table.add_row("grid", f"{deck.mesh.nx} x {deck.mesh.ny}")
    table.add_row("detonator", str(deck.detonator_xy))
    for name, frac in zip(MATERIAL_NAMES, material_fractions(deck)):
        table.add_row(name, f"{frac * 100:.1f}%")
    print(table.render())

    census = table4_census()
    coll = TextTable("collectives per iteration (Table 4)", ["op", "count", "bytes"])
    for op, sizes in census.items():
        for size, count in sorted(sizes.items()):
            coll.add_row(op, count, size)
    print()
    print(coll.render())
    print(f"\nphases: 15, synchronisation points: {sum(PHASE_SYNC_POINTS)}")
    return 0


def cmd_calibrate(args) -> int:
    """Calibrate and print the per-cell cost curves."""
    cluster = make_cluster(args)
    table = calibration_table(cluster, default_sample_sides(args.max_side))
    out = TextTable(
        f"per-cell cost [us] for phase {args.phase} (contrived-grid method)",
        ["cells/PE"] + list(MATERIAL_NAMES),
    )
    for n, per_cell in zip(table.cells, table.costs[args.phase - 1].T):
        out.add_row(int(n), *(per_cell * 1e6))
    print(out.render())
    return 0


def cmd_validate(args) -> int:
    """Measure one configuration and compare every model variant."""
    request = PredictionRequest(
        deck=args.deck,
        ranks=args.ranks,
        cluster=ClusterSpec(speed=args.speed, smp=args.smp),
        seed=args.seed,
        models=tuple(model for model, _ in _VALIDATE_MODELS),
        max_side=args.max_side,
    )
    result = core_measure(request)
    out = TextTable(
        f"{result.meta['deck_name']} deck, {args.ranks} PEs "
        f"on {result.meta['cluster_name']}",
        ["model", "predicted (ms)", "error"],
    )
    out.add_row("measured", result.measured * 1e3, "-")
    for model, label in _VALIDATE_MODELS:
        out.add_row(
            label,
            result.predicted[model] * 1e3,
            f"{result.error(model) * 100:+.1f}%",
        )
    print(out.render())
    return 0


def register(sub, common=add_common_arguments) -> None:
    """Attach the ``info``/``calibrate``/``validate`` subparsers."""
    p_info = sub.add_parser("info", help="deck and machine summary")
    p_info.add_argument("--deck", default="small")
    p_info.set_defaults(func=cmd_info)

    p_cal = sub.add_parser(
        "calibrate", help="print cost curves / fit and replay traces"
    )
    common(p_cal)
    p_cal.add_argument("--phase", type=int, default=2, choices=range(1, 16))
    p_cal.set_defaults(func=cmd_calibrate)
    # ``calibrate fit|report|synth`` — the trace-driven closed loop.
    from repro.cli import calibrate as trace_calibrate

    trace_calibrate.attach(p_cal)

    p_val = sub.add_parser("validate", help="measure + predict one config")
    common(p_val)
    p_val.add_argument("--ranks", type=int, default=16)
    p_val.set_defaults(func=cmd_validate)
