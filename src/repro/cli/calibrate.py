"""Closed-loop calibration subcommands: ``repro calibrate fit|report|synth``.

The external-data surface of the CLI.  ``synth`` writes a schema-conforming
trace from the simulated machine (the loop's test harness), ``fit``
ingests any ``repro-trace`` document and stores the fitted
:class:`~repro.perfmodel.calibrate.FittedCalibration`, and ``report``
replays the trace through the engine against the fitted parameters and
prints the per-run model-vs-measured table.  Bare ``repro calibrate``
(no subcommand) keeps its historical meaning — print the contrived-grid
cost curves — handled in :mod:`repro.cli.info`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import TextTable
from repro.analysis.store import calibration_store
from repro.core import csv_ints
from repro.machine.cluster import es45_like_cluster
from repro.trace import (
    fit_calibration,
    load_trace,
    replay_calibration,
    save_trace,
    synthesize_trace,
)

__all__ = ["attach"]


def _network_table(calibration) -> TextTable:
    net = calibration.network
    table = TextTable(
        f"fitted network '{net.name}'",
        ["segment", "latency (us)", "bandwidth (MB/s)"],
    )
    bounds = [0.0, *net.breakpoints.tolist(), None]
    for seg in range(net.latency.shape[0]):
        lo, hi = bounds[seg], bounds[seg + 1]
        label = f"{lo:g}B-" + (f"{hi:g}B" if hi is not None else "inf")
        bandwidth = (
            1.0 / net.per_byte[seg] / 1e6 if net.per_byte[seg] > 0 else float("inf")
        )
        table.add_row(label, net.latency[seg] * 1e6, bandwidth)
    return table


def _fitted(doc, warmup):
    """``fit_calibration(doc)``, with a trace it cannot fit reported as
    ``error: …``."""
    try:
        return fit_calibration(doc, warmup=warmup)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def cmd_fit(args) -> int:
    """Fit model parameters to a trace document and store the artifact."""
    doc = load_trace(args.trace)
    calibration = _fitted(doc, args.warmup)
    key = calibration.store_key()

    summary = TextTable(
        f"fit of '{args.trace}' ({doc.deck} deck, machine '{doc.machine.name}')",
        ["property", "value"],
    )
    summary.add_row("runs", len(doc.runs))
    summary.add_row("rank counts", ",".join(str(r.ranks) for r in doc.runs))
    summary.add_row("phases", calibration.table.num_phases)
    summary.add_row("materials", calibration.table.num_materials)
    summary.add_row("curve knots", ",".join(f"{c:g}" for c in calibration.table.cells))
    summary.add_row("pingpong samples", int(doc.pingpong_bytes.shape[0]))
    print(summary.render())
    print()
    print(_network_table(calibration).render())

    if not args.no_store:
        calibration_store().put(key, calibration.to_payload())
    if args.out:
        Path(args.out).write_text(
            json.dumps(calibration.to_payload(), sort_keys=True, indent=1)
        )
    print(f"\ncalibration key: {key}")
    return 0


def cmd_report(args) -> int:
    """Replay a trace against its fit and print model-vs-measured errors."""
    doc = load_trace(args.trace)
    if args.calibration:
        from repro.core.assemble import fitted_calibration

        calibration = fitted_calibration(args.calibration, calibration_store())
    else:
        calibration = _fitted(doc, args.warmup)
    reports = replay_calibration(doc, calibration, warmup=args.warmup)

    table = TextTable(
        f"model vs measured for '{args.trace}' ({doc.deck} deck)",
        ["ranks", "cells/PE", "measured (ms)", "model (ms)", "error",
         "worst phase"],
    )
    worst = 0.0
    for report in reports:
        worst = max(worst, abs(report.seconds_error), report.max_abs_phase_error)
        table.add_row(
            report.ranks,
            report.cells_per_rank,
            report.measured_seconds * 1e3,
            report.replayed_seconds * 1e3,
            f"{report.seconds_error * 100:+.2f}%",
            f"{report.max_abs_phase_error * 100:.2f}%",
        )
    print(table.render())
    if args.max_error is not None and worst * 100 > args.max_error:
        print(
            f"FAIL: worst error {worst * 100:.2f}% exceeds "
            f"--max-error {args.max_error:g}%"
        )
        return 1
    return 0


def cmd_synth(args) -> int:
    """Generate a synthetic trace from the simulated machine."""
    cluster = es45_like_cluster(speed=args.speed, jitter_frac=args.jitter)
    doc = synthesize_trace(
        deck=args.deck,
        ranks=tuple(csv_ints(args.ranks)),
        cluster=cluster,
        iterations=args.iterations,
        warmup=args.warmup,
        partition_method=args.partition,
        seed=args.seed,
    )
    save_trace(doc, args.out)
    print(
        f"wrote {args.out}: {doc.deck} deck on '{doc.machine.name}', "
        f"ranks {','.join(str(r.ranks) for r in doc.runs)}, "
        f"{doc.runs[0].iterations} iterations, "
        f"{int(doc.pingpong_bytes.shape[0])} pingpong samples"
    )
    return 0


def attach(p_cal) -> None:
    """Attach ``fit``/``report``/``synth`` under the ``calibrate`` parser.

    The nested subparsers are optional: bare ``repro calibrate`` (with the
    legacy ``--phase``/``--max-side`` flags) still prints the
    contrived-grid cost curves.
    """
    sub = p_cal.add_subparsers(dest="calibrate_command", required=False)

    p_fit = sub.add_parser(
        "fit", help="fit model parameters to a trace document"
    )
    p_fit.add_argument("trace", help="path to a repro-trace JSON document")
    p_fit.add_argument(
        "--warmup", type=int, default=None,
        help="override every run's warm-up window",
    )
    p_fit.add_argument(
        "--out", default=None, help="also write the fitted artifact as JSON"
    )
    p_fit.add_argument(
        "--no-store", action="store_true",
        help="do not persist into the calibrations store",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_rep = sub.add_parser(
        "report", help="replay a trace and print model-vs-measured errors"
    )
    p_rep.add_argument("trace", help="path to a repro-trace JSON document")
    p_rep.add_argument(
        "--calibration", default=None,
        help="stored calibration key (default: fit the trace in-process)",
    )
    p_rep.add_argument(
        "--warmup", type=int, default=None,
        help="override every run's warm-up window",
    )
    p_rep.add_argument(
        "--max-error", type=float, default=None,
        help="exit 1 if any error exceeds this percentage",
    )
    p_rep.set_defaults(func=cmd_report)

    p_synth = sub.add_parser(
        "synth", help="generate a synthetic trace from the simulated machine"
    )
    p_synth.add_argument("--deck", default="16x8")
    p_synth.add_argument("--ranks", default="2,4", help="comma list of rank counts")
    p_synth.add_argument("--iterations", type=int, default=4)
    p_synth.add_argument("--warmup", type=int, default=1)
    p_synth.add_argument("--partition", default="block")
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument("--speed", type=float, default=1.0)
    p_synth.add_argument(
        "--jitter", type=float, default=0.015,
        help="compute jitter amplitude (0 for a noise-free trace)",
    )
    p_synth.add_argument("--out", default="trace.json")
    p_synth.set_defaults(func=cmd_synth)
