"""``sweep`` — strong-scaling tables and declarative grids.

The legacy single-deck table routes each power-of-two point through
:func:`repro.core.measure`; the grid subcommands (``run``/``status``/
``clear``) expand the grid of :func:`repro.cli.common.spec_from_args` into
requests (:meth:`repro.analysis.SweepSpec.requests`) that run through the
same call and are stored where the service stores them: under
:func:`repro.core.request_key` in the ``predictions`` result store.
"""

from __future__ import annotations

from repro.analysis import TextTable, prediction_store, run_points, sweep_status
from repro.cli.common import (
    add_common_arguments,
    add_grid_arguments,
    deck_label,
    dynamic_label,
    perturb_label,
    placement_label,
    spec_from_args,
)
from repro.core import ClusterSpec, PredictionRequest
from repro.core import measure as core_measure
from repro.partition.cache import cache_dir as partition_cache_dir

__all__ = ["cmd_sweep", "cmd_sweep_clear", "cmd_sweep_run", "cmd_sweep_status",
           "register"]

#: Models on the legacy strong-scaling table, with their column headers.
_SWEEP_MODELS = (
    ("homogeneous", "homo (ms)"),
    ("heterogeneous", "hetero (ms)"),
    ("transition", "transition (ms)"),
)


def cmd_sweep(args) -> int:
    """Strong-scaling sweep with measured + all general variants."""
    cluster = ClusterSpec(speed=args.speed, smp=getattr(args, "smp", False))
    results = []
    p = 1
    while p <= args.max_ranks:
        results.append(core_measure(PredictionRequest(
            deck=args.deck,
            ranks=p,
            cluster=cluster,
            seed=args.seed,
            models=tuple(model for model, _ in _SWEEP_MODELS),
            max_side=args.max_side,
        )))
        p *= 2

    meta = results[0].meta
    out = TextTable(
        f"strong scaling, {meta['deck_name']} deck on {meta['cluster_name']}",
        ["PEs", "measured (ms)"] + [header for _, header in _SWEEP_MODELS],
    )
    for result in results:
        out.add_row(
            result.request.ranks,
            result.measured * 1e3,
            *[result.predicted[model] * 1e3 for model, _ in _SWEEP_MODELS],
        )
    print(out.render())
    return 0


def _grid_checked(build, *args):
    """``build(*args)``, with an invalid grid reported as ``error: …``
    before any point runs."""
    try:
        return build(*args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def cmd_sweep_run(args) -> int:
    """Evaluate a sweep grid — parallel with ``--jobs``, resumable via the
    result store."""
    spec = _grid_checked(spec_from_args, args)
    tasks = _grid_checked(spec.tasks)
    store = None if args.no_cache else prediction_store()

    def progress(done, total, task, point, cached):
        source = "store" if cached else f"{point.measured * 1e3:.2f} ms"
        print(
            f"[{done}/{total}] {deck_label(task.deck)} p={task.num_ranks}"
            f" {task.partition_method} seed={task.seed}"
            f" {dynamic_label(task)} {placement_label(task)}"
            f" {perturb_label(task)}: {source}",
            flush=True,
        )

    outcomes = run_points(
        tasks,
        jobs=args.jobs,
        store=store,
        progress=None if args.quiet else progress,
    )

    groups: dict = {}
    for outcome in outcomes:
        task = outcome.task
        key = (
            deck_label(task.deck),
            task.request.cluster,
            task.partition_method,
            task.seed,
            dynamic_label(task),
            placement_label(task),
            perturb_label(task),
        )
        groups.setdefault(key, []).append(outcome.point)
    for (
        deck_name, cluster, method, seed, dyn_label, place_label, pert_label,
    ), points in groups.items():
        out = TextTable(
            f"{deck_name} deck on {cluster.build().name} "
            f"({method}, seed {seed}, {dyn_label}, place {place_label}, "
            f"perturb {pert_label})",
            ["PEs", "measured (ms)"]
            + [f"{m} (ms)" for m in spec.models]
            + [f"{m} err" for m in spec.models],
        )
        for point in points:
            out.add_row(
                point.num_ranks,
                point.measured * 1e3,
                *[point.predicted[m] * 1e3 for m in spec.models],
                *[f"{point.error(m) * 100:+.1f}%" for m in spec.models],
            )
        print(out.render())
        print()
    computed = sum(1 for o in outcomes if not o.cached)
    cached = len(outcomes) - computed
    print(f"{len(outcomes)} points: {computed} simulated, {cached} from store")
    return 0


def cmd_sweep_status(args) -> int:
    """Report grid completion against the result store."""
    spec = _grid_checked(spec_from_args, args)
    status = _grid_checked(sweep_status, spec, prediction_store())
    out = TextTable("sweep status", ["points", "count"])
    out.add_row("total", status.total)
    out.add_row("completed", status.completed)
    out.add_row("pending", status.pending)
    print(out.render())
    return 0


def cmd_sweep_clear(args) -> int:
    """Drop the grid's stored points (and optionally cached partitions).

    Only the grid's own keys leave the ``predictions`` store; results the
    service or other grids stored there stay.
    """
    spec = _grid_checked(spec_from_args, args)
    keys = _grid_checked(spec.store_keys)
    removed = prediction_store().clear(keys)
    print(f"removed {removed} stored sweep points")
    if args.partitions:
        count = 0
        for path in sorted(partition_cache_dir().glob("*.npz")):
            path.unlink()
            count += 1
        print(f"removed {count} cached partitions")
    return 0


def register(sub, common=add_common_arguments, grid=add_grid_arguments) -> None:
    """Attach the ``sweep`` subparser tree."""
    p_sweep = sub.add_parser(
        "sweep",
        help="strong-scaling sweep (legacy table) or grid subcommands run|status|clear",
        description=(
            "Without a subcommand: the legacy single-deck strong-scaling "
            "table.  Subcommands orchestrate declarative grids: `run` "
            "evaluates (in parallel with --jobs, resumably via the on-disk "
            "result store), `status` reports completion, `clear` drops the "
            "grid's stored results."
        ),
    )
    common(p_sweep)
    p_sweep.add_argument("--max-ranks", type=int, default=64)
    p_sweep.set_defaults(func=cmd_sweep)
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command")

    p_run = sweep_sub.add_parser(
        "run", help="evaluate a sweep grid (parallel + resumable)"
    )
    grid(p_run)
    p_run.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial)"
    )
    p_run.add_argument(
        "--no-cache", action="store_true", help="skip the result store entirely"
    )
    p_run.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p_run.set_defaults(func=cmd_sweep_run)

    p_status = sweep_sub.add_parser(
        "status", help="report how much of a grid is already stored"
    )
    grid(p_status)
    p_status.set_defaults(func=cmd_sweep_status)

    p_clear = sweep_sub.add_parser(
        "clear", help="drop a grid's stored results from the result store"
    )
    grid(p_clear)
    p_clear.add_argument(
        "--partitions", action="store_true", help="also drop cached partitions"
    )
    p_clear.set_defaults(func=cmd_sweep_clear)
