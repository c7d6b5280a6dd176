"""``place`` — topology-aware rank-placement studies.

``compare`` and ``optimize`` ask one measure-only
:class:`~repro.core.request.PredictionRequest` per placement strategy and
answer it through :func:`repro.core.measure`; the byte and cost columns
read the census and rank→node map of the same request's
:func:`repro.core.assemble`.  ``scale`` costs placements on synthetic
weak-scaled meshes.  All three cost placements with the same CSR graph and
objectives.
"""

from __future__ import annotations

from repro.analysis import TextTable
from repro.cli.common import add_place_arguments, csv_strings
from repro.core import ClusterSpec, PredictionRequest, assemble
from repro.core import measure as core_measure

__all__ = ["cmd_place_compare", "cmd_place_optimize", "cmd_place_scale",
           "register"]


def _place_runs(args, strategies) -> dict:
    """Strategy → ``(assembled request, measured seconds)`` of its
    measure-only request on the SMP machine the arguments describe; each
    distinct strategy is asked once."""
    cluster = ClusterSpec(
        speed=args.speed, smp=True, ranks_per_node=args.ranks_per_node,
        intra_send_overhead=args.intra_send_us * 1e-6,
        intra_recv_overhead=args.intra_recv_us * 1e-6,
    )
    runs = {}
    for strategy in dict.fromkeys(strategies):
        request = PredictionRequest(
            deck=args.deck, ranks=args.ranks, cluster=cluster,
            partition_method=args.method, seed=args.seed,
            placement=strategy, models=(),
        )
        runs[strategy] = (assemble(request), core_measure(request).measured)
    return runs


def _title(args, asm) -> str:
    """``<deck> deck, <P> ranks on <machine without its placement>``."""
    machine = asm.request.cluster.build().name
    return f"{asm.deck.name} deck, {args.ranks} ranks on {machine}"


def cmd_place_compare(args) -> int:
    """Measure one configuration under each placement strategy."""
    from repro.placement import inter_node_bytes, rank_comm_bytes, total_pair_bytes

    strategies = csv_strings(args.strategies)
    runs = _place_runs(args, ["block", *strategies])
    block_asm, t_block = runs["block"]
    graph = rank_comm_bytes(block_asm.census)
    total = total_pair_bytes(graph)

    out = TextTable(
        f"rank placement, {_title(args, block_asm)}",
        ["strategy", "nodes", "inter-node KB", "share", "measured (ms)", "vs block"],
    )
    for strategy in strategies:
        asm, seconds = runs[strategy]
        placement = asm.cluster.hierarchy.placement
        inter = inter_node_bytes(placement, graph)
        out.add_row(
            placement.name,
            placement.num_nodes,
            inter / 1e3,
            f"{inter / total * 100:.0f}%" if total else "-",
            seconds * 1e3,
            f"{(t_block - seconds) / t_block * 100:+.2f}%",
        )
    print(out.render())
    return 0


def cmd_place_optimize(args) -> int:
    """Run the communication-aware optimizer and report its margin."""
    from repro.placement import (
        inter_node_bytes,
        placement_comm_cost,
        rank_comm_bytes,
        rank_pair_times,
    )

    runs = _place_runs(args, ("block", "comm-aware"))
    block_asm, t_block = runs["block"]
    opt_asm, t_opt = runs["comm-aware"]
    block = block_asm.cluster.hierarchy.placement
    optimized = opt_asm.cluster.hierarchy.placement
    graph = rank_comm_bytes(block_asm.census)
    # Per-pair message times depend on the census and the machine's
    # levels, not on the installed rank→node map.
    costs = rank_pair_times(block_asm.census, block_asm.cluster)

    out = TextTable(
        f"comm-aware optimization, {_title(args, block_asm)}",
        ["quantity", "block", "comm-aware", "change"],
    )
    rows = [
        ("inter-node KB", inter_node_bytes(block, graph) / 1e3,
         inter_node_bytes(optimized, graph) / 1e3),
        ("max per-rank p2p (ms)",
         placement_comm_cost(block.node_of_rank, costs)[0] * 1e3,
         placement_comm_cost(optimized.node_of_rank, costs)[0] * 1e3),
        ("measured iteration (ms)", t_block * 1e3, t_opt * 1e3),
    ]
    for label, before, after in rows:
        change = (before - after) / before * 100 if before else 0.0
        out.add_row(label, before, after, f"{change:+.2f}%")
    print(out.render())
    if args.show_map:
        print()
        for node in range(optimized.num_nodes):
            ranks = ", ".join(str(r) for r in optimized.ranks_on_node(node))
            print(f"node {node:3d}: ranks {ranks}")
    return 0


def cmd_place_scale(args) -> int:
    """Cost placements on a synthetic weak-scaled mesh at extreme scale."""
    import time

    from repro.perfmodel import weak_scaled_census
    from repro.placement import (
        block_placement,
        comm_aware_placement,
        inter_node_bytes,
        rank_comm_bytes,
        round_robin_placement,
        total_pair_bytes,
    )

    begin = time.perf_counter()
    census = weak_scaled_census(args.ranks, cells_per_rank=args.cells_per_rank)
    graph = rank_comm_bytes(census)
    build = time.perf_counter() - begin
    total = total_pair_bytes(graph)

    strategies = ["block", "round-robin"]
    if args.optimize:
        strategies.append("comm-aware")
    out = TextTable(
        f"sparse placement costing, {args.ranks} ranks, "
        f"{graph.num_entries // 2} comm edges (built in {build:.2f}s)",
        ["strategy", "nodes", "inter-node MB", "share", "wall (s)"],
    )
    for strategy in strategies:
        begin = time.perf_counter()
        if strategy == "block":
            placement = block_placement(args.ranks, args.ranks_per_node)
        elif strategy == "round-robin":
            placement = round_robin_placement(args.ranks, args.ranks_per_node)
        else:
            placement = comm_aware_placement(graph, args.ranks_per_node)
        inter = inter_node_bytes(placement, graph)
        wall = time.perf_counter() - begin
        out.add_row(
            placement.name,
            placement.num_nodes,
            inter / 1e6,
            f"{inter / total * 100:.0f}%" if total else "-",
            f"{wall:.2f}",
        )
    print(out.render())
    return 0


def register(sub, place_common=add_place_arguments) -> None:
    """Attach the ``place`` subparser tree."""
    p_place = sub.add_parser(
        "place",
        help="topology-aware rank placement: compare|optimize",
        description=(
            "Rank→node placement studies on the SMP machine: `compare` "
            "measures one configuration under each placement strategy; "
            "`optimize` runs the communication-aware optimizer and reports "
            "its margin over block placement.  Both default to a "
            "shared-memory transport with cheaper on-node host overheads "
            "(tune with --intra-send-us/--intra-recv-us)."
        ),
    )
    place_sub = p_place.add_subparsers(dest="place_command", required=True)

    p_pc = place_sub.add_parser(
        "compare", help="measure every placement strategy on one configuration"
    )
    place_common(p_pc)
    p_pc.add_argument(
        "--strategies", default="block,round-robin,random:1,comm-aware",
        help="comma list: block|round-robin|random[:seed]|comm-aware",
    )
    p_pc.set_defaults(func=cmd_place_compare)

    p_po = place_sub.add_parser(
        "optimize", help="run the comm-aware optimizer, report margin vs block"
    )
    place_common(p_po)
    p_po.add_argument(
        "--show-map", action="store_true", help="print the optimized rank→node map"
    )
    p_po.set_defaults(func=cmd_place_optimize)

    p_ps = place_sub.add_parser(
        "scale",
        help="cost placements on a weak-scaled mesh",
        description=(
            "Build a synthetic weak-scaled mesh census, extract its CSR "
            "communication graph, and cost block / round-robin (and, with "
            "--optimize, the comm-aware optimizer) by sparse inter-node "
            "bytes — no (P, P) structures, so it works at 10^5-10^6 ranks."
        ),
    )
    p_ps.add_argument(
        "--ranks", type=int, default=100000, help="rank count to cost"
    )
    p_ps.add_argument(
        "--ranks-per-node", type=int, default=4, help="SMP node capacity"
    )
    p_ps.add_argument(
        "--cells-per-rank", type=float, default=8192.0,
        help="weak-scaling workload per rank",
    )
    p_ps.add_argument(
        "--optimize", action="store_true",
        help="also run the comm-aware optimizer (moderate ranks)",
    )
    p_ps.set_defaults(func=cmd_place_scale)
