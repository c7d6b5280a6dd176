"""The registered benchmark workloads.

One entry per ``benchmarks/bench_*.py`` timed workload plus the hot-path
micro-benchmarks (``micro.*``).  Each :class:`~repro.bench.registry.Benchmark`
builds its inputs in ``setup`` (decks, face tables, partitions and
calibrated cost tables come from the core per-process memos, so benches
share them) and exposes the timed callable as ``run``; ``invariants``
captures the simulated/predicted quantities that must stay
bitwise-stable between runs on the same code.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.bench.registry import Benchmark, register
from repro.core import (
    ClusterSpec,
    PredictionRequest,
    calibration_table,
    deck_for,
    faces_for,
    mesh_side,
)
from repro.perfmodel import default_sample_sides

# --------------------------------------------------------------- shared setup

def _mesh_side(deck, ranks):
    """``deck`` on ``ranks`` (multilevel, seed 1) as setup-context entries
    ``deck``, ``faces``, ``part`` and ``census``: the objects
    :func:`~repro.core.assemble.mesh_side` holds."""
    deck, faces, part, census = mesh_side(PredictionRequest(deck=deck, ranks=ranks))
    return {"deck": deck, "faces": faces, "part": part, "census": census}


#: Coarse power-of-two calibration (fast, smoke-grade).
COARSE_SIDES = [1, 2, 4, 8, 16, 32, 64, 128, 256]


def _cost_table(kind):
    sides = COARSE_SIDES if kind == "coarse" else default_sample_sides(512)
    return calibration_table(ClusterSpec().build(), sides)


# ------------------------------------------------------------------- micro.*

#: The Table 3 worked example (Figure 4 boundary).
TABLE3_FACES = np.array([3.0, 4.0, 3.0])
TABLE3_MULTI = np.array([1.0, 3.0, 2.0])


def _setup_tmsg_boundary(size):
    rng = np.random.default_rng(2006)
    count = 400 if size == "smoke" else 2000
    boundaries = []
    for _ in range(count):
        faces = rng.integers(1, 40, size=4).astype(np.float64)
        multi = rng.integers(0, 8, size=4).astype(np.float64)
        boundaries.append((faces, multi))
    return {"network": ClusterSpec().build().network, "boundaries": boundaries}


def _run_tmsg_boundary(ctx):
    from repro.perfmodel import boundary_exchange_time

    net = ctx["network"]
    total = 0.0
    for faces, multi in ctx["boundaries"]:
        total += boundary_exchange_time(net, faces, multi)
    return total


register(Benchmark(
    name="micro.tmsg_boundary_eval",
    group="micro",
    description="Tmsg-bound hot path: Equation-(5) boundary tally over many boundaries",
    source="src/repro/perfmodel/boundary.py",
    setup=_setup_tmsg_boundary,
    run=_run_tmsg_boundary,
    invariants=lambda ctx, result: {"total_time_s": float(result)},
))


def _setup_engine_loop(size):
    ranks, iters = (32, 30) if size == "smoke" else (64, 80)
    return {"cluster": ClusterSpec().build(), "ranks": ranks, "iters": iters}


def _run_engine_loop(ctx):
    from repro.simmpi import (
        Allreduce,
        Compute,
        Engine,
        Isend,
        Recv,
        SetPhase,
        WaitSends,
    )

    ranks = ctx["ranks"]
    iters = ctx["iters"]

    def prog(rank):
        right = (rank + 1) % ranks
        left = (rank - 1) % ranks
        for it in range(iters):
            yield SetPhase(0)
            yield Compute(1e-6)
            yield Isend(right, tag=it, nbytes=256.0)
            yield Recv(left, tag=it)
            yield WaitSends()
            yield Allreduce(nbytes=8)

    return Engine(ctx["cluster"], ranks, 1).run(prog).makespan


register(Benchmark(
    name="micro.engine_event_loop",
    group="micro",
    description="simmpi event-loop throughput: ring exchange + allreduce per iteration",
    source="src/repro/simmpi/engine.py",
    setup=_setup_engine_loop,
    run=_run_engine_loop,
    invariants=lambda ctx, result: {"makespan_s": float(result)},
    repeats=3,
))


def _setup_engine_krak(size):
    from repro.hydro.driver import krak_job

    mesh = _mesh_side("medium", 64)
    program, engine = krak_job(
        mesh["deck"], mesh["part"], ClusterSpec().build(), 3,
        mesh["faces"], mesh["census"], None, None,
    )
    return {"engine": engine, "table": program.lower()}


def _run_engine_krak(ctx):
    return ctx["engine"].run_compiled(ctx["table"]).makespan


register(Benchmark(
    name="micro.engine_krak_superstep",
    group="micro",
    description="engine pricing of one lowered medium/64 Krak table (superstep executor)",
    source="src/repro/simmpi/engine.py",
    setup=_setup_engine_krak,
    run=_run_engine_krak,
    invariants=lambda ctx, result: {"makespan_hex": float(result).hex()},
    repeats=3,
))


def _setup_mesh_census(size):
    from repro.perfmodel import MeshSpecificModel

    ranks = 64 if size == "smoke" else 128
    model = MeshSpecificModel(
        table=_cost_table("coarse"), network=ClusterSpec().build().network
    )
    return {"model": model, "census": _mesh_side("small", ranks)["census"]}


def _run_mesh_census(ctx):
    return ctx["model"].point_to_point(ctx["census"])


register(Benchmark(
    name="micro.mesh_census",
    group="micro",
    description="mesh-specific per-link message tally (Equations 5-7) over a census",
    source="src/repro/perfmodel/mesh_specific.py",
    setup=_setup_mesh_census,
    run=_run_mesh_census,
    invariants=lambda ctx, result: {
        "boundary_exchange_s": float(result[0]),
        "ghost_updates_s": float(result[1]),
    },
))


def _setup_multilevel(size):
    """Pure structured-mesh partitioner micro-bench (no deck construction);
    the deck-based variant lives under ``figure1.multilevel_partition``."""
    from repro.mesh import build_face_table, structured_quad_mesh

    nx, ny, ranks = (64, 32, 8) if size == "smoke" else (128, 64, 16)
    mesh = structured_quad_mesh(nx, ny)
    return {"mesh": mesh, "faces": build_face_table(mesh), "ranks": ranks}


def _run_multilevel(ctx):
    from repro.partition import multilevel_partition

    return multilevel_partition(ctx["mesh"], ctx["ranks"], faces=ctx["faces"], seed=1)


def _multilevel_invariants(ctx, part):
    counts = np.bincount(part.cell_rank, minlength=part.num_ranks)
    return {
        "num_ranks": int(part.num_ranks),
        "largest_part": int(counts.max()),
        "smallest_part": int(counts.min()),
    }


register(Benchmark(
    name="micro.multilevel_partition",
    group="micro",
    description="multilevel k-way partitioner (Metis analogue) end to end",
    source="src/repro/partition/multilevel.py",
    setup=_setup_multilevel,
    run=_run_multilevel,
    invariants=_multilevel_invariants,
    repeats=3,
))


# ------------------------------------------------------------------- table*.*

def _setup_iteration_sim(size):
    iters = 1 if size == "smoke" else 3
    return {
        **_mesh_side("small", 16),
        "cluster": ClusterSpec().build(), "iters": iters,
    }


def _run_iteration_sim(ctx):
    from repro.hydro import run_krak

    return run_krak(
        ctx["deck"], ctx["part"], cluster=ctx["cluster"],
        iterations=ctx["iters"], faces=ctx["faces"], census=ctx["census"],
    ).result.makespan


register(Benchmark(
    name="table1.iteration_simulation",
    group="table1",
    description="full 15-phase simulated iteration, small deck on 16 ranks",
    source="benchmarks/bench_table1_phase_structure.py",
    setup=_setup_iteration_sim,
    run=_run_iteration_sim,
    invariants=lambda ctx, result: {"makespan_s": float(result)},
    repeats=3,
))


register(Benchmark(
    name="table2.deck_construction",
    group="table2",
    description="input-deck construction (mesh + materials + detonator)",
    source="benchmarks/bench_table2_material_ratios.py",
    setup=lambda size: {"name": "small" if size == "smoke" else "medium"},
    run=lambda ctx: __import__("repro.mesh", fromlist=["build_deck"]).build_deck(
        ctx["name"]
    ),
    invariants=lambda ctx, deck: {"num_cells": int(deck.num_cells)},
    repeats=3,
    threshold=0.60,
))


def _setup_table3(size):
    return {
        "network": ClusterSpec().build().network,
        "evals": 200 if size == "smoke" else 1000,
    }


def _run_table3(ctx):
    from repro.perfmodel import boundary_exchange_time

    net = ctx["network"]
    t = 0.0
    for _ in range(ctx["evals"]):
        t = boundary_exchange_time(net, TABLE3_FACES, TABLE3_MULTI)
    return t


register(Benchmark(
    name="table3.boundary_exchange_model",
    group="table3",
    description="Equation (5) on the paper's Table 3 worked example",
    source="benchmarks/bench_table3_boundary_exchange.py",
    setup=_setup_table3,
    run=_run_table3,
    invariants=lambda ctx, result: {"exchange_time_s": float(result)},
))


def _run_table4(ctx):
    from repro.perfmodel import collectives_time

    net = ctx["network"]
    return [collectives_time(net, p) for p in ctx["ranks"]]


register(Benchmark(
    name="table4.collectives_model",
    group="table4",
    description="Equations (8)-(10) collective times across processor counts",
    source="benchmarks/bench_table4_collectives.py",
    setup=lambda size: {
        "network": ClusterSpec().build().network,
        "ranks": (16, 64, 128, 256, 512, 1024) * (1 if size == "smoke" else 20),
    },
    run=_run_table4,
    invariants=lambda ctx, result: {"total_at_1024_s": float(result[5])},
    threshold=0.6,
))


def _setup_table5(size):
    from repro.perfmodel import MeshSpecificModel

    ranks = 64 if size == "smoke" else 128
    model = MeshSpecificModel(
        table=_cost_table("coarse"), network=ClusterSpec().build().network
    )
    return {"model": model, "census": _mesh_side("small", ranks)["census"]}


register(Benchmark(
    name="table5.mesh_specific_predict",
    group="table5",
    description="mesh-specific model prediction with exact partition information",
    source="benchmarks/bench_table5_mesh_specific.py",
    setup=_setup_table5,
    run=lambda ctx: ctx["model"].predict(ctx["census"]),
    invariants=lambda ctx, pred: {"total_s": float(pred.total)},
))


def _setup_table6(size):
    from repro.perfmodel import GeneralModel

    table = _cost_table("coarse" if size == "smoke" else "fine")
    model = GeneralModel(
        table=table, network=ClusterSpec().build().network, mode="homogeneous"
    )
    return {"model": model}


register(Benchmark(
    name="table6.general_model_predict",
    group="table6",
    description="general (homogeneous) model prediction at 512 PEs",
    source="benchmarks/bench_table6_general_model.py",
    setup=_setup_table6,
    run=lambda ctx: ctx["model"].predict(819200, 512),
    invariants=lambda ctx, pred: {"total_s": float(pred.total)},
    threshold=0.6,
))


# ------------------------------------------------------------------ figure*.*

register(Benchmark(
    name="figure1.multilevel_partition",
    group="figure1",
    description="multilevel partition of the small deck at 16 ranks",
    source="benchmarks/bench_figure1_partition.py",
    setup=lambda size: {
        "mesh": deck_for("small").mesh, "faces": faces_for(deck_for("small")),
        "ranks": 8 if size == "smoke" else 16,
    },
    run=_run_multilevel,
    invariants=_multilevel_invariants,
    repeats=3,
))


def _setup_boundary_census(size):
    ranks = 8 if size == "smoke" else 16
    return _mesh_side("small", ranks)


def _run_boundary_census(ctx):
    from repro.hydro import build_workload_census

    return build_workload_census(ctx["deck"], ctx["part"], ctx["faces"])


register(Benchmark(
    name="figure1.boundary_census",
    group="figure1",
    description="partition-boundary census construction",
    source="benchmarks/bench_figure1_partition.py",
    setup=_setup_boundary_census,
    run=_run_boundary_census,
    invariants=lambda ctx, census: {
        "num_pairs": int((census.be_src < census.be_dst).sum())
    },
    threshold=0.6,
))


def _setup_figure2(size):
    ranks = 64 if size == "smoke" else 256
    return {
        **_mesh_side("small", ranks),
        "cluster": ClusterSpec().build(), "iters": 1,
    }


register(Benchmark(
    name="figure2.census_timing_run",
    group="figure2",
    description="execution-driven simulation at scale (small deck, many ranks)",
    source="benchmarks/bench_figure2_phase_times.py",
    setup=_setup_figure2,
    run=_run_iteration_sim,
    invariants=lambda ctx, result: {"makespan_s": float(result)},
    repeats=2,
))


def _setup_figure3(size):
    sides = [1, 8, 64] if size == "smoke" else COARSE_SIDES
    return {"cluster": ClusterSpec().build(), "sides": sides}


def _run_figure3(ctx):
    from repro.perfmodel import calibrate_contrived_grid

    return calibrate_contrived_grid(ctx["cluster"], sides=ctx["sides"])


register(Benchmark(
    name="figure3.contrived_calibration",
    group="figure3",
    description="contrived-grid cost-curve calibration",
    source="benchmarks/bench_figure3_percell_curves.py",
    setup=_setup_figure3,
    run=_run_figure3,
    invariants=lambda ctx, table: {
        "num_phases": int(table.num_phases),
        "phase2_mat0_last_per_cell_s": float(table.curves[1][0].per_cell[-1]),
    },
    repeats=2,
))


def _setup_figure5(size):
    from repro.perfmodel import GeneralModel

    table = _cost_table("coarse" if size == "smoke" else "fine")
    net = ClusterSpec().build().network
    return {
        "homo": GeneralModel(table=table, network=net, mode="homogeneous"),
        "het": GeneralModel(table=table, network=net, mode="heterogeneous"),
    }


def _run_figure5(ctx):
    out = []
    p = 1
    while p <= 1024:
        out.append(
            (ctx["homo"].predict(819200, p).total, ctx["het"].predict(819200, p).total)
        )
        p *= 2
    return out


register(Benchmark(
    name="figure5.scaling_models_only",
    group="figure5",
    description="general-model scaling sweep, both variants, P = 1..1024",
    source="benchmarks/bench_figure5_scaling.py",
    setup=_setup_figure5,
    run=_run_figure5,
    invariants=lambda ctx, result: {
        "homo_at_1024_s": float(result[-1][0]),
        "het_at_1024_s": float(result[-1][1]),
    },
))


def _setup_extreme(size):
    from repro.perfmodel import MeshSpecificModel, weak_scaled_census

    ranks = 100_000 if size == "smoke" else 1_000_000
    return {
        "ranks": ranks,
        "census": weak_scaled_census(ranks),
        "model": MeshSpecificModel(
            table=_cost_table("coarse"), network=ClusterSpec().build().network
        ),
    }


def _run_extreme(ctx):
    import tracemalloc

    tracemalloc.start()
    try:
        predicted = ctx["model"].predict(ctx["census"])
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return predicted, peak


register(Benchmark(
    name="figure5.extreme_scaling",
    group="figure5",
    description="sparse-path prediction at 10^5 (smoke) / 10^6 ranks, peak-memory guarded",
    source="src/repro/perfmodel/sparse_mesh.py",
    setup=_setup_extreme,
    run=_run_extreme,
    invariants=lambda ctx, result: {
        "total_s": float(result[0].total),
        "boundary_s": float(result[0].boundary_exchange),
        "collectives_s": float(result[0].collectives),
        # A dense path would need an 8 * P^2-byte matrix (80 GB at smoke
        # scale); the sparse path must stay within a per-rank budget.
        "peak_mem_under_4kb_per_rank": bool(result[1] < 4096 * ctx["ranks"]),
    },
    repeats=2,
))


# ----------------------------------------------------------------- ablation.*

def _setup_allreduce(size):
    ranks = 256 if size == "smoke" else 1024
    return {"cluster": ClusterSpec().build(), "ranks": ranks}


def _run_allreduce(ctx):
    from repro.simmpi import Allreduce, Compute, Engine, SetPhase

    def prog(rank):
        yield SetPhase(0)
        yield Compute(0.0)
        yield Allreduce(nbytes=8)

    return Engine(ctx["cluster"], ctx["ranks"], 1).run(prog).makespan


register(Benchmark(
    name="ablation.simulated_allreduce",
    group="ablation",
    description="DES cost of one large-scale allreduce",
    source="benchmarks/bench_ablation_collectives.py",
    setup=_setup_allreduce,
    run=_run_allreduce,
    invariants=lambda ctx, result: {"makespan_s": float(result)},
    repeats=3,
    threshold=0.60,
))


register(Benchmark(
    name="ablation.calibration_density",
    group="ablation",
    description="contrived-grid calibration cost at a representative sample density",
    source="benchmarks/bench_ablation_knee.py",
    setup=lambda size: {
        "cluster": ClusterSpec().build(),
        "sides": [1, 4, 16, 64] if size == "smoke" else [1, 2, 4, 8, 16, 32, 64, 128],
    },
    run=_run_figure3,
    invariants=lambda ctx, table: {"num_phases": int(table.num_phases)},
    repeats=2,
))


def _setup_p2p_no_surcharge(size):
    from repro.perfmodel import MeshSpecificModel

    ranks = 64 if size == "smoke" else 128
    model = MeshSpecificModel(
        table=_cost_table("coarse"), network=ClusterSpec().build().network,
        include_multi_surcharge=False,
    )
    return {"model": model, "census": _mesh_side("small", ranks)["census"]}


register(Benchmark(
    name="ablation.p2p_model_evaluation",
    group="ablation",
    description="point-to-point tally, printed-Equation-(5) variant (no surcharge)",
    source="benchmarks/bench_ablation_overlap.py",
    setup=_setup_p2p_no_surcharge,
    run=_run_mesh_census,
    invariants=lambda ctx, result: {
        "boundary_exchange_s": float(result[0]),
        "ghost_updates_s": float(result[1]),
    },
))


def _setup_partitioners(size):
    deck = deck_for("small")
    methods = (
        ("rcb", "block", "structured-block")
        if size == "smoke"
        else ("multilevel", "rcb", "block", "structured-block")
    )
    return {"deck": deck, "faces": faces_for(deck), "methods": methods}


def _run_partitioners(ctx):
    from repro.partition import cached_partition

    return [
        cached_partition(
            ctx["deck"], 16, method=m, seed=1, faces=ctx["faces"], use_cache=False
        )
        for m in ctx["methods"]
    ]


register(Benchmark(
    name="ablation.partitioners",
    group="ablation",
    description="all partitioning methods on the small deck at 16 ranks",
    source="benchmarks/bench_ablation_partitioners.py",
    setup=_setup_partitioners,
    run=_run_partitioners,
    invariants=lambda ctx, parts: {"methods": len(parts)},
    repeats=2,
    threshold=0.6,
))


# ---------------------------------------------------------------------- ext.*

def _setup_smp(size):
    ranks = 16
    return {
        **_mesh_side("small", ranks),
        "cluster": ClusterSpec(smp=True).build(),
    }


def _run_smp(ctx):
    from repro.hydro import measure_iteration_time

    return measure_iteration_time(
        ctx["deck"], ctx["part"], cluster=ctx["cluster"],
        faces=ctx["faces"], census=ctx["census"],
    ).seconds


register(Benchmark(
    name="ext.smp_simulation",
    group="ext",
    description="simulated iteration with the SMP (hierarchical network) extension",
    source="benchmarks/bench_ext_smp_hierarchy.py",
    setup=_setup_smp,
    run=_run_smp,
    invariants=lambda ctx, result: {"seconds": float(result)},
    repeats=2,
))


def _setup_transition(size):
    from repro.perfmodel import TransitionModel

    deck = deck_for("small" if size == "smoke" else "medium")
    model = TransitionModel.for_deck(
        deck, _cost_table("coarse"), ClusterSpec().build().network
    )
    return {"model": model, "cells": deck.num_cells}


register(Benchmark(
    name="ext.transition_predict",
    group="ext",
    description="transition-model prediction at 512 PEs",
    source="benchmarks/bench_ext_transition_model.py",
    setup=_setup_transition,
    run=lambda ctx: ctx["model"].predict(ctx["cells"], 512),
    invariants=lambda ctx, pred: {"total_s": float(pred.total)},
))


# ---------------------------------------------------------------- placement.*

#: SMP machine whose shared-memory transport has cheaper host overheads.
_OVERHEAD_SMP = ClusterSpec(
    smp=True, intra_send_overhead=0.5e-6, intra_recv_overhead=0.7e-6
)


def _setup_place_optimize(size):
    ranks = 24 if size == "smoke" else 64
    return {
        "census": _mesh_side("small", ranks)["census"],
        "cluster": _OVERHEAD_SMP.build(),
        "ranks": ranks,
    }


def _run_place_optimize(ctx):
    from repro.placement import optimize_placement

    return optimize_placement(ctx["census"], ctx["cluster"])


def _place_optimize_invariants(ctx, placement):
    from repro.placement import (
        block_placement,
        inter_node_bytes,
        placement_comm_cost,
        rank_comm_bytes,
        rank_pair_times,
    )

    graph = rank_comm_bytes(ctx["census"])
    costs = rank_pair_times(ctx["census"], ctx["cluster"])
    block = block_placement(ctx["ranks"], placement.ranks_per_node)
    return {
        "block_inter_bytes": inter_node_bytes(block, graph),
        "optimized_inter_bytes": inter_node_bytes(placement, graph),
        "block_max_rank_cost_s": placement_comm_cost(block.node_of_rank, costs)[0],
        "optimized_max_rank_cost_s": placement_comm_cost(
            placement.node_of_rank, costs
        )[0],
    }


register(Benchmark(
    name="placement.comm_aware_optimize",
    group="placement",
    description="comm-aware placement optimizer (multi-start bisection + minimax refine)",
    source="src/repro/placement/optimize.py",
    setup=_setup_place_optimize,
    run=_run_place_optimize,
    invariants=_place_optimize_invariants,
    repeats=3,
    threshold=0.6,
))


def _setup_pairwise_pricing(size):
    from repro.placement import random_placement

    ranks, count = (64, 20000) if size == "smoke" else (256, 100000)
    rng = np.random.default_rng(2006)
    hierarchy = ClusterSpec(smp=True).build().hierarchy.with_placement(
        random_placement(ranks, 4, seed=7)
    )
    a = rng.integers(0, ranks, size=count)
    b = (a + rng.integers(1, ranks, size=count)) % ranks
    sizes = rng.integers(1, 65536, size=count).astype(np.float64)
    return {"hierarchy": hierarchy, "a": a, "b": b, "sizes": sizes}


def _run_pairwise_pricing(ctx):
    return float(
        ctx["hierarchy"].tmsg_pairs(ctx["a"], ctx["b"], ctx["sizes"]).sum()
    )


register(Benchmark(
    name="placement.pairwise_pricing",
    group="placement",
    description="batched endpoint-aware Tmsg (same-node mask over tmsg_many)",
    source="src/repro/machine/hierarchy.py",
    setup=_setup_pairwise_pricing,
    run=_run_pairwise_pricing,
    invariants=lambda ctx, result: {"total_time_s": float(result)},
))


def _setup_place_scenario(size):
    from repro.placement import block_placement, optimize_placement

    ranks = 16
    mesh = _mesh_side("small", ranks)
    census = mesh["census"]
    cluster = dataclasses.replace(_OVERHEAD_SMP, speed=8.0).build()
    return {
        **mesh,
        "block": cluster.with_placement(block_placement(ranks, 4)),
        "optimized": cluster.with_placement(
            optimize_placement(census, cluster)
        ),
    }


def _run_place_scenario(ctx):
    from repro.hydro import measure_iteration_time

    t_block = measure_iteration_time(
        ctx["deck"], ctx["part"], cluster=ctx["block"],
        faces=ctx["faces"], census=ctx["census"],
    ).seconds
    t_opt = measure_iteration_time(
        ctx["deck"], ctx["part"], cluster=ctx["optimized"],
        faces=ctx["faces"], census=ctx["census"],
    ).seconds
    return t_block, t_opt


register(Benchmark(
    name="placement.smp_scenario",
    group="placement",
    description="SMP-hierarchy scenario: block vs comm-aware placement, 4 ranks/node",
    source="benchmarks/bench_placement_strategies.py",
    setup=_setup_place_scenario,
    run=_run_place_scenario,
    invariants=lambda ctx, result: {
        "block_s": float(result[0]),
        "comm_aware_s": float(result[1]),
        "improvement_frac": float((result[0] - result[1]) / result[0]),
    },
    repeats=2,
))


# ------------------------------------------------------------------ dynamic.*

def _setup_dynamic(size):
    from repro.hydro import DynamicSpec

    iters = 6 if size == "smoke" else 8
    return {
        **_mesh_side("small", 16),
        "cluster": ClusterSpec().build(),
        "iters": iters,
        "spec": DynamicSpec(policy="imbalance:1.15", burn_multiplier=8.0),
    }


def _run_dynamic(ctx):
    from repro.hydro import run_krak

    return run_krak(
        ctx["deck"], ctx["part"], cluster=ctx["cluster"], iterations=ctx["iters"],
        faces=ctx["faces"], dynamic=ctx["spec"],
    )


register(Benchmark(
    name="dynamic.imbalance_run",
    group="dynamic",
    description="dynamic-workload run under the imbalance-threshold policy",
    source="benchmarks/bench_dynamic_imbalance.py",
    setup=_setup_dynamic,
    run=_run_dynamic,
    invariants=lambda ctx, run: {
        "makespan_s": float(run.result.makespan),
        "num_repartitions": int(run.dynamic.num_repartitions),
    },
    repeats=2,
))


# ------------------------------------------------------------------ perturb.*

def _setup_perturb(size):
    return {
        **_mesh_side("small", 16), "cluster": ClusterSpec().build(),
        "iters": 4 if size == "smoke" else 6,
        "amplitudes": (0.0, 0.05, 0.2) if size == "smoke"
        else (0.0, 0.02, 0.05, 0.1, 0.2),
    }


def _run_perturb_straggler(ctx):
    from repro.hydro import run_krak
    from repro.perturb import PerturbSpec

    def result_of(perturb):
        return run_krak(
            ctx["deck"], ctx["part"], cluster=ctx["cluster"],
            iterations=ctx["iters"], faces=ctx["faces"], perturb=perturb,
        ).result

    baseline = result_of(None)
    # One seed across the sweep: common random numbers, so every amplitude
    # scales the *same* exponential draws and hits the same stragglers —
    # which is what makes the makespan provably monotone in amplitude.
    sweep = [
        result_of(PerturbSpec(
            seed=7,
            compute_noise=amp,
            straggler_prob=0.25 if amp else 0.0,
            straggler_factor=4.0,
        ))
        for amp in ctx["amplitudes"]
    ]
    return baseline, sweep


def _perturb_invariants(ctx, result):
    import numpy as np

    baseline, sweep = result
    zero = sweep[0]
    makespans = [r.makespan for r in sweep]
    return {
        # The null spec must be bitwise free, not merely close.
        "zero_noise_identity": bool(
            np.array_equal(zero.trace.compute, baseline.trace.compute)
            and np.array_equal(zero.trace.comm, baseline.trace.comm)
            and np.array_equal(zero.final_clocks, baseline.final_clocks)
        ),
        "monotone_slowdown": bool(
            all(b >= a for a, b in zip(makespans, makespans[1:]))
        ),
        "baseline_s": float(baseline.makespan),
        "max_noise_s": float(makespans[-1]),
    }


register(Benchmark(
    name="perturb.straggler_sweep",
    group="perturb",
    description="straggler/OS-noise amplitude sweep: zero-noise identity + monotone slowdown",
    source="src/repro/perturb/model.py",
    setup=_setup_perturb,
    run=_run_perturb_straggler,
    invariants=_perturb_invariants,
    repeats=2,
))


# ------------------------------------------------------------------- verify.*

def _setup_verify_fuzz(size):
    return {"count": 6 if size == "smoke" else 24}


def _run_verify_fuzz(ctx):
    from repro.verify import fuzz

    # Regenerates + verifies inside the timed region: the bench tracks the
    # end-to-end cost of one differential sweep (shrinking is failure-path
    # only and stays off so a regression cannot also distort the timing).
    return fuzz(ctx["count"], shrink=False)


register(Benchmark(
    name="verify.fuzz_smoke",
    group="verify",
    description="differential fuzz sweep: optimized engine vs reference oracle",
    source="src/repro/verify/diff.py",
    setup=_setup_verify_fuzz,
    run=_run_verify_fuzz,
    invariants=lambda ctx, result: {
        "scenarios": int(result.num_seeds),
        "failures": int(len(result.failures)),
    },
    repeats=3,
))


# ------------------------------------------------------------------ service.*

def _setup_query_storm(size):
    from repro.core import PredictionRequest, predict

    request = PredictionRequest(deck="16x8", ranks=4, max_side=16)
    # Pre-warm the in-process calibration memo so the timed region measures
    # service overhead (HTTP, coalescing, cache tiers), not the one-off
    # calibration cost.
    predict(request)
    return {"request": request, "queries": 8 if size == "smoke" else 32}


def _run_query_storm(ctx):
    from repro.core import LRUResultCache
    from repro.service import PredictionServer, ServiceClient, run_storm

    server = PredictionServer(
        host="127.0.0.1", port=0, cache=LRUResultCache(store=None)
    )
    thread = server.serve_in_thread()
    client = ServiceClient(host="127.0.0.1", port=server.port)
    storm = run_storm(client, [ctx["request"]] * ctx["queries"], mode="predict")
    client.shutdown()
    thread.join(timeout=30)
    return storm


register(Benchmark(
    name="service.query_storm",
    group="service",
    description="prediction service under a concurrent identical-query storm",
    source="src/repro/service/server.py",
    setup=_setup_query_storm,
    run=_run_query_storm,
    # The computed/cached split is the service's load-bearing guarantee:
    # an identical-query storm simulates exactly once, answers once each.
    invariants=lambda ctx, storm: {
        "computed": int(storm.num_computed),
        "cached": int(storm.num_cached),
        "distinct_payloads": int(storm.distinct_payloads()),
        "total_s": float(storm.results[0].predicted["heterogeneous"]),
    },
    repeats=3,
))
