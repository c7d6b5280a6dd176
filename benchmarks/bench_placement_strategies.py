"""Extension: topology-aware rank placement on the SMP machine.

The 4-way-SMP machine makes rank→node placement a scenario axis: on-node
messages ride shared memory (cheaper wire *and* cheaper per-message host
overheads), so which ranks share a node shifts both traffic and the
critical rank's cost.  This bench measures one configuration under each
placement strategy and checks the communication-aware optimizer's margin
over the launcher's block default — the makespan-aligned objective (max
per-rank priced p2p cost), not raw inter-node bytes, is what buys time.
"""

import pytest

from repro.analysis import TextTable
from repro.hydro import build_workload_census, measure_iteration_time
from repro.machine import es45_like_cluster
from repro.mesh import build_face_table
from repro.partition import cached_partition
from repro.placement import (
    inter_node_bytes,
    make_placement,
    placement_comm_cost,
    rank_comm_bytes,
    rank_pair_times,
    total_pair_bytes,
)

#: The scenario: small deck, 16 ranks on 4-way nodes, fast-CPU what-if
#: (speed 8 makes the machine communication-bound, where placement lives),
#: shared-memory host overheads on-node.
RANKS = 16
RANKS_PER_NODE = 4
SPEED = 8.0


@pytest.fixture(scope="module")
def placement_rows(small_deck):
    faces = build_face_table(small_deck.mesh)
    partition = cached_partition(small_deck, RANKS, seed=1, faces=faces)
    census = build_workload_census(small_deck, partition, faces)
    cluster = es45_like_cluster(speed=SPEED).with_smp(
        ranks_per_node=RANKS_PER_NODE,
        intra_send_overhead=0.5e-6,
        intra_recv_overhead=0.7e-6,
    )
    graph = rank_comm_bytes(census)
    total = total_pair_bytes(graph)
    costs = rank_pair_times(census, cluster)

    rows = []
    for strategy in ("block", "round-robin", "random:1", "comm-aware"):
        placement = make_placement(
            strategy,
            num_ranks=RANKS,
            ranks_per_node=RANKS_PER_NODE,
            census=census,
            cluster=cluster,
        )
        seconds = measure_iteration_time(
            small_deck, partition, cluster=cluster.with_placement(placement),
            faces=faces, census=census,
        ).seconds
        share = inter_node_bytes(placement, graph) / total
        max_cost, _ = placement_comm_cost(placement.node_of_rank, costs)
        rows.append((placement.name, share, max_cost, seconds))
    return rows


def test_placement_report(placement_rows, report_writer):
    table = TextTable(
        f"Extension: rank placement, small deck, {RANKS} ranks "
        f"({RANKS_PER_NODE}/node, CPU x{SPEED:g})",
        ["strategy", "inter-node share", "max rank p2p (ms)",
         "measured (ms)", "vs block"],
    )
    t_block = placement_rows[0][3]
    for name, share, max_cost, seconds in placement_rows:
        table.add_row(
            name,
            f"{share * 100:.0f}%",
            max_cost * 1e3,
            seconds * 1e3,
            f"{(t_block - seconds) / t_block * 100:+.2f}%",
        )
    report_writer("placement_strategies", table.render())


def test_comm_aware_beats_block(placement_rows):
    """The acceptance margin: optimized placement wins simulated time."""
    by_name = {name: seconds for name, _, _, seconds in placement_rows}
    assert by_name["comm-aware"] < by_name["block"]


def test_comm_aware_lowers_max_rank_cost(placement_rows):
    """The optimizer's objective moved: the critical rank got cheaper."""
    by_name = {name: max_cost for name, _, max_cost, _ in placement_rows}
    assert by_name["comm-aware"] < by_name["block"]


def test_block_beats_round_robin(placement_rows):
    """Spatially-coherent rank ids make cyclic placement an adversary."""
    by_name = {name: seconds for name, _, _, seconds in placement_rows}
    assert by_name["block"] < by_name["round-robin"]


@pytest.mark.benchmark(group="placement")
def test_bench_smp_scenario(benchmark, registry_bench):
    """Block vs comm-aware measured runs (the registry scenario entry)."""
    _, _, (t_block, t_opt) = registry_bench(benchmark, "placement.smp_scenario")
    assert 0 < t_opt < t_block


@pytest.mark.benchmark(group="placement")
def test_bench_comm_aware_optimize(benchmark, registry_bench):
    """Optimizer end to end on a census communication graph."""
    bench, ctx, placement = registry_bench(benchmark, "placement.comm_aware_optimize")
    inv = bench.invariants(ctx, placement)
    assert inv["optimized_max_rank_cost_s"] <= inv["block_max_rank_cost_s"]


@pytest.mark.benchmark(group="placement")
def test_bench_pairwise_pricing(benchmark, registry_bench):
    """Batched endpoint-aware Tmsg pricing hot path."""
    bench, ctx, total = registry_bench(benchmark, "placement.pairwise_pricing")
    # Bitwise contract: each batched element equals the scalar pair price.
    h = ctx["hierarchy"]
    batched = h.tmsg_pairs(ctx["a"][:64], ctx["b"][:64], ctx["sizes"][:64])
    for got, a, b, s in zip(batched, ctx["a"][:64], ctx["b"][:64], ctx["sizes"][:64]):
        assert got == h.tmsg_pair(int(a), int(b), float(s))
    assert total > 0
