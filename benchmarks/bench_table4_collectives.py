"""Table 4: collective-communication operations per iteration.

Regenerates the census from the implemented phase structure and tabulates
the Equations (8)–(10) model times across processor counts.
"""

import pytest

from repro.analysis import TextTable
from repro.machine import QSNET_LIKE
from repro.machine.costdb import table4_census
from repro.perfmodel import (
    allreduce_total_time,
    broadcast_time,
    collectives_time,
    gather_total_time,
)


def test_table4_report(report_writer):
    census = table4_census()
    table = TextTable(
        "Table 4 (reproduced): collective communication operations per iteration",
        ["Type", "Count", "Size (bytes)"],
    )
    for op, sizes in census.items():
        for size, count in sorted(sizes.items()):
            table.add_row(f"{op}()", count, size)
    text = table.render()

    times = TextTable(
        "Modelled collective time per iteration (Equations 8-10)",
        ["PEs", "Bcast [us]", "Allreduce [us]", "Gather [us]", "Total [us]"],
    )
    for p in (16, 64, 128, 256, 512, 1024):
        times.add_row(
            p,
            broadcast_time(QSNET_LIKE, p) * 1e6,
            allreduce_total_time(QSNET_LIKE, p) * 1e6,
            gather_total_time(QSNET_LIKE, p) * 1e6,
            collectives_time(QSNET_LIKE, p) * 1e6,
        )
    report_writer("table4_collectives", text + "\n\n" + times.render())


def test_census_matches_paper():
    census = table4_census()
    assert census["MPI_Bcast"] == {4: 3, 8: 3}
    assert census["MPI_Allreduce"] == {4: 9, 8: 13}
    assert census["MPI_Gather"] == {32: 1}


def test_allreduce_dominates_collectives():
    """22 allreduces × 2 tree traversals dwarf 6 bcasts + 1 gather."""
    p = 256
    assert allreduce_total_time(QSNET_LIKE, p) > 3 * broadcast_time(QSNET_LIKE, p)


def test_simulated_collectives_match_model(cluster):
    """The DES charges exactly the modelled time for an isolated collective
    (the model and simulator share the binary-tree abstraction)."""
    from repro.simmpi import Allreduce, Compute, Engine, SetPhase, allreduce_time

    def prog(rank):
        yield SetPhase(0)
        yield Compute(0.0)
        yield Allreduce(nbytes=8)

    res = Engine(cluster, 64, 1).run(prog)
    assert res.makespan == pytest.approx(allreduce_time(cluster.network, 64, 8))


@pytest.mark.benchmark(group="table4")
def test_bench_collectives_model(benchmark, registry_bench):
    times = registry_bench(benchmark, "table4.collectives_model")[2]
    assert all(t > 0 for t in times)
