"""Table 1: the 15-phase iteration structure (actions + sync points).

Regenerates the paper's Table 1 from the implemented application by
inspecting the request stream of one rank, then benchmarks the simulator's
iteration throughput on the small deck.
"""

import pytest

from repro.analysis import TextTable
from repro.hydro import build_workload_census
from repro.hydro.phases import KrakProgram
from repro.machine import (
    COMM_BOUNDARY_EXCHANGE,
    COMM_GHOST_8,
    COMM_GHOST_16,
    NUM_PHASES,
    PHASE_BCASTS,
    PHASE_COMM_KIND,
    PHASE_GATHERS,
    PHASE_SYNC_POINTS,
)
from repro.mesh import build_face_table
from repro.partition import cached_partition

_ACTION_LABEL = {
    COMM_BOUNDARY_EXCHANGE: "Boundary exchange",
    COMM_GHOST_8: "Ghost node updates (8 bytes)",
    COMM_GHOST_16: "Ghost node updates (16 bytes)",
}


def _phase_action(phase: int) -> str:
    parts = []
    if phase in PHASE_BCASTS:
        sizes = ", ".join(f"{s} bytes" for s in PHASE_BCASTS[phase])
        parts.append(f"Broadcast ({sizes})")
    kind = PHASE_COMM_KIND[phase]
    if kind in _ACTION_LABEL:
        parts.append(_ACTION_LABEL[kind])
    if phase in PHASE_GATHERS:
        sizes = ", ".join(f"{s} bytes" for s in PHASE_GATHERS[phase])
        parts.append(f"Gather ({sizes})")
    return "; ".join(parts) if parts else "Computation only"


def test_table1_report(report_writer):
    """Emit the reproduced Table 1."""
    table = TextTable(
        "Table 1: Summary of Krak activities by phase (reproduced)",
        ["Phase", "Action", "Sync points"],
    )
    for p in range(NUM_PHASES):
        table.add_row(p + 1, _phase_action(p), PHASE_SYNC_POINTS[p])
    report_writer("table1_phase_structure", table.render())
    assert sum(PHASE_SYNC_POINTS) == 22


def test_request_stream_matches_table1(small_deck):
    """The executed program visits every phase with the Table 1 comm ops."""
    faces = build_face_table(small_deck.mesh)
    part = cached_partition(small_deck, 16, seed=1, faces=faces)
    census = build_workload_census(small_deck, part, faces)
    from repro.machine import es45_like_cluster
    from repro.simmpi import api

    prog = KrakProgram(census, es45_like_cluster().node, iterations=1)
    phases_seen = {
        req.phase for req in prog.rank_ops(0) if isinstance(req, api.SetPhase)
    }
    assert phases_seen == set(range(NUM_PHASES))


@pytest.mark.benchmark(group="table1")
def test_bench_iteration_simulation(benchmark, registry_bench):
    """Simulator throughput: full 15-phase iterations on 16 ranks."""
    makespan = registry_bench(benchmark, "table1.iteration_simulation")[2]
    assert makespan > 0
