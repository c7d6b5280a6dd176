"""Figure 2: computation time by phase on 256 processors, 65 536 cells.

"MPI communication time is not included.  Because of the fairly large
processor count, subdomains are homogeneous in terms of materials" — we
reproduce the grouped-by-material phase times by taking, per phase and per
material, the maximum compute time over the ranks dominated by that
material.
"""

import numpy as np
import pytest

from repro.analysis import TextTable
from repro.hydro import build_workload_census, run_krak
from repro.machine import NUM_PHASES
from repro.mesh import MATERIAL_NAMES, NUM_MATERIALS, build_deck, build_face_table
from repro.partition import cached_partition

#: Ranks whose cells are ≥ this fraction one material count as that material.
DOMINANCE = 0.9


@pytest.fixture(scope="module")
def figure2_run(cluster):
    deck = build_deck((256, 256))  # 65 536 cells
    faces = build_face_table(deck.mesh)
    part = cached_partition(deck, 256, seed=1, faces=faces)
    census = build_workload_census(deck, part, faces)
    run = run_krak(
        deck, part, cluster=cluster, iterations=2, faces=faces, census=census
    )
    return deck, part, census, run


def test_figure2_report(figure2_run, report_writer):
    deck, part, census, run = figure2_run
    compute = run.result.trace.compute / run.iterations  # (ranks, phases)
    counts = census.material_counts()
    dominant = np.where(
        counts.max(axis=1) >= DOMINANCE * counts.sum(axis=1),
        counts.argmax(axis=1),
        -1,
    )

    table = TextTable(
        "Figure 2 (reproduced): computation time by phase, no MPI, 256 PEs, "
        "65,536 cells [ms per iteration]",
        ["Phase"] + list(MATERIAL_NAMES),
    )
    per_phase_mat = np.zeros((NUM_PHASES, NUM_MATERIALS))
    for m in range(NUM_MATERIALS):
        ranks = np.flatnonzero(dominant == m)
        if ranks.size:
            per_phase_mat[:, m] = compute[ranks].max(axis=0)
    for p in range(NUM_PHASES):
        table.add_row(p + 1, *[per_phase_mat[p, m] * 1e3 for m in range(NUM_MATERIALS)])
    report_writer("figure2_phase_times", table.render())

    # The paper's observations: most ranks are homogeneous at 256 PEs, and
    # phase 14 (index 13) is material-dependent (foam slowest, HE fastest;
    # at 256 cells/PE the per-phase overhead compresses the total-time
    # spread, so assert ordering plus a modest ratio).
    assert (dominant >= 0).mean() > 0.5
    row = per_phase_mat[13]
    present = row[row > 0]
    assert present.max() / present.min() > 1.1
    assert row[2] > row[0]  # foam > HE gas in the strength phase


def test_phase14_material_dependence(figure2_run):
    """Foam-dominated ranks are slowest in the strength phase."""
    _, _, census, run = figure2_run
    compute = run.result.trace.compute / run.iterations
    counts = census.material_counts()
    dominant = counts.argmax(axis=1)
    foam = np.flatnonzero(dominant == 2)
    he = np.flatnonzero(dominant == 0)
    assert compute[foam, 13].mean() > compute[he, 13].mean()


@pytest.mark.benchmark(group="figure2")
def test_bench_census_timing_run(benchmark, registry_bench):
    """Execution-driven simulation speed at 256 ranks."""
    bench, ctx, result = registry_bench(
        benchmark, "figure2.census_timing_run", rounds=3
    )
    assert ctx["part"].num_ranks == 256
    assert result > 0
