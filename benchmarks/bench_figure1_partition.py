"""Figure 1: irregular partitioning of 3 200 cells on 16 processors.

Regenerates the figure as an ASCII cell map (partition ids over the grid,
material-layer boundaries marked) plus partition-quality statistics, and
benchmarks the multilevel partitioner itself.
"""

import pytest

from repro.analysis import TextTable
from repro.mesh import MATERIAL_NAMES, build_face_table
from repro.partition import cached_partition, dual_graph_of_mesh, partition_quality

_GLYPHS = "0123456789abcdef"


def test_figure1_report(small_deck, report_writer):
    faces = build_face_table(small_deck.mesh)
    part = cached_partition(small_deck, 16, seed=1, faces=faces)
    g = dual_graph_of_mesh(small_deck.mesh, faces)
    q = partition_quality(g, part)

    nx, ny = small_deck.mesh.nx, small_deck.mesh.ny
    grid = part.cell_rank.reshape(ny, nx)
    mats = small_deck.cell_material.reshape(ny, nx)

    lines = ["Figure 1 (reproduced): 3200 cells on 16 processors", ""]
    # Downsample rows for readability; mark material boundaries with '|'.
    for j in range(ny - 1, -1, -2):
        row = []
        for i in range(nx):
            row.append(_GLYPHS[grid[j, i] % 16])
            if i + 1 < nx and mats[j, i] != mats[j, i + 1]:
                row.append("|")
        lines.append("".join(row))
    lines.append("")
    lines.append(
        "materials (left to right): "
        + " | ".join(MATERIAL_NAMES)
    )
    lines.append("")
    stats = TextTable(
        "Partition quality (Metis-analogue multilevel k-way)",
        ["ranks", "edge cut", "imbalance", "mean nbrs", "min", "max"],
    )
    stats.add_row(
        q.num_ranks, q.edge_cut, q.imbalance, q.mean_neighbors, q.min_neighbors, q.max_neighbors
    )
    lines.append(stats.render())
    report_writer("figure1_partition", "\n".join(lines))

    # The partition must be irregular (the paper's Section 2 point): varying
    # cell counts per material per rank.
    census = part.material_census(small_deck.cell_material, 4)
    assert (census > 0).sum() > 16  # some ranks hold more than one material


@pytest.mark.benchmark(group="figure1")
def test_bench_multilevel_partitioner(benchmark, registry_bench):
    """Partitioner speed on the small deck at 16 ranks."""
    part = registry_bench(benchmark, "figure1.multilevel_partition")[2]
    assert part.num_ranks == 16


@pytest.mark.benchmark(group="figure1")
def test_bench_boundary_census(benchmark, registry_bench):
    """Partition-boundary census construction cost (the workload census
    every simulation and model prediction reads)."""
    census = registry_bench(benchmark, "figure1.boundary_census")[2]
    assert census.num_boundary_links > 0
