"""Figure 3: per-cell computation time vs cells-per-processor.

Regenerates the three panels (phases 1, 2, 7) for all four materials from
the contrived-grid calibration, showing the knee: per-cell cost is flat
for large subgrids and rises as 1/n below ~10³ cells per processor.
"""

import numpy as np
import pytest

from repro.analysis import format_series
from repro.mesh import MATERIAL_NAMES, NUM_MATERIALS

#: 0-based indices of the phases plotted in Figure 3.
FIGURE3_PHASES = (0, 1, 6)


def test_figure3_report(fine_cost_table, report_writer):
    lines = [
        "Figure 3 (reproduced): per-cell computation time [s] vs cells per "
        "processor, phases 1 / 2 / 7"
    ]
    for phase in FIGURE3_PHASES:
        lines.append("")
        lines.append(f"--- Phase {phase + 1} ---")
        for m in range(NUM_MATERIALS):
            curve = fine_cost_table.curves[phase][m]
            lines.append(
                format_series(
                    f"phase {phase + 1} / {MATERIAL_NAMES[m]}",
                    curve.cells,
                    curve.per_cell,
                    "cells/PE",
                    "s/cell",
                )
            )
    report_writer("figure3_percell_curves", "\n".join(lines))


def test_knee_shape_all_phases(fine_cost_table):
    """Every curve decreases towards a flat large-subgrid plateau."""
    for phase in FIGURE3_PHASES:
        for m in range(NUM_MATERIALS):
            curve = fine_cost_table.curves[phase][m]
            # Small-subgrid cost dominated by overhead: orders of magnitude
            # above the flat region.
            assert curve.per_cell[0] > 20 * curve.per_cell[-1]
            # Large-subgrid plateau: last two samples within 30%.
            assert curve.per_cell[-1] == pytest.approx(
                curve.per_cell[-2], rel=0.3
            )


def test_phase2_knee_near_1000_cells(fine_cost_table):
    """The paper singles out phase 2's knee; it sits near 10³ cells/PE
    (where overhead/n equals the flat per-cell cost)."""
    curve = fine_cost_table.curves[1][0]
    flat = curve.per_cell[-1]
    knee_idx = int(np.argmin(np.abs(curve.per_cell - 2 * flat)))
    knee_cells = curve.cells[knee_idx]
    assert 100 <= knee_cells <= 20000


@pytest.mark.benchmark(group="figure3")
def test_bench_contrived_calibration(benchmark, registry_bench):
    """Cost of one contrived-grid calibration (all materials)."""
    table = registry_bench(benchmark, "figure3.contrived_calibration", rounds=3)[2]
    assert table.num_materials == NUM_MATERIALS
