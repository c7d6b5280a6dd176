"""Integration: the functional solver's physics is partition-invariant.

Running the same deck on 1, 2, and 4 ranks (with genuinely different
communication patterns) must give the same global diagnostics — the single
strongest check that the ghost-node exchange protocol is correct.
"""

import numpy as np
import pytest

from repro.hydro import run_krak
from repro.machine import es45_like_cluster
from repro.mesh import build_deck, build_face_table
from repro.partition import (
    block_partition,
    multilevel_partition,
    structured_block_partition,
)

DIAG_KEYS = ("total_mass", "total_ke", "total_ie", "total_momentum_x", "total_energy", "dt")


@pytest.fixture(scope="module")
def reference_run():
    deck = build_deck((16, 8))
    faces = build_face_table(deck.mesh)
    part1 = block_partition(deck.num_cells, 1)
    run = run_krak(deck, part1, iterations=4, functional=True, faces=faces)
    return deck, faces, run


class TestPartitionInvariance:
    @pytest.mark.parametrize("px,py", [(2, 1), (1, 2), (2, 2), (4, 2)])
    def test_structured_tilings_match_serial(self, reference_run, px, py):
        deck, faces, ref = reference_run
        part = structured_block_partition(deck.mesh, px * py, px=px, py=py)
        run = run_krak(deck, part, iterations=4, functional=True, faces=faces)
        for key in DIAG_KEYS:
            assert run.diagnostics[key] == pytest.approx(
                ref.diagnostics[key], rel=1e-9
            ), key

    def test_irregular_partition_matches_serial(self, reference_run):
        deck, faces, ref = reference_run
        part = multilevel_partition(deck.mesh, 4, faces=faces, seed=7)
        run = run_krak(deck, part, iterations=4, functional=True, faces=faces)
        for key in DIAG_KEYS:
            assert run.diagnostics[key] == pytest.approx(
                ref.diagnostics[key], rel=1e-9
            ), key

    def test_node_fields_match_serial(self, reference_run):
        """Per-node velocities agree with the serial run, not just sums."""
        deck, faces, ref = reference_run
        part = structured_block_partition(deck.mesh, 4, px=2, py=2)
        run = run_krak(deck, part, iterations=4, functional=True, faces=faces)

        serial = ref.states[0]
        vx_global = np.zeros(deck.mesh.num_nodes)
        vx_global[serial.nodes_g] = serial.vx
        for st in run.states:
            np.testing.assert_allclose(
                st.vx, vx_global[st.nodes_g], rtol=1e-9, atol=1e-12
            )

    def test_cell_fields_match_serial(self, reference_run):
        deck, faces, ref = reference_run
        part = structured_block_partition(deck.mesh, 4, px=2, py=2)
        run = run_krak(deck, part, iterations=4, functional=True, faces=faces)
        serial = ref.states[0]
        rho_global = np.zeros(deck.num_cells)
        rho_global[serial.cells_g] = serial.rho
        for st in run.states:
            np.testing.assert_allclose(st.rho, rho_global[st.cells_g], rtol=1e-9)


class TestTimingModesAgree:
    def test_census_and_functional_same_virtual_time(self):
        """The two modes charge identical compute and identical message
        sizes, so the simulated clock must agree bit for bit: makespan,
        final clocks, the per-(rank, phase) trace and every iteration
        mark."""
        deck = build_deck((16, 8))
        faces = build_face_table(deck.mesh)
        part = structured_block_partition(deck.mesh, 4, px=2, py=2)
        cluster = es45_like_cluster()
        census = run_krak(
            deck, part, cluster=cluster, iterations=3, faces=faces
        ).result
        func = run_krak(
            deck, part, cluster=cluster, iterations=3, functional=True, faces=faces
        ).result
        assert func.makespan == census.makespan
        assert np.array_equal(func.final_clocks, census.final_clocks)
        assert np.array_equal(func.trace.compute, census.trace.compute)
        assert np.array_equal(func.trace.comm, census.trace.comm)
        starts = census.trace.iteration_starts
        assert set(func.trace.iteration_starts) == set(starts)
        for index, row in starts.items():
            assert np.array_equal(func.trace.iteration_starts[index], row)
