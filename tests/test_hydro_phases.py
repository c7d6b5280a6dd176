"""Unit tests for the 15-phase Krak program structure."""

import numpy as np
import pytest

from repro.hydro import build_workload_census, run_krak
from repro.hydro.phases import KrakProgram
from repro.machine import NUM_PHASES, es45_like_cluster
from repro.mesh import build_deck, build_face_table
from repro.partition import structured_block_partition
from repro.simmpi import api


@pytest.fixture(scope="module")
def program_requests():
    """Record the full request stream of rank 0 for one iteration."""
    deck = build_deck((16, 8))
    faces = build_face_table(deck.mesh)
    part = structured_block_partition(deck.mesh, 4, px=2, py=2)
    census = build_workload_census(deck, part, faces)
    cluster = es45_like_cluster(jitter_frac=0.0)
    prog = KrakProgram(census, cluster.node, iterations=1)
    return list(prog.rank_ops(0)), census


class TestPhaseStructure:
    def test_all_phases_visited_in_order(self, program_requests):
        requests, _ = program_requests
        phases = [r.phase for r in requests if isinstance(r, api.SetPhase)]
        assert phases == list(range(NUM_PHASES))

    def test_one_compute_per_phase(self, program_requests):
        requests, _ = program_requests
        computes = [r for r in requests if isinstance(r, api.Compute)]
        assert len(computes) == NUM_PHASES

    def test_allreduce_census_matches_table4(self, program_requests):
        """9 four-byte + 13 eight-byte allreduces per iteration."""
        requests, _ = program_requests
        allreduces = [r for r in requests if isinstance(r, api.Allreduce)]
        assert len(allreduces) == 22
        sizes = [int(r.nbytes) for r in allreduces]
        assert sizes.count(4) == 9
        assert sizes.count(8) == 13

    def test_bcast_census_matches_table4(self, program_requests):
        requests, _ = program_requests
        bcasts = [r for r in requests if isinstance(r, api.Bcast)]
        sizes = sorted(int(r.nbytes) for r in bcasts)
        assert sizes == [4, 4, 4, 8, 8, 8]

    def test_single_gather_32_bytes(self, program_requests):
        requests, _ = program_requests
        gathers = [r for r in requests if isinstance(r, api.Gather)]
        assert len(gathers) == 1
        assert gathers[0].nbytes == 32

    def test_boundary_exchange_message_count(self, program_requests):
        """Six messages per material group + six final, per neighbour."""
        requests, census = program_requests
        sends = [r for r in requests if isinstance(r, api.Isend)]
        be_sends = [s for s in sends if 1000 <= s.tag < 2000]
        rows = census.boundary_links[0]
        active_groups = int(np.count_nonzero(census.be_faces[rows] > 0))
        expected = 6 * (active_groups + len(rows))
        assert len(be_sends) == expected

    def test_ghost_update_message_counts(self, program_requests):
        """Two messages per neighbour in each of phases 4, 5, 7."""
        requests, census = program_requests
        sends = [r for r in requests if isinstance(r, api.Isend)]
        n_ghost_links = len(census.ghost_links[0])
        for phase in (3, 4, 6):
            phase_sends = [
                s for s in sends if phase * 1000 <= s.tag < (phase + 1) * 1000
            ]
            assert len(phase_sends) == 2 * n_ghost_links

    def test_ghost_bytes_per_node(self, program_requests):
        """Phase 4 moves 8 B per ghost node; phases 5 and 7 move 16 B."""
        requests, census = program_requests
        sends = [r for r in requests if isinstance(r, api.Isend)]
        first = census.ghost_links[0][0]
        for phase, bpn in ((3, 8), (4, 16), (6, 16)):
            local = next(s for s in sends if s.tag == phase * 1000)
            assert local.nbytes == bpn * census.gn_local[first]

    def test_sends_precede_receives_per_phase(self, program_requests):
        """Asynchronous sends posted, completion ensured, then blocking
        receives (Section 4's described pattern)."""
        requests, _ = program_requests
        for phase in (1, 3, 4, 6):
            tags = range(phase * 1000, (phase + 1) * 1000)
            indexed = [
                (i, r)
                for i, r in enumerate(requests)
                if isinstance(r, (api.Isend, api.Recv)) and r.tag in tags
            ]
            kinds = [type(r).__name__ for _, r in indexed]
            first_recv = kinds.index("Recv")
            assert "Isend" not in kinds[first_recv:]


class TestFunctionalSmoke:
    def test_two_iterations_advance_time(self):
        deck = build_deck((16, 8))
        faces = build_face_table(deck.mesh)
        part = structured_block_partition(deck.mesh, 2, px=2, py=1)
        run = run_krak(deck, part, iterations=2, functional=True, faces=faces)
        assert run.diagnostics["time"] > 0
        assert run.diagnostics["dt"] > 0

    def test_mesh_tangle_raises(self):
        """Forcing a vast timestep must trip the phase-8 volume check."""
        deck = build_deck((8, 4))
        faces = build_face_table(deck.mesh)
        part = structured_block_partition(deck.mesh, 2, px=2, py=1)
        from repro.hydro.functional import run_functional
        from repro.hydro.state import build_rank_states

        census = build_workload_census(deck, part, faces)
        states = build_rank_states(deck, part)
        # Invert a cell outright: swap one cell's diagonal node positions.
        st0 = states[0]
        a, _, c, _ = st0.cell_nodes[0]
        st0.x[[a, c]] = st0.x[[c, a]]
        st0.y[[a, c]] = st0.y[[c, a]]
        with pytest.raises(FloatingPointError, match="tangled"):
            run_functional(states, census, iterations=1)
