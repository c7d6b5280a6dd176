"""Unit tests for distributed rank state construction."""

import numpy as np
import pytest

from repro.hydro import build_rank_states
from repro.mesh import build_deck
from repro.partition import block_partition, structured_block_partition


@pytest.fixture(scope="module")
def four_states(tiny_deck_module):
    deck = tiny_deck_module
    part = structured_block_partition(deck.mesh, 4, px=2, py=2)
    return deck, part, build_rank_states(deck, part)


@pytest.fixture(scope="module")
def tiny_deck_module():
    return build_deck((16, 8))


class TestBuildRankStates:
    def test_cells_partitioned_exactly(self, four_states):
        deck, part, states = four_states
        all_cells = np.concatenate([st.cells_g for st in states])
        assert np.array_equal(np.sort(all_cells), np.arange(deck.num_cells))

    def test_local_connectivity_valid(self, four_states):
        _, _, states = four_states
        for st in states:
            assert st.cell_nodes.min() >= 0
            assert st.cell_nodes.max() < st.num_nodes
            # Local node ids map back to the right global nodes.
            assert np.array_equal(
                np.unique(st.nodes_g[st.cell_nodes]), np.sort(st.nodes_g)
            )

    def test_initial_mass_positive(self, four_states):
        _, _, states = four_states
        for st in states:
            assert np.all(st.cell_mass > 0)
            assert np.all(st.rho > 0)

    def test_global_mass_matches_density_times_area(self, four_states):
        deck, _, states = four_states
        from repro.mesh.geometry import cell_areas
        from repro.hydro.materials import initial_density

        expected = (initial_density(deck.cell_material) * np.abs(cell_areas(deck.mesh))).sum()
        total = sum(st.cell_mass.sum() for st in states)
        assert total == pytest.approx(expected)

    def test_axis_nodes_detected(self, four_states):
        _, _, states = four_states
        # Ranks on the left column contain the x=0 axis nodes.
        axis_total = sum(int(st.on_axis.sum()) for st in states)
        assert axis_total >= 9  # (ny+1) nodes, some shared between ranks

    def test_rejects_mismatched_partition(self, four_states):
        deck, _, _ = four_states
        bad = block_partition(10, 2)
        with pytest.raises(ValueError, match="does not match"):
            build_rank_states(deck, bad)


class TestNeighborLinks:
    def test_links_symmetric(self, four_states):
        _, _, states = four_states
        for st in states:
            for lk in st.links:
                peer = states[lk.nbr_rank]
                back = [l for l in peer.links if l.nbr_rank == st.rank]
                assert len(back) == 1
                assert back[0].shared_local_idx.size == lk.shared_local_idx.size

    def test_shared_nodes_agree_globally(self, four_states):
        _, _, states = four_states
        st0 = states[0]
        for lk in st0.links:
            peer = states[lk.nbr_rank]
            back = next(l for l in peer.links if l.nbr_rank == 0)
            gids_mine = st0.nodes_g[lk.shared_local_idx]
            gids_theirs = peer.nodes_g[back.shared_local_idx]
            assert np.array_equal(gids_mine, gids_theirs)

    def test_owner_consistency(self, four_states):
        _, _, states = four_states
        st0 = states[0]
        for lk in st0.links:
            peer = states[lk.nbr_rank]
            back = next(l for l in peer.links if l.nbr_rank == 0)
            assert np.array_equal(lk.owner_of_shared, back.owner_of_shared)

    def test_corner_rank_pairs_included(self, four_states):
        """The 2×2 tiling's diagonal ranks share exactly one corner node."""
        _, _, states = four_states
        diag = [lk for lk in states[0].links if lk.nbr_rank == 3]
        assert len(diag) == 1
        assert diag[0].shared_local_idx.size == 1

    def test_ownership_is_min_rank(self, four_states):
        _, _, states = four_states
        for st in states:
            for lk in st.links:
                assert np.all(lk.owner_of_shared <= min(st.rank, lk.nbr_rank))
