"""Unit tests for the workload census."""

import numpy as np
import pytest

from repro.hydro import build_workload_census
from repro.hydro.workload import EXCHANGE_GROUP, NUM_EXCHANGE_GROUPS
from repro.mesh import boundary_census, build_deck, build_face_table
from repro.mesh.deck import ALUMINUM_INNER, ALUMINUM_OUTER, NUM_MATERIALS
from repro.partition import structured_block_partition


@pytest.fixture(scope="module")
def census_setup():
    deck = build_deck("small")
    faces = build_face_table(deck.mesh)
    part = structured_block_partition(deck.mesh, 8)
    return deck, part, build_workload_census(deck, part, faces)


class TestExchangeGroups:
    def test_aluminums_share_a_group(self):
        """Identical materials are combined during boundary exchanges."""
        assert EXCHANGE_GROUP[ALUMINUM_INNER] == EXCHANGE_GROUP[ALUMINUM_OUTER]
        assert len(set(EXCHANGE_GROUP.values())) == NUM_EXCHANGE_GROUPS


def reverse_rows(src, dst, num_ranks):
    """Row of each directed link's reverse link."""
    keys = src * num_ranks + dst
    back = np.searchsorted(keys, dst * num_ranks + src)
    assert np.array_equal(keys[back], dst * num_ranks + src)
    return back


class TestMaterialCounts:
    def test_shape_and_total(self, census_setup):
        deck, part, census = census_setup
        assert census.material_counts().shape == (8, NUM_MATERIALS)
        assert census.material_counts().sum() == deck.num_cells

    def test_work_vector(self, census_setup):
        _, _, census = census_setup
        wv = census.work_vector(0)
        assert wv.dtype == np.float64
        assert np.array_equal(wv, census.material_counts()[0])


class TestBoundaryLinks:
    def test_symmetry(self, census_setup):
        """Every boundary link has a reverse link with the same face total."""
        _, _, census = census_setup
        back = reverse_rows(census.be_src, census.be_dst, census.num_ranks)
        totals = census.be_faces.sum(axis=1)
        assert np.array_equal(totals[back], totals)
        assert np.array_equal(back, census.be_reverse)

    def test_group_faces_sum_to_total(self, census_setup):
        """Each side's group faces sum to the pair's shared faces."""
        deck, part, census = census_setup
        faces = build_face_table(deck.mesh)
        pairs = boundary_census(
            deck.mesh, faces, deck.cell_material, part.cell_rank, part.num_ranks
        ).pairs
        for k, (a, b) in enumerate(zip(census.be_src, census.be_dst)):
            pb = pairs[(min(a, b), max(a, b))]
            assert census.be_faces[k].sum() == pb.num_faces

    def test_matches_boundary_census_view(self, census_setup):
        """Link by link, the census and the per-pair view count the same
        group faces and multi-material nodes on each side."""
        deck, part, census = census_setup
        faces = build_face_table(deck.mesh)
        pairs = boundary_census(
            deck.mesh, faces, deck.cell_material, part.cell_rank, part.num_ranks
        ).pairs
        assert census.num_boundary_links == 2 * len(pairs)
        for k, (a, b) in enumerate(zip(census.be_src, census.be_dst)):
            pb = pairs[(min(a, b), max(a, b))]
            side = pb.side_index(a)
            by_group = np.zeros(NUM_EXCHANGE_GROUPS)
            for mat, group in EXCHANGE_GROUP.items():
                by_group[group] += pb.faces_by_material[side][mat]
            assert np.array_equal(census.be_faces[k], by_group)
            assert census.be_multi[k].sum() == pb.multi_material_nodes[side]

    def test_neighbors_sorted(self, census_setup):
        _, _, census = census_setup
        for rank, rows in enumerate(census.boundary_links):
            assert set(census.be_src[rows].tolist()) <= {rank}
            nbrs = census.be_dst[rows].tolist()
            assert nbrs == sorted(set(nbrs))
            assert rank not in nbrs


class TestGhostLinks:
    def test_symmetry(self, census_setup):
        _, _, census = census_setup
        back = reverse_rows(census.gn_src, census.gn_dst, census.num_ranks)
        shared = census.gn_local + census.gn_remote
        assert np.array_equal(shared[back], shared)

    def test_ownership_partition(self, census_setup):
        """Owned by me + owned by nbr <= shared (remainder owned by thirds)."""
        _, _, census = census_setup
        back = reverse_rows(census.gn_src, census.gn_dst, census.num_ranks)
        shared = census.gn_local + census.gn_remote
        assert np.all(census.gn_local + census.gn_local[back] <= shared)
        assert np.all(census.gn_local >= 0) and np.all(census.gn_remote >= 0)

    def test_ghost_links_superset_of_boundary_links(self, census_setup):
        """Every face-sharing pair also shares nodes."""
        _, _, census = census_setup
        face_pairs = set(zip(census.be_src.tolist(), census.be_dst.tolist()))
        node_pairs = set(zip(census.gn_src.tolist(), census.gn_dst.tolist()))
        assert face_pairs <= node_pairs

    def test_straight_cut_ghost_count(self):
        """For a 1-D chain of tiles, shared nodes per pair = ny + 1."""
        deck = build_deck((16, 8))
        faces = build_face_table(deck.mesh)
        part = structured_block_partition(deck.mesh, 2, px=2, py=1)
        census = build_workload_census(deck, part, faces)
        assert census.gn_src.tolist() == [0, 1]
        assert census.gn_local[0] + census.gn_remote[0] == 9
        # Lower rank owns everything on the seam.
        assert census.gn_local.tolist() == [9, 0]
