"""Unit tests for the workload census."""

import numpy as np
import pytest

from repro.hydro import build_workload_census
from repro.hydro.workload import EXCHANGE_GROUP, NUM_EXCHANGE_GROUPS
from repro.mesh import build_deck, build_face_table
from repro.mesh.deck import ALUMINUM_INNER, ALUMINUM_OUTER, FOAM, NUM_MATERIALS
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
        """Each side's group faces sum to the faces its pair shares."""
        deck, part, census = census_setup
        faces = build_face_table(deck.mesh)
        interior = faces.interior_mask()
        r0 = part.cell_rank[faces.face_cells[interior, 0]]
        r1 = part.cell_rank[faces.face_cells[interior, 1]]
        for k, (a, b) in enumerate(zip(census.be_src, census.be_dst)):
            shared = np.count_nonzero((r0 == a) & (r1 == b) | (r0 == b) & (r1 == a))
            assert census.be_faces[k].sum() == shared

    def test_neighbors_sorted(self, census_setup):
        _, _, census = census_setup
        for rank, rows in enumerate(census.boundary_links):
            assert set(census.be_src[rows].tolist()) <= {rank}
            nbrs = census.be_dst[rows].tolist()
            assert nbrs == sorted(set(nbrs))
            assert rank not in nbrs


def census_of(shape, num_ranks, px, py):
    """The census of a structured ``px × py`` tiling of deck ``shape``."""
    deck = build_deck(shape)
    part = structured_block_partition(deck.mesh, num_ranks, px=px, py=py)
    return build_workload_census(deck, part, build_face_table(deck.mesh))


class TestStraightCut:
    """An 8×4 deck split left/right: one straight vertical cut."""

    @pytest.fixture(scope="class")
    def census(self):
        return census_of((8, 4), 2, 2, 1)

    def test_single_pair(self, census):
        assert census.be_src.tolist() == [0, 1]
        assert census.be_dst.tolist() == [1, 0]
        assert census.gn_src.tolist() == [0, 1]
        assert census.gn_dst.tolist() == [1, 0]

    def test_vertical_boundary_face_count(self, census):
        """The cut shares ny=4 faces, seen once from each side."""
        assert census.be_faces.sum(axis=1).tolist() == [4, 4]

    def test_faces_by_material_sums_to_total(self, census):
        """Rank 0's side is all inner aluminum and rank 1's all foam."""
        assert census.be_faces[0, EXCHANGE_GROUP[ALUMINUM_INNER]] == 4
        assert census.be_faces[1, EXCHANGE_GROUP[FOAM]] == 4

    def test_ghost_nodes_one_more_than_faces(self, census):
        """The general model's assumption holds exactly for straight cuts."""
        assert (census.gn_local + census.gn_remote).tolist() == [5, 5]

    def test_local_plus_remote_is_total(self, census):
        """Rank 0, the lower rank, owns all 5 shared nodes."""
        assert census.gn_local.tolist() == [5, 0]
        assert census.gn_remote.tolist() == [0, 5]


class TestMultiMaterialNodes:
    def test_material_interface_on_boundary(self):
        """A horizontal cut of ``small`` crosses all material layers."""
        census = census_of("small", 2, 1, 2)
        # The cut crosses 3 internal material interfaces (HE|Al, Al|foam,
        # foam|Al), each contributing one multi-material node per side.
        assert census.be_multi.sum(axis=1).tolist() == [3, 3]

    def test_homogeneous_boundary_has_none(self):
        """Each side of the 8×4 vertical cut carries one material."""
        census = census_of((8, 4), 2, 2, 1)
        assert np.count_nonzero(census.be_faces, axis=1).tolist() == [1, 1]
        assert not census.be_multi.any()


class TestFourRankCensus:
    """An 8×8 deck tiled 2×2."""

    @pytest.fixture(scope="class")
    def census(self):
        return census_of((8, 8), 4, 2, 2)

    def test_2x2_tiling_neighbors(self, census):
        # Face-sharing pairs: (0,1),(2,3) horizontal; (0,2),(1,3) vertical.
        pairs = {
            (a, b) for a, b in zip(census.be_src.tolist(), census.be_dst.tolist())
            if a < b
        }
        assert pairs == {(0, 1), (2, 3), (0, 2), (1, 3)}
        assert [len(rows) for rows in census.boundary_links] == [2, 2, 2, 2]

    def test_total_boundary_faces(self, census):
        rows = census.boundary_links[0]
        assert census.be_faces[rows].sum() == 8  # 4 right + 4 top


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
