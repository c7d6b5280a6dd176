"""Property-based tests for the workload census under random partitions.

The census feeds both the simulator's message sizes and the mesh-specific
model, so its invariants must hold for *any* partition, not just the ones
our partitioners emit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hydro.workload import build_workload_census
from repro.mesh import build_deck, build_face_table
from repro.partition import Partition


@st.composite
def random_partitioned_deck(draw):
    nx = draw(st.integers(4, 12))
    ny = draw(st.integers(4, 12))
    k = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    deck = build_deck((nx, ny))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, deck.num_cells)
    # Every rank must own at least one cell (build_rank_states contract).
    labels[:k] = np.arange(k)
    return deck, Partition(num_ranks=k, cell_rank=labels.astype(np.int64))


class TestCensusInvariants:
    @given(case=random_partitioned_deck())
    @settings(max_examples=25, deadline=None)
    def test_pair_faces_consistent_across_sides(self, case):
        """Both sides of every boundary link count the faces its pair shares."""
        deck, part = case
        faces = build_face_table(deck.mesh)
        census = build_workload_census(deck, part, faces)
        interior = faces.interior_mask()
        r0 = part.cell_rank[faces.face_cells[interior, 0]]
        r1 = part.cell_rank[faces.face_cells[interior, 1]]
        low, high = np.minimum(r0, r1), np.maximum(r0, r1)
        for k, (a, b) in enumerate(zip(census.be_src, census.be_dst)):
            shared = np.count_nonzero((low == min(a, b)) & (high == max(a, b)))
            assert census.be_faces[k].sum() == shared

    @given(case=random_partitioned_deck())
    @settings(max_examples=25, deadline=None)
    def test_cut_faces_partition_exactly(self, case):
        """Every interior face with differing ranks is seen once from each
        side, so the boundary faces of all links sum to twice the cut."""
        deck, part = case
        faces = build_face_table(deck.mesh)
        census = build_workload_census(deck, part, faces)
        interior = faces.interior_mask()
        r0 = part.cell_rank[faces.face_cells[interior, 0]]
        r1 = part.cell_rank[faces.face_cells[interior, 1]]
        global_cut = int(np.count_nonzero(r0 != r1))
        assert census.be_faces.sum() == 2 * global_cut

    @given(case=random_partitioned_deck())
    @settings(max_examples=25, deadline=None)
    def test_ghost_ownership_sums(self, case):
        """Each ghost link's local/remote split matches a node-by-node tally
        of the ranks on every node and its owner (its lowest rank)."""
        deck, part = case
        census = build_workload_census(deck, part, build_face_table(deck.mesh))
        ranks_of_node = [set() for _ in range(deck.mesh.num_nodes)]
        for cell, nodes in enumerate(deck.mesh.cell_nodes.tolist()):
            for node in nodes:
                ranks_of_node[node].add(int(part.cell_rank[cell]))
        expected = {}
        for ranks in ranks_of_node:
            for a in ranks:
                for b in ranks - {a}:
                    local, remote = expected.get((a, b), (0, 0))
                    owned = min(ranks) == a
                    expected[(a, b)] = (local + owned, remote + (not owned))
        links = zip(census.gn_src.tolist(), census.gn_dst.tolist(),
                    census.gn_local.tolist(), census.gn_remote.tolist())
        assert {(a, b): (lo, re) for a, b, lo, re in links} == expected

    @given(case=random_partitioned_deck())
    @settings(max_examples=20, deadline=None)
    def test_workload_census_symmetry(self, case):
        """Boundary/ghost links agree pairwise for arbitrary partitions."""
        deck, part = case
        faces = build_face_table(deck.mesh)
        census = build_workload_census(deck, part, faces)
        p = census.num_ranks
        gn_keys = census.gn_src * p + census.gn_dst
        back = np.searchsorted(gn_keys, census.gn_dst * p + census.gn_src)
        assert np.array_equal(gn_keys[back], census.gn_dst * p + census.gn_src)
        shared = census.gn_local + census.gn_remote
        assert np.array_equal(shared[back], shared)
        be_keys = census.be_src * p + census.be_dst
        back = census.be_reverse
        assert np.array_equal(be_keys[back], census.be_dst * p + census.be_src)
        totals = census.be_faces.sum(axis=1)
        assert np.array_equal(totals[back], totals)

    @given(case=random_partitioned_deck())
    @settings(max_examples=15, deadline=None)
    def test_simulation_runs_on_any_partition(self, case):
        """The timing simulation completes (no deadlock) for arbitrary,
        geometrically scattered partitions."""
        from repro.hydro import measure_iteration_time
        from repro.machine import es45_like_cluster

        deck, part = case
        faces = build_face_table(deck.mesh)
        m = measure_iteration_time(
            deck, part, cluster=es45_like_cluster(), iterations=2, faces=faces
        )
        assert m.seconds > 0


class TestDynamicCensusInvariants:
    """The dynamic controller's census over time, on arbitrary partitions."""

    @given(case=random_partitioned_deck())
    @settings(max_examples=15, deadline=None)
    def test_census_at_zero_equals_static(self, case):
        """Before detonation nothing burns: census_at(0) must be the static
        census, for any deck and partition."""
        from repro.hydro import DynamicController, DynamicSpec

        deck, part = case
        faces = build_face_table(deck.mesh)
        base = build_workload_census(deck, part, faces)
        dyn = DynamicController(
            deck, part, DynamicSpec(), faces=faces, base_census=base
        )
        census = dyn.census_at(0.0)
        np.testing.assert_array_equal(
            census.material_counts(), base.material_counts()
        )
        assert census.shares_links(base)

    @given(
        case=random_partitioned_deck(),
        times=st.lists(st.floats(0.0, 5.0e-4), min_size=2, max_size=6),
    )
    @settings(max_examples=15, deadline=None)
    def test_ignited_cell_counts_are_monotone(self, case, times):
        """The burn front only advances: the set of cells whose burn has
        started grows monotonically with time."""
        from repro.hydro import DynamicController, DynamicSpec

        deck, part = case
        dyn = DynamicController(
            deck, part, DynamicSpec(), faces=build_face_table(deck.mesh)
        )
        counts = [
            int((dyn.burn.burn_fraction(t) > 0.0).sum()) for t in sorted(times)
        ]
        assert counts == sorted(counts)

    @given(
        case=random_partitioned_deck(),
        t=st.floats(0.0, 5.0e-4),
    )
    @settings(max_examples=15, deadline=None)
    def test_effective_work_bounds(self, case, t):
        """Effective work per rank is bounded below by the static cell count
        and above by the fully-multiplied count."""
        from repro.hydro import DynamicController, DynamicSpec

        deck, part = case
        mult = 4.0
        faces = build_face_table(deck.mesh)
        base = build_workload_census(deck, part, faces)
        dyn = DynamicController(
            deck, part, DynamicSpec(burn_multiplier=mult), faces=faces,
            base_census=base,
        )
        static = base.material_counts().sum(axis=1)
        work = dyn.census_at(t).material_counts().sum(axis=1)
        assert np.all(work >= static - 1e-9)
        assert np.all(work <= mult * static + 1e-9)
