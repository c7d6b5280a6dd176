"""Property-based tests: the CSR communication graph is a faithful form.

:class:`~repro.placement.sparse.SparseCommGraph` must hold exactly what a
plain ``graph[i, j] += w`` accumulation loop over a dense matrix would,
for *every* input — not just the mesh censuses the examples use:

* **accumulation** — ``from_edges`` entries, densified, equal the loop's
  matrix bitwise;
* **symmetry** — every stored entry ``(i, j, w)`` has its mirror
  ``(j, i, w)``;
* **non-negative weights** — byte counts cannot be negative;
* **round-trip** — rebuilding a graph from its own densified nonzeros
  gives it back entry-for-entry;
* **census fidelity** — the edge set :func:`rank_comm_bytes` builds from a
  real workload census is exactly its set of linked neighbours, and its
  weights equal the bytes of each link's Table-3 and ghost tallies,
  accumulated by a plain loop, bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import SparseCommGraph, rank_comm_bytes

#: Directed duplicate-rich entry lists over a small rank range.
edge_lists = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(1, 10**6)),
    max_size=40,
)


def valid_entries(num_ranks: int, entries) -> list:
    """Drop self-loops and ranks beyond the drawn machine size."""
    return [
        (i, j, w)
        for i, j, w in entries
        if i != j and i < num_ranks and j < num_ranks
    ]


def symmetric_dense(num_ranks: int, entries) -> np.ndarray:
    """Accumulate raw (i, j, w) entries into a symmetric zero-diagonal
    matrix — the dense ``+=`` reference the CSR builder must match."""
    dense = np.zeros((num_ranks, num_ranks), dtype=np.float64)
    for i, j, w in valid_entries(num_ranks, entries):
        dense[i, j] += w
        dense[j, i] += w
    return dense


def from_nonzeros(dense: np.ndarray) -> SparseCommGraph:
    """The CSR graph holding a dense symmetric matrix's nonzero entries."""
    rows, cols = np.nonzero(dense)
    return SparseCommGraph.from_edges(
        dense.shape[0], rows, cols, dense[rows, cols]
    )


def assert_csr_well_formed(graph: SparseCommGraph) -> None:
    """Structural CSR invariants shared by every test below."""
    assert graph.indptr.size == graph.num_ranks + 1
    assert graph.indptr[0] == 0
    assert graph.indptr[-1] == graph.indices.size == graph.weights.size
    assert (np.diff(graph.indptr) >= 0).all()
    # Sorted, unique columns within each row; no self loops.
    for rank in range(graph.num_ranks):
        cols, _ = graph.row(rank)
        assert (np.diff(cols) > 0).all()
        assert rank not in cols


class TestFromEdges:
    @given(num_ranks=st.integers(1, 12), entries=edge_lists)
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_accumulation(self, num_ranks, entries):
        dense = symmetric_dense(num_ranks, entries)
        src, dst, w = [], [], []
        for i, j, weight in valid_entries(num_ranks, entries):
            src += [i, j]
            dst += [j, i]
            w += [float(weight)] * 2
        graph = SparseCommGraph.from_edges(
            num_ranks,
            np.array(src, dtype=np.int64),
            np.array(dst, dtype=np.int64),
            np.array(w, dtype=np.float64),
        )
        assert_csr_well_formed(graph)
        assert np.array_equal(graph.to_dense(), dense)

    @given(num_ranks=st.integers(1, 12), entries=edge_lists)
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_nonnegativity(self, num_ranks, entries):
        src, dst, w = [], [], []
        for i, j, weight in valid_entries(num_ranks, entries):
            src += [i, j]
            dst += [j, i]
            w += [float(weight)] * 2
        graph = SparseCommGraph.from_edges(
            num_ranks,
            np.array(src, dtype=np.int64),
            np.array(dst, dtype=np.int64),
            np.array(w, dtype=np.float64),
        )
        assert (graph.weights >= 0).all()
        rows = graph.row_of_entry()
        forward = {
            (int(i), int(j)): float(weight)
            for i, j, weight in zip(rows, graph.indices, graph.weights)
        }
        for (i, j), weight in forward.items():
            assert forward[(j, i)] == weight

    @given(num_ranks=st.integers(1, 12), entries=edge_lists)
    @settings(max_examples=80, deadline=None)
    def test_dense_round_trip(self, num_ranks, entries):
        dense = symmetric_dense(num_ranks, entries)
        graph = from_nonzeros(dense)
        assert_csr_well_formed(graph)
        assert np.array_equal(graph.to_dense(), dense)
        again = from_nonzeros(graph.to_dense())
        assert np.array_equal(again.indptr, graph.indptr)
        assert np.array_equal(again.indices, graph.indices)
        assert np.array_equal(again.weights, graph.weights)

    @given(num_ranks=st.integers(1, 12), entries=edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_degrees_and_rows_agree(self, num_ranks, entries):
        dense = symmetric_dense(num_ranks, entries)
        graph = from_nonzeros(dense)
        assert np.array_equal(np.diff(graph.indptr), (dense > 0).sum(axis=1))
        for rank in range(num_ranks):
            cols, weights = graph.row(rank)
            assert np.array_equal(cols, np.nonzero(dense[rank])[0])
            assert np.array_equal(weights, dense[rank][cols])


class TestValidation:
    def test_out_of_range_row_rejected(self):
        graph = from_nonzeros(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="out of range"):
            graph.row(3)


def census_link_bytes(census):
    """``(rank, nbr, bytes)`` of every census link, boundary then ghost
    per rank, from the scalar per-neighbour tallies."""
    from repro.perfmodel import boundary_message_sizes
    from repro.perfmodel.ghostmodel import ghost_sizes

    for rank in range(census.num_ranks):
        for k in census.boundary_links[rank]:
            rows = boundary_message_sizes(census.be_faces[k], census.be_multi[k])
            nbr = int(census.be_dst[k])
            yield rank, nbr, sum(count * size for count, size in rows)
        for k in census.ghost_links[rank]:
            sizes = ghost_sizes(census.gn_local[k], census.gn_remote[k])
            yield rank, int(census.gn_dst[k]), float(sizes.sum())


class TestCensusFidelity:
    @pytest.fixture(scope="class")
    def census(self):
        from repro.hydro import build_workload_census
        from repro.mesh import build_deck, build_face_table
        from repro.partition import cached_partition

        deck = build_deck("small")
        faces = build_face_table(deck.mesh)
        part = cached_partition(deck, 12, faces=faces)
        return build_workload_census(deck, part, faces)

    def test_weights_match_dense_bitwise(self, census):
        dense = np.zeros((census.num_ranks, census.num_ranks))
        for rank, nbr, nbytes in census_link_bytes(census):
            dense[rank, nbr] += nbytes
            dense[nbr, rank] += nbytes
        graph = rank_comm_bytes(census)
        assert_csr_well_formed(graph)
        assert np.array_equal(graph.to_dense(), dense)

    def test_edge_set_matches_link_tallies(self, census):
        talked = set()
        for rank, nbr, _ in census_link_bytes(census):
            talked.add((rank, nbr))
            talked.add((nbr, rank))
        graph = rank_comm_bytes(census)
        stored = set(
            zip(
                (int(r) for r in graph.row_of_entry()),
                (int(c) for c in graph.indices),
            )
        )
        assert stored == talked
