"""Unit tests for repro.partition.matching (heavy-edge matching)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import build_face_table, structured_quad_mesh
from repro.partition import heavy_edge_matching
from repro.partition.graph import CSRGraph, dual_graph_of_mesh, graph_from_edges
from repro.util import seeded_rng


def assert_valid_matching(graph, match):
    n = graph.num_vertices
    assert match.shape == (n,)
    assert np.array_equal(match[match], np.arange(n))
    for v in range(n):
        if match[v] != v:
            assert match[v] in graph.neighbors(v)


class TestHeavyEdgeMatching:
    def test_involution_on_grid(self):
        mesh = structured_quad_mesh(10, 10)
        g = dual_graph_of_mesh(mesh, build_face_table(mesh))
        match = heavy_edge_matching(g, seeded_rng(0))
        assert_valid_matching(g, match)

    def test_matches_most_vertices_on_grid(self):
        mesh = structured_quad_mesh(20, 20)
        g = dual_graph_of_mesh(mesh, build_face_table(mesh))
        match = heavy_edge_matching(g, seeded_rng(0))
        matched = np.count_nonzero(match != np.arange(g.num_vertices))
        assert matched >= 0.7 * g.num_vertices

    def test_prefers_heavy_edges(self):
        # Path 0-1-2 with weights 1, 100: vertex 1 must pair with 2.
        g = graph_from_edges(3, [0, 1], [1, 2], [1, 100])
        match = heavy_edge_matching(g, seeded_rng(0))
        assert match[1] == 2 and match[2] == 1
        assert match[0] == 0

    def test_respects_max_vweight(self):
        g = graph_from_edges(2, [0], [1], vweights=np.array([5, 5]))
        match = heavy_edge_matching(g, seeded_rng(0), max_vweight=6)
        assert match.tolist() == [0, 1]  # refused: combined weight 10 > 6

    def test_empty_graph(self):
        g = graph_from_edges(3, [], [])
        match = heavy_edge_matching(g, seeded_rng(0))
        assert match.tolist() == [0, 1, 2]

    def test_deterministic_given_seed(self):
        mesh = structured_quad_mesh(12, 12)
        g = dual_graph_of_mesh(mesh, build_face_table(mesh))
        m1 = heavy_edge_matching(g, seeded_rng(42))
        m2 = heavy_edge_matching(g, seeded_rng(42))
        assert np.array_equal(m1, m2)


def reference_matching(graph, rng, max_rounds=4, max_vweight=None):
    """Heavy-edge matching one vertex at a time, in plain Python.

    Each eligible vertex proposes to the eligible neighbour maximising
    (edge weight, -tiebreak); mutual proposals pair up unless their
    combined vertex weight exceeds ``max_vweight``.
    """
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    eweights, vweights = graph.eweights.tolist(), graph.vweights.tolist()
    n = graph.num_vertices
    match = list(range(n))
    if n == 0 or not indices:
        return match
    eligible = [True] * n
    for _ in range(max_rounds):
        if not any(eligible):
            break
        tiebreak = rng.permutation(n).tolist()
        proposal = [-1] * n
        for v in range(n):
            best = None
            for e in range(indptr[v], indptr[v + 1]):
                u = indices[e]
                if eligible[v] and eligible[u]:
                    score = (eweights[e], -tiebreak[u])
                    if best is None or score > best[0]:
                        best = (score, u)
            if best is not None:
                proposal[v] = best[1]
        winners = [
            v for v in range(n)
            if proposal[v] >= 0 and proposal[proposal[v]] == v
            and (max_vweight is None or vweights[v] + vweights[proposal[v]] <= max_vweight)
        ]
        if not winners:
            break
        for v in winners:
            match[v] = proposal[v]
            eligible[v] = False
    return match


@st.composite
def multigraphs(draw):
    """Random weighted CSR graphs with duplicate arcs and degree-0 vertices."""
    n = draw(st.integers(0, 30))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=3 * n)) if u != v]
    edges += edges[: draw(st.integers(0, len(edges)))]  # duplicate arcs
    weights = draw(st.lists(st.integers(1, 4), min_size=len(edges), max_size=len(edges)))
    src = np.array([u for u, v in edges] + [v for u, v in edges], dtype=np.int64)
    dst = np.array([v for u, v in edges] + [u for u, v in edges], dtype=np.int64)
    order = np.argsort(src, kind="stable")
    return CSRGraph(
        indptr=np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))]),
        indices=dst[order],
        eweights=np.array(weights + weights, dtype=np.int64)[order],
        vweights=np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)),
                          dtype=np.int64),
    )


class TestMatchesReference:
    @given(
        graph=multigraphs(),
        seed=st.integers(0, 2**16),
        max_rounds=st.integers(1, 4),
        max_vweight=st.one_of(st.none(), st.integers(2, 8)),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_pure_python_reference(self, graph, seed, max_rounds, max_vweight):
        got = heavy_edge_matching(graph, seeded_rng(seed), max_rounds, max_vweight)
        want = reference_matching(graph, seeded_rng(seed), max_rounds, max_vweight)
        assert got.tolist() == want
