"""Unit tests for the RCB and block partitioners."""

import numpy as np
import pytest

from repro.mesh import build_face_table, structured_quad_mesh
from repro.partition import (
    block_partition,
    dual_graph_of_mesh,
    rcb_partition,
    structured_block_partition,
)
from repro.partition.block import choose_tile_grid


class TestBlockPartition:
    def test_near_equal_chunks(self):
        part = block_partition(10, 3)
        counts = part.counts()
        assert counts.sum() == 10
        assert counts.max() - counts.min() <= 1

    def test_contiguous(self):
        part = block_partition(9, 3)
        assert np.all(np.diff(part.cell_rank) >= 0)

    def test_rejects_more_parts_than_cells(self):
        with pytest.raises(ValueError):
            block_partition(2, 3)


class TestChooseTileGrid:
    def test_square_mesh_square_ranks(self):
        assert choose_tile_grid(16, 16, 16) == (4, 4)

    def test_wide_mesh(self):
        px, py = choose_tile_grid(80, 40, 8)
        assert px * py == 8
        assert px == 4 and py == 2  # tiles 20x20: perfectly square

    def test_infeasible(self):
        with pytest.raises(ValueError):
            choose_tile_grid(2, 2, 8)


class TestStructuredBlockPartition:
    def test_tile_shape(self):
        mesh = structured_quad_mesh(8, 8)
        part = structured_block_partition(mesh, 4, px=2, py=2)
        counts = part.counts()
        assert np.all(counts == 16)

    def test_explicit_px_py_mismatch(self):
        mesh = structured_quad_mesh(8, 8)
        with pytest.raises(ValueError):
            structured_block_partition(mesh, 4, px=2, py=3)

    def test_requires_structured(self):
        from repro.mesh import QuadMesh

        mesh = QuadMesh(
            node_x=[0, 1, 1, 0], node_y=[0, 0, 1, 1], cell_nodes=[[0, 1, 2, 3]]
        )
        with pytest.raises(ValueError, match="structured"):
            structured_block_partition(mesh, 1)

    def test_general_model_square_subgrids(self):
        """Square tiles have sqrt(cells/PE) boundary faces — the paper's
        general-model assumption."""
        from repro.hydro import build_workload_census
        from repro.mesh import build_deck

        deck = build_deck((16, 16))
        part = structured_block_partition(deck.mesh, 4, px=2, py=2)
        census = build_workload_census(deck, part, build_face_table(deck.mesh))
        n_per_pe = deck.num_cells / 4
        assert census.num_boundary_links == 8
        assert np.all(census.be_faces.sum(axis=1) == int(np.sqrt(n_per_pe)))


class TestRcbPartition:
    def test_perfect_balance_powers_of_two(self):
        mesh = structured_quad_mesh(16, 16)
        part = rcb_partition(mesh, 8)
        assert np.all(part.counts() == 32)

    def test_arbitrary_k(self):
        mesh = structured_quad_mesh(10, 10)
        part = rcb_partition(mesh, 7)
        counts = part.counts()
        assert counts.sum() == 100
        assert counts.max() - counts.min() <= 2

    def test_parts_geometrically_compact(self):
        mesh = structured_quad_mesh(8, 8)
        faces = build_face_table(mesh)
        g = dual_graph_of_mesh(mesh, faces)
        part = rcb_partition(mesh, 4)
        from repro.partition.metrics import edge_cut

        # RCB on an 8×8 grid with 4 parts should cut exactly 2*8 edges.
        assert edge_cut(g, part.cell_rank) == 16

    def test_rejects_bad_k(self):
        mesh = structured_quad_mesh(2, 2)
        with pytest.raises(ValueError):
            rcb_partition(mesh, 0)
