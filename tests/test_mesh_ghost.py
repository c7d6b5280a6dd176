"""Unit tests for repro.mesh.ghost's node ownership rule."""

import numpy as np
import pytest

from repro.mesh import build_deck, node_owners, structured_quad_mesh
from repro.partition import structured_block_partition


class TestNodeOwners:
    def test_single_rank_owns_everything(self):
        mesh = structured_quad_mesh(3, 3)
        owners = node_owners(mesh, np.zeros(9, dtype=np.int64))
        assert np.all(owners == 0)

    def test_shared_nodes_go_to_min_rank(self):
        """The 5 seam nodes of an 8×4 deck split left/right belong to rank 0."""
        deck = build_deck((8, 4))
        part = structured_block_partition(deck.mesh, 2, px=2, py=1)
        owners = node_owners(deck.mesh, part.cell_rank)
        seam = np.flatnonzero(deck.mesh.node_x == np.unique(deck.mesh.node_x)[4])
        assert seam.size == 5
        assert np.all(owners[seam] == 0)

    def test_wrong_length_rejected(self):
        mesh = structured_quad_mesh(2, 2)
        with pytest.raises(ValueError, match="one entry per cell"):
            node_owners(mesh, np.zeros(3, dtype=np.int64))
