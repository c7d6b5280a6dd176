"""Unit tests for repartitioning policies, weighted repartitioning, and
migration accounting."""

import numpy as np
import pytest

from repro.mesh import build_deck, build_face_table
from repro.partition import (
    EveryNPolicy,
    ImbalanceThresholdPolicy,
    NeverPolicy,
    Partition,
    imbalance,
    migration_matrix,
    multilevel_partition,
    parse_policy,
    weighted_repartition,
)


class TestPolicies:
    def test_never(self):
        policy = NeverPolicy()
        assert not policy.should_repartition(0, np.array([1.0, 100.0]))
        assert not policy.should_repartition(7, np.array([1.0, 100.0]))

    def test_every_n(self):
        policy = EveryNPolicy(period=3)
        fires = [
            it
            for it in range(10)
            if policy.should_repartition(it, np.array([1.0, 1.0]))
        ]
        assert fires == [3, 6, 9]

    def test_every_n_rejects_bad_period(self):
        with pytest.raises(ValueError):
            EveryNPolicy(period=0)

    def test_imbalance_threshold(self):
        policy = ImbalanceThresholdPolicy(threshold=1.5)
        assert not policy.should_repartition(1, np.array([1.0, 1.0]))
        assert policy.should_repartition(1, np.array([1.0, 4.0]))

    def test_imbalance_threshold_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            ImbalanceThresholdPolicy(threshold=1.0)

    def test_knob_is_first_positional_argument(self):
        """`name` is a class attribute, not a field: the README's positional
        calls must bind the knob, not silently overwrite the label."""
        assert EveryNPolicy(2).period == 2
        assert EveryNPolicy(2).name == "every_n"
        assert ImbalanceThresholdPolicy(1.15).threshold == 1.15
        assert ImbalanceThresholdPolicy(1.15).name == "imbalance_threshold"

    def test_parse_policy(self):
        assert isinstance(parse_policy("never"), NeverPolicy)
        assert parse_policy("every:5") == EveryNPolicy(period=5)
        assert parse_policy("imbalance:1.3") == ImbalanceThresholdPolicy(
            threshold=1.3
        )
        with pytest.raises(ValueError):
            parse_policy("sometimes")


class TestWeightedRepartition:
    @pytest.fixture(scope="class")
    def deck(self):
        return build_deck((32, 16))

    def test_uniform_weights_balance_counts(self, deck):
        faces = build_face_table(deck.mesh)
        part = weighted_repartition(
            deck.mesh, np.ones(deck.num_cells, dtype=np.int64), 8, faces=faces
        )
        assert part.num_ranks == 8
        assert part.method == "multilevel-weighted"
        assert imbalance(part.counts()) < 1.1

    def test_skewed_weights_balance_cost_not_counts(self, deck):
        """Cells in the left quarter cost 8x: the weighted partition must
        balance total cost, which forces unequal cell counts."""
        faces = build_face_table(deck.mesh)
        column = np.arange(deck.num_cells) % deck.mesh.nx
        weights = np.where(column < deck.mesh.nx // 4, 8, 1).astype(np.int64)
        part = weighted_repartition(deck.mesh, weights, 8, faces=faces)
        cost = np.bincount(part.cell_rank, weights=weights.astype(float), minlength=8)
        assert imbalance(cost) < 1.15
        assert imbalance(part.counts()) > 1.3  # counts are deliberately skewed

    def test_bad_weights_rejected(self, deck):
        with pytest.raises(ValueError):
            weighted_repartition(deck.mesh, np.ones(3, dtype=np.int64), 4)
        with pytest.raises(ValueError):
            weighted_repartition(
                deck.mesh, np.zeros(deck.num_cells, dtype=np.int64), 4
            )

    def test_deterministic(self, deck):
        faces = build_face_table(deck.mesh)
        weights = np.ones(deck.num_cells, dtype=np.int64)
        a = weighted_repartition(deck.mesh, weights, 4, faces=faces, seed=3)
        b = weighted_repartition(deck.mesh, weights, 4, faces=faces, seed=3)
        assert np.array_equal(a.cell_rank, b.cell_rank)


    def test_memo_evicts_past_its_byte_budget(self, deck, monkeypatch):
        from repro.partition import dynamic

        memo = dynamic._REPARTITION_MEMO
        # Room for ten label arrays of the large deck (6.25 MiB each).
        assert memo.max_bytes == dynamic._REPARTITION_MAX_BYTES >= 10 * 6.25 * 2**20
        faces = build_face_table(deck.mesh)
        weights = [
            1 + np.arange(deck.num_cells, dtype=np.int64) % (k + 1) for k in range(3)
        ]
        memo.clear()
        try:
            first = weighted_repartition(deck.mesh, weights[0], 4, faces=faces)
            # Scaled down to two label arrays.
            monkeypatch.setattr(memo, "max_bytes", 2 * first.cell_rank.nbytes)
            weighted_repartition(deck.mesh, weights[1], 4, faces=faces)
            weighted_repartition(deck.mesh, weights[2], 4, faces=faces)
            key = dynamic._repartition_key(deck.mesh, weights[0], 4, faces, 0)
            assert key not in memo  # the least recent went past the budget
            assert len(memo) == 2
            assert memo.nbytes <= memo.max_bytes
            again = weighted_repartition(deck.mesh, weights[0], 4, faces=faces)
            assert again.cell_rank.dtype == first.cell_rank.dtype
            assert again.cell_rank.tobytes() == first.cell_rank.tobytes()
            assert key in memo and memo.nbytes <= memo.max_bytes
        finally:
            memo.clear()

class TestMigrationMatrix:
    def test_counts_flows_off_diagonal(self):
        old = Partition(num_ranks=2, cell_rank=np.array([0, 0, 1, 1]))
        new = Partition(num_ranks=2, cell_rank=np.array([0, 1, 1, 0]))
        m = migration_matrix(old, new)
        assert m.tolist() == [[0, 1], [1, 0]]

    def test_identical_partitions_move_nothing(self):
        part = Partition(num_ranks=2, cell_rank=np.array([0, 1, 0, 1]))
        assert not migration_matrix(part, part).any()

    def test_mismatched_partitions_rejected(self):
        a = Partition(num_ranks=2, cell_rank=np.array([0, 1]))
        b = Partition(num_ranks=2, cell_rank=np.array([0, 1, 0]))
        with pytest.raises(ValueError):
            migration_matrix(a, b)
        c = Partition(num_ranks=3, cell_rank=np.array([0, 1]))
        with pytest.raises(ValueError):
            migration_matrix(a, c)

    def test_total_equals_cells_that_moved(self):
        deck = build_deck((16, 8))
        old = multilevel_partition(deck.mesh, 4, seed=0)
        new = multilevel_partition(deck.mesh, 4, seed=5)
        m = migration_matrix(old, new)
        assert m.sum() == int((old.cell_rank != new.cell_rank).sum())
