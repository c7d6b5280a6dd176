"""Unit tests for repro.util.rng determinism guarantees."""

import numpy as np

from repro.util import seeded_rng


class TestSeededRng:
    def test_default_seed_is_stable(self):
        a = seeded_rng().integers(0, 1 << 30, 10)
        b = seeded_rng().integers(0, 1 << 30, 10)
        assert np.array_equal(a, b)

    def test_explicit_seed(self):
        a = seeded_rng(7).random(5)
        b = seeded_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = seeded_rng(1).random(8)
        b = seeded_rng(2).random(8)
        assert not np.array_equal(a, b)
