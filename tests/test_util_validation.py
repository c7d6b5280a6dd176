"""Unit tests for repro.util.validation."""

import math

import pytest

from repro.util import check_nonnegative, check_positive


class TestCheckPositive:
    def test_passes_and_returns(self):
        assert check_positive(2.5, "x") == 2.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive(0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive(math.nan, "x")


class TestCheckNonnegative:
    def test_zero_ok(self):
        assert check_nonnegative(0.0, "y") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="y must be >= 0"):
            check_nonnegative(-1e-9, "y")
