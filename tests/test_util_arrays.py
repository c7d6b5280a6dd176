"""Unit tests for repro.util.arrays."""

import numpy as np
import pytest

from repro.util import as_float_array, as_int_array, bincount_fixed


class TestAsFloatArray:
    def test_coerces_lists(self):
        out = as_float_array([1, 2, 3])
        assert out.dtype == np.float64
        assert out.flags["C_CONTIGUOUS"]

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_float_array([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_float_array([np.inf])

    def test_empty_ok(self):
        assert as_float_array([]).size == 0


class TestAsIntArray:
    def test_coerces_integral_floats(self):
        out = as_int_array([1.0, 2.0])
        assert out.dtype == np.int64
        assert out.tolist() == [1, 2]

    def test_rejects_fractional_floats(self):
        with pytest.raises(ValueError, match="non-integral"):
            as_int_array([1.5])

    def test_passes_ints_through(self):
        assert as_int_array(np.array([3, 4], dtype=np.int32)).dtype == np.int64


class TestBincountFixed:
    def test_fixed_length(self):
        out = bincount_fixed(np.array([0, 0, 2]), 5)
        assert out.tolist() == [2, 0, 1, 0, 0]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            bincount_fixed(np.array([5]), 5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="out of range"):
            bincount_fixed(np.array([-1]), 5)

    def test_weights(self):
        out = bincount_fixed(np.array([0, 1, 1]), 2, weights=[1.0, 2.0, 3.0])
        assert out.tolist() == [1.0, 5.0]

    def test_empty_labels(self):
        assert bincount_fixed(np.array([], dtype=np.int64), 3).tolist() == [0, 0, 0]
