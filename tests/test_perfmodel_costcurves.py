"""Unit tests for the piecewise-linear cost curves."""

import numpy as np
import pytest

from repro.perfmodel import CostCurve, CostTable


@pytest.fixture()
def knee_curve():
    """A synthetic 1/n + c knee curve sampled at powers of ten."""
    cells = np.array([1.0, 10.0, 100.0, 1000.0, 10000.0])
    per_cell = 1e-4 / cells + 2e-6
    return CostCurve(cells=cells, per_cell=per_cell)


class TestCostCurve:
    def test_exact_at_samples(self, knee_curve):
        for n, t in zip(knee_curve.cells, knee_curve.per_cell):
            assert knee_curve(n) == pytest.approx(t)

    def test_log_interpolation_between_samples(self, knee_curve):
        """At the geometric midpoint the value is the arithmetic mean of the
        neighbouring samples (linear in log-x)."""
        mid = np.sqrt(10.0 * 100.0)
        expected = 0.5 * (knee_curve(10.0) + knee_curve(100.0))
        assert knee_curve(mid) == pytest.approx(expected)

    def test_interpolation_overestimates_convex_knee(self, knee_curve):
        """The chord lies above a convex curve — the systematic error the
        paper blames for its small-deck mispredictions (Section 5.1)."""
        n = 30.0
        true_value = 1e-4 / n + 2e-6
        assert knee_curve(n) > true_value

    def test_clamped_extrapolation(self, knee_curve):
        assert knee_curve(0.5) == pytest.approx(knee_curve(1.0))
        assert knee_curve(1e6) == pytest.approx(knee_curve(10000.0))

    def test_vectorised(self, knee_curve):
        out = knee_curve(np.array([1.0, 10.0]))
        assert out.shape == (2,)

    def test_subgrid_time(self, knee_curve):
        assert knee_curve.subgrid_time(100.0) == pytest.approx(knee_curve(100.0) * 100)

    def test_rejects_nonpositive_query(self, knee_curve):
        with pytest.raises(ValueError):
            knee_curve(0.0)

    def test_rejects_unsorted_samples(self):
        with pytest.raises(ValueError):
            CostCurve(cells=np.array([10.0, 1.0]), per_cell=np.array([1.0, 2.0]))

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            CostCurve(cells=np.array([1.0]), per_cell=np.array([-1.0]))


class TestCostTable:
    def test_from_arrays_shape(self):
        cells = np.array([1.0, 100.0])
        per_cell = np.ones((15, 4, 2)) * 1e-6
        table = CostTable.from_arrays(cells, per_cell)
        assert table.num_phases == 15
        assert table.num_materials == 4

    def test_per_cell_lookup(self):
        cells = np.array([1.0, 100.0])
        per_cell = np.zeros((2, 2, 2))
        per_cell[1, 1] = [3e-6, 1e-6]
        table = CostTable.from_arrays(cells, per_cell)
        assert table.per_cell(1, 1, 1.0) == pytest.approx(3e-6)
        assert table.per_cell(1, 1, 100.0) == pytest.approx(1e-6)

    def test_per_cell_vector(self):
        cells = np.array([1.0])
        per_cell = np.arange(8, dtype=float).reshape(2, 4, 1) * 1e-6
        table = CostTable.from_arrays(cells, per_cell)
        assert np.allclose(table.per_cell_grid(1.0)[1], [4e-6, 5e-6, 6e-6, 7e-6])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            CostTable(curves=((None, None), (None,)))

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            CostTable.from_arrays(np.array([1.0]), np.ones((2, 2)))

    def test_rejects_curves_with_other_knots(self):
        same = CostCurve(cells=np.array([1.0, 100.0]), per_cell=np.array([2.0, 1.0]))
        other = CostCurve(cells=np.array([1.0, 64.0]), per_cell=np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match=r"phase 1, material 0"):
            CostTable(curves=((same, same), (other, same)))

    def test_from_payload_rejects_mismatched_knots(self):
        table = CostTable.from_arrays(np.array([1.0, 4.0, 16.0]), np.ones((3, 2, 3)))
        payload = table.to_payload()
        assert CostTable.from_payload(payload).costs.tobytes() == table.costs.tobytes()
        payload["curves"][2][1]["cells"] = [1.0, 4.0, 32.0]
        with pytest.raises(ValueError, match=r"phase 2, material 1"):
            CostTable.from_payload(payload)

    def test_stacked_view_matches_curves(self):
        cells = np.array([1.0, 10.0, 100.0])
        per_cell = np.arange(18, dtype=float).reshape(3, 2, 3) * 1e-6
        table = CostTable.from_arrays(cells, per_cell)
        assert np.array_equal(table.cells, cells)
        assert np.array_equal(table.costs, per_cell)
        sizes = np.array([[0.5, 3.0], [10.0, 1e4]])
        grid = table.per_cell_grid(sizes)
        assert grid.shape == (2, 2, 3, 2)
        assert np.array_equal(grid[..., 2, 1], table.curves[2][1](sizes))
