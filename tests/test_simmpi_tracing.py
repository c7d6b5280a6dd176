"""Unit tests for the phase tracer."""

import numpy as np
import pytest

from repro.simmpi import PhaseTrace


class TestPhaseTrace:
    def test_accumulation(self):
        tr = PhaseTrace(2, 3)
        tr.add_compute(0, 1, 0.5)
        tr.add_compute(0, 1, 0.25)
        tr.add_comm(1, 2, 0.1)
        assert tr.compute[0, 1] == 0.75
        assert tr.comm[1, 2] == pytest.approx(0.1)

    def test_phase_maxima(self):
        tr = PhaseTrace(2, 2)
        for rank in (0, 1):
            tr.mark_iteration(rank, 0, 0.0)
        tr.add_compute(0, 0, 1.0)
        tr.add_compute(1, 0, 2.0)
        for rank in (0, 1):
            tr.mark_iteration(rank, 1, 2.0)
        assert tr.window_compute_max(0, 1).tolist() == [2.0, 0.0]

    def test_iteration_time(self):
        tr = PhaseTrace(2, 1)
        tr.mark_iteration(0, 0, 0.0)
        tr.mark_iteration(1, 0, 0.1)
        tr.mark_iteration(0, 1, 1.0)
        tr.mark_iteration(1, 1, 1.2)
        assert tr.iteration_time(0, 1) == pytest.approx(1.1)

    def test_mean_iteration_time(self):
        tr = PhaseTrace(1, 1)
        for i, t in enumerate([0.0, 1.0, 3.0]):
            tr.mark_iteration(0, i, t)
        assert tr.mean_iteration_time(0, 2) == pytest.approx(1.5)

    def test_missing_marks_raise(self):
        tr = PhaseTrace(1, 1)
        with pytest.raises(KeyError):
            tr.iteration_time(0, 1)

    def test_incomplete_marks_raise(self):
        tr = PhaseTrace(2, 1)
        tr.mark_iteration(0, 0, 0.0)
        tr.mark_iteration(0, 1, 1.0)
        tr.mark_iteration(1, 1, 1.0)
        with pytest.raises(ValueError):
            tr.iteration_time(0, 1)

    def test_bad_window_rejected(self):
        tr = PhaseTrace(1, 1)
        tr.mark_iteration(0, 0, 0.0)
        with pytest.raises(ValueError):
            tr.mean_iteration_time(0, 0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            PhaseTrace(0, 1)


class TestWindowSummaries:
    def _traced(self):
        """Two ranks, one phase: a 10x cold iteration 0, steady 1.0 after."""
        tr = PhaseTrace(2, 1)
        for it, cost in enumerate([10.0, 1.0, 1.0]):
            for rank in (0, 1):
                tr.mark_iteration(rank, it, float(it))
                tr.add_compute(rank, 0, cost)
                tr.add_comm(rank, 0, cost / 10.0)
        for rank in (0, 1):
            tr.mark_iteration(rank, 3, 3.0)
        return tr

    def test_window_excludes_warmup(self):
        tr = self._traced()
        assert tr.window_compute_max(1, 3).tolist() == [2.0]
        assert tr.window_comm_max(1, 3).tolist() == [pytest.approx(0.2)]
        # The full-run window still includes the cold iteration.
        assert tr.window_compute_max(0, 3).tolist() == [12.0]

    def test_full_window_matches_totals(self):
        tr = self._traced()
        assert np.array_equal(tr.window_compute_max(0, 3), tr.compute.max(axis=0))
        assert np.array_equal(tr.window_comm_max(0, 3), tr.comm.max(axis=0))

    def test_window_is_max_over_ranks(self):
        tr = PhaseTrace(2, 2)
        tr.mark_iteration(0, 0, 0.0)
        tr.mark_iteration(1, 0, 0.0)
        tr.add_compute(0, 0, 1.0)
        tr.add_compute(1, 0, 3.0)
        tr.add_compute(0, 1, 5.0)
        tr.mark_iteration(0, 1, 6.0)
        tr.mark_iteration(1, 1, 6.0)
        assert tr.window_compute_max(0, 1).tolist() == [3.0, 5.0]

    def test_missing_window_marks_raise(self):
        tr = self._traced()
        with pytest.raises(KeyError):
            tr.window_compute_max(0, 9)

    def test_incomplete_window_marks_raise(self):
        tr = PhaseTrace(2, 1)
        tr.mark_iteration(0, 0, 0.0)
        tr.mark_iteration(1, 0, 0.0)
        tr.mark_iteration(0, 1, 1.0)  # rank 1 never marks iteration 1
        with pytest.raises(ValueError):
            tr.window_comm_max(0, 1)
