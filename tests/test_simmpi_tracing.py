"""Unit tests for the phase tracer.

Traces are built the way the engine builds them: one
:meth:`PhaseTrace.load_batch` of the final per-(rank, phase) sums plus the
cumulative rows snapshotted at each iteration mark.
"""

import numpy as np
import pytest

from repro.simmpi import PhaseTrace


def loaded(num_ranks, num_phases, marks=(), compute=None, comm=None):
    """A trace loaded from final rows and ``(rank, index, clock[, comp,
    comm])`` marks; omitted rows are zeros."""
    zeros = np.zeros((num_ranks, num_phases))
    rows = [m if len(m) == 5 else (*m, zeros[0], zeros[0]) for m in marks]
    tr = PhaseTrace(num_ranks, num_phases)
    tr.load_batch(
        zeros if compute is None else compute,
        zeros if comm is None else comm,
        rows,
    )
    return tr


class TestPhaseTrace:
    def test_accumulation(self):
        compute = [[0.0, 0.75, 0.0], [0.0, 0.0, 0.0]]
        comm = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.1]]
        tr = loaded(2, 3, compute=compute, comm=comm)
        assert tr.compute[0, 1] == 0.75
        assert tr.comm[1, 2] == 0.1
        assert tr.compute.dtype == np.float64
        # The public arrays are fresh copies: mutating one leaves the trace.
        tr.compute[0, 1] = 9.0
        assert tr.compute[0, 1] == 0.75

    def test_phase_maxima(self):
        zero = np.zeros(2)
        tr = loaded(
            2,
            2,
            marks=[
                (0, 0, 0.0, zero, zero),
                (1, 0, 0.0, zero, zero),
                (0, 1, 2.0, np.array([1.0, 0.0]), zero),
                (1, 1, 2.0, np.array([2.0, 0.0]), zero),
            ],
            compute=[[1.0, 0.0], [2.0, 0.0]],
        )
        assert tr.window_compute_max(0, 1).tolist() == [2.0, 0.0]

    def test_iteration_time(self):
        tr = loaded(
            2, 1, marks=[(0, 0, 0.0), (1, 0, 0.1), (0, 1, 1.0), (1, 1, 1.2)]
        )
        assert tr.iteration_time(0, 1) == pytest.approx(1.1)

    def test_mean_iteration_time(self):
        tr = loaded(1, 1, marks=[(0, i, t) for i, t in enumerate([0.0, 1.0, 3.0])])
        assert tr.mean_iteration_time(0, 2) == pytest.approx(1.5)

    def test_missing_marks_raise(self):
        tr = PhaseTrace(1, 1)
        with pytest.raises(KeyError):
            tr.iteration_time(0, 1)

    def test_incomplete_marks_raise(self):
        tr = loaded(2, 1, marks=[(0, 0, 0.0), (0, 1, 1.0), (1, 1, 1.0)])
        with pytest.raises(ValueError):
            tr.iteration_time(0, 1)

    def test_bad_window_rejected(self):
        tr = loaded(1, 1, marks=[(0, 0, 0.0)])
        with pytest.raises(ValueError):
            tr.mean_iteration_time(0, 0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            PhaseTrace(0, 1)


class TestWindowSummaries:
    def _traced(self):
        """Two ranks, one phase: a 10x cold iteration 0, steady 1.0 after."""
        marks = []
        comp = comm = 0.0
        for it, cost in enumerate([10.0, 1.0, 1.0, None]):
            for rank in (0, 1):
                marks.append(
                    (rank, it, float(it), np.array([comp]), np.array([comm]))
                )
            if cost is not None:
                comp += cost
                comm += cost / 10.0
        return loaded(
            2, 1, marks=marks, compute=[[comp], [comp]], comm=[[comm], [comm]]
        )

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
        zero = np.zeros(2)
        tr = loaded(
            2,
            2,
            marks=[
                (0, 0, 0.0, zero, zero),
                (1, 0, 0.0, zero, zero),
                (0, 1, 6.0, np.array([1.0, 5.0]), zero),
                (1, 1, 6.0, np.array([3.0, 0.0]), zero),
            ],
        )
        assert tr.window_compute_max(0, 1).tolist() == [3.0, 5.0]

    def test_missing_window_marks_raise(self):
        tr = self._traced()
        with pytest.raises(KeyError):
            tr.window_compute_max(0, 9)

    def test_incomplete_window_marks_raise(self):
        # Rank 1 never marks iteration 1.
        tr = loaded(2, 1, marks=[(0, 0, 0.0), (1, 0, 0.0), (0, 1, 1.0)])
        with pytest.raises(ValueError):
            tr.window_comm_max(0, 1)
