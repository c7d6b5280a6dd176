"""Per-phase, per-rank time attribution (how Figure 2 is measured).

The tracer splits each rank's virtual time into *compute* and
*communication* buckets per iteration phase, with MPI time excluded from
compute — matching the paper's Figure 2 caption ("Time (s) — No MPI").

The engine's kernel accumulates the buckets element-wise in execution
order and hands the final sums and the per-mark snapshots over in one
:meth:`PhaseTrace.load_batch`.
"""

from __future__ import annotations

import numpy as np


class PhaseTrace:
    """Accumulates compute/comm seconds per ``(rank, phase)``.

    Attributes
    ----------
    compute:
        Array ``(num_ranks, num_phases)`` of computation seconds.
    comm:
        Array ``(num_ranks, num_phases)`` of communication seconds (send
        overheads, receive blocking, collective time).
    iteration_starts:
        ``iteration_starts[i][rank]`` = rank's clock at its ``MarkIteration(i)``.

    Each mark additionally snapshots the rank's cumulative per-phase arrays,
    so any iteration window ``[first, last)`` can be summarised exactly —
    this is what keeps warm-up iterations out of measured phase breakdowns.
    """

    def __init__(self, num_ranks: int, num_phases: int) -> None:
        if num_ranks < 1 or num_phases < 1:
            raise ValueError("num_ranks and num_phases must be positive")
        self.num_ranks = num_ranks
        self.num_phases = num_phases
        self._compute = np.zeros((num_ranks, num_phases))
        self._comm = np.zeros((num_ranks, num_phases))
        self.iteration_starts: dict[int, np.ndarray] = {}
        #: index → (num_ranks, num_phases) cumulative arrays at each rank's
        #: ``MarkIteration(index)`` (rows are NaN until that rank marks).
        self._compute_at_mark: dict[int, np.ndarray] = {}
        self._comm_at_mark: dict[int, np.ndarray] = {}

    @property
    def compute(self) -> np.ndarray:
        """Computation seconds, ``(num_ranks, num_phases)``."""
        return self._compute.copy()

    @property
    def comm(self) -> np.ndarray:
        """Communication seconds, ``(num_ranks, num_phases)``."""
        return self._comm.copy()

    def load_batch(self, compute_rows, comm_rows, marks) -> None:
        """Bulk-load accumulation rows and mark snapshots from the engine.

        ``compute_rows``/``comm_rows`` are ``(num_ranks, num_phases)``
        row containers (lists or arrays) holding the *final* per-bucket
        sums; ``marks`` is an iterable of
        ``(rank, index, clock, compute_row, comm_row)`` tuples whose rows
        are the cumulative snapshots taken *at* each ``MarkIteration``.
        """
        self._compute = np.array(compute_rows, dtype=np.float64)
        self._comm = np.array(comm_rows, dtype=np.float64)
        shape = (self.num_ranks, self.num_phases)
        for rank, index, clock, comp_row, comm_row in marks:
            starts = self.iteration_starts.get(index)
            if starts is None:
                starts = self.iteration_starts[index] = np.full(self.num_ranks, np.nan)
                self._compute_at_mark[index] = np.full(shape, np.nan)
                self._comm_at_mark[index] = np.full(shape, np.nan)
            starts[rank] = clock
            self._compute_at_mark[index][rank] = comp_row
            self._comm_at_mark[index][rank] = comm_row

    # ---- summaries ---------------------------------------------------------

    def _window(self, snapshots: dict, first: int, last: int) -> np.ndarray:
        """Per-(rank, phase) seconds accumulated in iterations ``[first, last)``."""
        if first not in snapshots or last not in snapshots:
            raise KeyError("requested iterations were not marked")
        lo, hi = snapshots[first], snapshots[last]
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("iteration marks incomplete (some ranks missing)")
        return hi - lo

    def window_compute(self, first: int, last: int) -> np.ndarray:
        """Per-``(rank, phase)`` compute seconds over iterations ``[first, last)``.

        The per-rank form of :meth:`window_compute_max`: what each rank
        charged between the two iteration marks, with warm-up excluded when
        ``first > 0``.  This is the window the calibrators sample so that
        warm-up noise never contaminates cost-curve knots.
        """
        return self._window(self._compute_at_mark, first, last)

    def window_comm(self, first: int, last: int) -> np.ndarray:
        """Per-``(rank, phase)`` communication seconds over ``[first, last)``."""
        return self._window(self._comm_at_mark, first, last)

    def window_compute_max(self, first: int, last: int) -> np.ndarray:
        """Max-over-ranks compute seconds per phase over ``[first, last)``
        (Equation 2's max).

        Only time charged between the two iteration marks counts, so
        warm-up iterations can be excluded from measured breakdowns.
        """
        return self._window(self._compute_at_mark, first, last).max(axis=0)

    def window_comm_max(self, first: int, last: int) -> np.ndarray:
        """Max-over-ranks communication seconds per phase over ``[first, last)``."""
        return self._window(self._comm_at_mark, first, last).max(axis=0)

    def iteration_time(self, first: int, last: int) -> float:
        """Virtual time from the start of iteration ``first`` to ``last``.

        Uses the max over ranks of the recorded marks; iterations end with a
        global synchronisation, so rank clocks agree to within skew.
        """
        if first not in self.iteration_starts or last not in self.iteration_starts:
            raise KeyError("requested iterations were not marked")
        first_marks = self.iteration_starts[first]
        last_marks = self.iteration_starts[last]
        if np.isnan(first_marks).any() or np.isnan(last_marks).any():
            raise ValueError("iteration marks incomplete (some ranks missing)")
        return float(last_marks.max() - first_marks.max())

    def mean_iteration_time(self, first: int, last: int) -> float:
        """Average per-iteration time over the window ``[first, last)``."""
        if last <= first:
            raise ValueError("need last > first")
        return self.iteration_time(first, last) / (last - first)
