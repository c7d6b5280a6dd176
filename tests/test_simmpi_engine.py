"""Unit tests for the discrete-event simulated MPI engine.

Programs here are generators run through :meth:`Engine.run`, which lowers
them to the engine's event tables; requests carry sizes only and nothing is
sent back into the program.
"""

import numpy as np
import pytest

from repro.machine import es45_like_cluster
from repro.simmpi import (
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    DeadlockError,
    Engine,
    Isend,
    MarkIteration,
    Recv,
    SetPhase,
    WaitSends,
    allreduce_time,
    bcast_time,
)


@pytest.fixture()
def cl():
    return es45_like_cluster(jitter_frac=0.0)


def run(cl, num_ranks, prog, num_phases=1):
    return Engine(cl, num_ranks, num_phases).run(prog)


class TestComputeAndClock:
    def test_compute_advances_clock(self, cl):
        def prog(rank):
            yield SetPhase(0)
            yield Compute(1e-3)

        res = run(cl, 1, prog)
        assert res.makespan == pytest.approx(1e-3)
        assert res.trace.compute[0, 0] == pytest.approx(1e-3)

    def test_negative_compute_rejected(self, cl):
        with pytest.raises(ValueError):
            Compute(-1.0)

    def test_bad_phase_rejected(self, cl):
        def prog(rank):
            yield SetPhase(5)

        with pytest.raises(ValueError):
            run(cl, 1, prog, num_phases=2)


class TestPointToPoint:
    def test_message_time(self, cl):
        nbytes = 1200

        def prog(rank):
            yield SetPhase(0)
            if rank == 0:
                yield Isend(1, 1, nbytes)
            else:
                yield Recv(0, 1)

        res = run(cl, 2, prog)
        expected = (
            cl.send_overhead + cl.network.tmsg(nbytes) + cl.recv_overhead
        )
        assert res.final_clocks[1] == pytest.approx(expected)

    def test_recv_before_send_blocks_correctly(self, cl):
        """Receiver arrives first; sender computes 1 ms before sending."""

        def prog(rank):
            yield SetPhase(0)
            if rank == 0:
                yield Compute(1e-3)
                yield Isend(1, 1, 8)
            else:
                yield Recv(0, 1)

        res = run(cl, 2, prog)
        assert res.final_clocks[1] > 1e-3

    def test_fifo_same_tag(self, cl):
        """Two sends on one key pair with the receives in post order: the
        first receive (phase 0) waits only for the small message."""
        small, big = 8, 1_000_000

        def prog(rank):
            yield SetPhase(0)
            if rank == 0:
                yield Isend(1, 1, small)
                yield Isend(1, 1, big)
            else:
                yield Recv(0, 1)
                yield SetPhase(1)
                yield Recv(0, 1)

        res = run(cl, 2, prog, num_phases=2)
        first = cl.send_overhead + cl.network.tmsg(small) + cl.recv_overhead
        assert res.trace.comm[1, 0] == pytest.approx(first)
        assert res.trace.comm[1, 1] > cl.network.bandwidth_time(big)

    def test_nic_serialises_bandwidth(self, cl):
        """Two large back-to-back sends: second arrives later (NIC busy)."""
        big = 100_000
        arrivals = {}

        def prog(rank):
            yield SetPhase(0)
            if rank == 0:
                yield Isend(1, 1, big)
                yield Isend(1, 2, big)
            else:
                yield Recv(0, 1)
                t_first = None  # clock not visible; use two receivers below
                yield Recv(0, 2)

        res = run(cl, 2, prog)
        bw = cl.network.bandwidth_time(big)
        # Total must include both bandwidth terms serialised.
        assert res.final_clocks[1] >= 2 * bw

    def test_wait_sends_drains_nic(self, cl):
        big = 1_000_000

        def prog(rank):
            yield SetPhase(0)
            if rank == 0:
                yield Isend(1, 1, big)
                yield WaitSends()
            else:
                yield Recv(0, 1)

        res = run(cl, 2, prog)
        assert res.final_clocks[0] >= cl.network.bandwidth_time(big)

    def test_self_send_rejected(self, cl):
        def prog(rank):
            yield SetPhase(0)
            yield Isend(0, 1, 8)

        with pytest.raises(ValueError, match="self-send"):
            run(cl, 1, prog)

    def test_invalid_dst_rejected(self, cl):
        def prog(rank):
            yield SetPhase(0)
            yield Isend(5, 1, 8)

        with pytest.raises(ValueError, match="invalid rank"):
            run(cl, 2, prog)


class TestDeadlockDetection:
    def test_mutual_recv(self, cl):
        def prog(rank):
            yield SetPhase(0)
            yield Recv(1 - rank, 1)

        with pytest.raises(DeadlockError):
            run(cl, 2, prog)


class TestCollectives:
    def test_allreduce_timing_matches_tree(self, cl):
        def prog(rank):
            yield SetPhase(0)
            yield Allreduce(nbytes=8)

        res = run(cl, 8, prog)
        assert res.makespan == pytest.approx(allreduce_time(cl.network, 8, 8))

    def test_bcast_synchronises_at_max_entry(self, cl):
        def prog(rank):
            yield SetPhase(0)
            yield Compute(1e-3 * rank)
            yield Bcast(root=0, nbytes=4)

        res = run(cl, 4, prog)
        expected = 3e-3 + bcast_time(cl.network, 4, 4)
        assert np.allclose(res.final_clocks, expected)

    def test_barrier(self, cl):
        def prog(rank):
            yield SetPhase(0)
            yield Compute(1e-4 * rank)
            yield Barrier()

        res = run(cl, 4, prog)
        assert np.allclose(res.final_clocks, res.final_clocks[0])

    def test_barrier_costs_like_four_byte_allreduce(self, cl):
        def prog(rank):
            yield SetPhase(0)
            yield Barrier()

        res = run(cl, 8, prog)
        assert res.makespan == pytest.approx(allreduce_time(cl.network, 8, 4))

    def test_single_rank_collective_is_free(self, cl):
        def prog(rank):
            yield SetPhase(0)
            yield Allreduce(nbytes=8)

        res = run(cl, 1, prog)
        assert res.makespan == 0.0


class TestDeterminism:
    def test_repeated_runs_identical(self, cl):
        def make():
            def prog(rank):
                yield SetPhase(0)
                yield Compute(1e-4 * (rank + 1))
                if rank == 0:
                    yield Isend(1, 1, 64)
                elif rank == 1:
                    yield Recv(0, 1)
                yield Allreduce(nbytes=8)

            return prog

        r1 = run(cl, 3, make())
        r2 = run(cl, 3, make())
        assert np.array_equal(r1.final_clocks, r2.final_clocks)

    def test_reused_engine_keeps_earlier_results(self, cl):
        """Each run returns its own trace: a second run on the same engine
        neither rewrites the first result nor inherits its marks."""

        def three_marks(rank):
            yield SetPhase(0)
            for i in range(2):
                yield MarkIteration(i)
                yield Compute(1.0)
            yield MarkIteration(2)

        def two_marks(rank):
            yield SetPhase(0)
            yield MarkIteration(0)
            yield Compute(3.0)
            yield MarkIteration(1)

        engine = Engine(cl, 1, 1)
        first = engine.run(three_marks)
        second = engine.run(two_marks)
        assert first.trace is not second.trace
        assert first.trace.compute[0, 0] == 2.0
        assert first.trace.iteration_time(0, 2) == 2.0
        assert second.trace.compute[0, 0] == 3.0
        with pytest.raises(KeyError):
            second.trace.iteration_time(0, 2)
