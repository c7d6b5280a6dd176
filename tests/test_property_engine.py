"""Property-based tests for the simulated-MPI engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import es45_like_cluster
from repro.simmpi import Allreduce, Compute, Engine, Isend, Recv, SetPhase

CL = es45_like_cluster(jitter_frac=0.0)


class TestEngineProperties:
    @given(
        times=st.lists(st.floats(0, 1e-2), min_size=2, max_size=6),
    )
    @settings(max_examples=40)
    def test_allreduce_synchronises_at_slowest(self, times):
        """After one allreduce every clock equals max(compute) + tree time."""

        def prog(rank):
            yield SetPhase(0)
            yield Compute(times[rank])
            yield Allreduce(nbytes=8)

        res = Engine(CL, len(times), 1).run(prog)
        from repro.simmpi import allreduce_time

        expected = max(times) + allreduce_time(CL.network, len(times), 8)
        assert np.allclose(res.final_clocks, expected)

    @given(
        nbytes=st.integers(0, 10**6),
        delay=st.floats(0, 1e-3),
    )
    @settings(max_examples=40)
    def test_receive_never_before_send_completes(self, nbytes, delay):
        def prog(rank):
            yield SetPhase(0)
            if rank == 0:
                yield Compute(delay)
                yield Isend(1, 1, nbytes)
            else:
                yield Recv(0, 1)

        res = Engine(CL, 2, 1).run(prog)
        min_arrival = delay + CL.send_overhead + CL.network.tmsg(nbytes)
        assert res.final_clocks[1] >= min_arrival - 1e-15

    @given(
        order=st.permutations(list(range(4))),
    )
    @settings(max_examples=30)
    def test_clocks_independent_of_compute_assignment_order(self, order):
        """Relabelling which rank computes what permutes clocks identically."""
        times = [1e-4, 2e-4, 3e-4, 4e-4]

        def make(assignment):
            def prog(rank):
                yield SetPhase(0)
                yield Compute(assignment[rank])

            return prog

        base = Engine(CL, 4, 1).run(make(times)).final_clocks
        perm = Engine(CL, 4, 1).run(make([times[i] for i in order])).final_clocks
        assert np.allclose(sorted(base), sorted(perm))

    @given(total=st.lists(st.floats(0, 1.0), min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_trace_accounts_for_all_time(self, total):
        """compute + comm per rank equals its final clock (single phase)."""

        def prog(rank):
            yield SetPhase(0)
            yield Compute(total[rank])
            yield Allreduce(nbytes=8)

        eng = Engine(CL, len(total), 1)
        res = eng.run(prog)
        accounted = res.trace.compute.sum(axis=1) + res.trace.comm.sum(axis=1)
        assert np.allclose(accounted, res.final_clocks)
