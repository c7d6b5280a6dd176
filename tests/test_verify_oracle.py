"""The reference oracle agrees with the optimized stack, piece by piece.

Primitive pricing (Equation 4, tree depths, hierarchical trees, the
boundary/ghost tallies) must agree *bitwise* — the optimized paths resolve
the same segments and add in the same order.  Composite sums that
re-associate a dot product (``phase_time``, the Equations-(8)–(10) total)
are held to the differential tolerance instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import QSNET_LIKE, es45_like_cluster
from repro.machine.hierarchy import (
    hier_allreduce_time,
    hier_bcast_time,
    hier_gather_time,
)
from repro.machine.network import make_network
from repro.perfmodel import boundary_exchange_time, collectives_time
from repro.perfmodel.ghostmodel import ghost_phase_total
from repro.simmpi import api
from repro.simmpi.collectives import allreduce_time, bcast_time, gather_time, tree_depth
from repro.simmpi.engine import Engine
from repro.verify.oracle import (
    OracleEngine,
    oracle_allreduce_time,
    oracle_bcast_time,
    oracle_boundary_exchange_time,
    oracle_collectives_time,
    oracle_gather_time,
    oracle_ghost_phase_total,
    oracle_hier_allreduce_time,
    oracle_hier_bcast_time,
    oracle_hier_gather_time,
    oracle_phase_time,
    oracle_send_times,
    oracle_tmsg,
    oracle_tree_depth,
    oracle_tree_extents,
)

#: Sizes probing both sides of every breakpoint, zero, and large messages.
SIZES = [0, 1, 3, 8, 100, 4095, 4096, 4097, 65536, 1 << 20]

RTOL = 1e-12


class TestMessagePricing:
    def test_tmsg_bitwise(self):
        nets = [
            QSNET_LIKE,
            make_network(2e-6, 4e-6, 1024.0, 1e9),
            es45_like_cluster().with_smp().hierarchy.intra,
        ]
        for net in nets:
            for size in SIZES:
                assert oracle_tmsg(net, size) == net.tmsg(size), (net.name, size)

    def test_send_times_bitwise(self):
        startup, bw = QSNET_LIKE.send_times_many(np.array(SIZES, dtype=np.float64))
        for size, pair in zip(SIZES, zip(startup.tolist(), bw.tolist())):
            assert oracle_send_times(QSNET_LIKE, size) == pair, size

    def test_tmsg_many_matches_oracle(self):
        sizes = np.array([float(s) for s in SIZES])
        batched = QSNET_LIKE.tmsg_many(sizes)
        for size, value in zip(SIZES, batched):
            assert float(value) == oracle_tmsg(QSNET_LIKE, size)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            oracle_tmsg(QSNET_LIKE, -1)


class TestCollectives:
    def test_tree_depth_bitwise(self):
        for p in range(1, 1025):
            assert oracle_tree_depth(p) == tree_depth(p)

    def test_flat_collectives_bitwise(self):
        for p in (1, 2, 3, 16, 100, 1024):
            for nbytes in (4, 8, 32):
                assert oracle_bcast_time(QSNET_LIKE, p, nbytes) == bcast_time(
                    QSNET_LIKE, p, nbytes
                )
                assert oracle_gather_time(QSNET_LIKE, p, nbytes) == gather_time(
                    QSNET_LIKE, p, nbytes
                )
                assert oracle_allreduce_time(
                    QSNET_LIKE, p, nbytes
                ) == allreduce_time(QSNET_LIKE, p, nbytes)

    def test_collectives_total_close(self):
        for p in (2, 16, 512):
            assert oracle_collectives_time(QSNET_LIKE, p) == pytest.approx(
                collectives_time(QSNET_LIKE, p), rel=RTOL
            )

    def test_hier_collectives_bitwise(self):
        smp = es45_like_cluster().with_smp()
        h = smp.hierarchy
        for p in (1, 3, 4, 7, 16):
            for nbytes in (4, 8, 32):
                assert oracle_hier_bcast_time(h, p, nbytes) == hier_bcast_time(
                    h, p, nbytes
                )
                assert oracle_hier_gather_time(h, p, nbytes) == hier_gather_time(
                    h, p, nbytes
                )
                assert oracle_hier_allreduce_time(
                    h, p, nbytes
                ) == hier_allreduce_time(h, p, nbytes)

    def test_tree_extents_with_and_without_placement(self):
        from repro.placement import random_placement

        h = es45_like_cluster().with_smp().hierarchy
        for p in (1, 3, 4, 9, 16):
            assert oracle_tree_extents(h, p) == h.tree_extents(p)
        placed = h.with_placement(random_placement(8, 4, seed=3))
        assert oracle_tree_extents(placed, 8) == placed.tree_extents(8)


class TestExchangeModels:
    CASES = [
        ([3.0, 4.0, 3.0], [1.0, 3.0, 2.0]),
        ([3.0, 4.0, 3.0], None),
        ([12.5, 0.0, 7.25, 3.0], [2.0, 0.0, 1.0, 0.0]),
        ([0.0, 0.0], None),
        ([10.0, 10.0, 10.0, 10.0], None),
    ]

    def test_boundary_exchange_bitwise(self):
        for faces, multi in self.CASES:
            expected = boundary_exchange_time(
                QSNET_LIKE,
                np.array(faces),
                None if multi is None else np.array(multi),
            )
            got = oracle_boundary_exchange_time(QSNET_LIKE, faces, multi)
            assert got == expected, (faces, multi)

    def test_ghost_phase_total_bitwise(self):
        for n_local, n_remote in [(0, 0), (1, 2), (17, 16), (500, 499)]:
            assert oracle_ghost_phase_total(
                QSNET_LIKE, n_local, n_remote
            ) == ghost_phase_total(QSNET_LIKE, n_local, n_remote)

    def test_boundary_validation(self):
        with pytest.raises(ValueError):
            oracle_boundary_exchange_time(QSNET_LIKE, [-1.0])
        with pytest.raises(ValueError):
            oracle_ghost_phase_total(QSNET_LIKE, -1, 0)


class TestPhaseTime:
    def test_phase_time_matches(self, cluster):
        node = cluster.node
        work = np.array([120.0, 40.0, 55.0, 33.0])
        for phase in range(node.num_phases):
            for rank, iteration in [(0, 0), (3, 2)]:
                assert oracle_phase_time(
                    node, phase, work, rank, iteration
                ) == pytest.approx(
                    node.phase_time(phase, work, rank, iteration), rel=RTOL
                )

    def test_phase_time_no_jitter(self, quiet_cluster):
        node = quiet_cluster.node
        work = np.zeros(4)
        assert oracle_phase_time(node, 0, work, with_jitter=False) == pytest.approx(
            node.phase_time(0, work, with_jitter=False), rel=RTOL
        )


def _pingpong_program(rank):
    """Two ranks exchange a message then synchronise; rank clocks diverge."""
    yield api.SetPhase(0)
    yield api.Compute(1e-3 * (rank + 1))
    peer = 1 - rank
    yield api.Isend(peer, 7, 4096 + 512 * rank)
    yield api.WaitSends()
    yield api.Recv(peer, 7)
    yield api.Allreduce(nbytes=8)
    yield api.Bcast(root=0, nbytes=4)
    yield api.Gather(root=0, nbytes=32)
    yield api.Barrier()


class TestOracleEngine:
    def test_matches_optimized_engine_flat(self, cluster):
        engine = Engine(cluster, 2, 1)
        result = engine.run(lambda r: _pingpong_program(r))
        oracle = OracleEngine(cluster, 2, 1).run(lambda r: _pingpong_program(r))
        np.testing.assert_array_equal(result.final_clocks, oracle.final_clocks)
        np.testing.assert_array_equal(result.trace.comm, oracle.comm)
        np.testing.assert_array_equal(result.trace.compute, oracle.compute)

    def test_matches_optimized_engine_smp_overheads(self):
        cluster = es45_like_cluster().with_smp(
            ranks_per_node=2, intra_send_overhead=0.5e-6, intra_recv_overhead=0.7e-6
        )
        engine = Engine(cluster, 2, 1)
        result = engine.run(lambda r: _pingpong_program(r))
        oracle = OracleEngine(cluster, 2, 1).run(lambda r: _pingpong_program(r))
        np.testing.assert_array_equal(result.final_clocks, oracle.final_clocks)
        np.testing.assert_array_equal(result.trace.comm, oracle.comm)

    def test_deadlock_detected(self, cluster):
        from repro.verify.oracle import OracleDeadlockError

        def stuck(rank):
            yield api.Recv(1 - rank, 99)  # nobody ever sends

        with pytest.raises(OracleDeadlockError):
            OracleEngine(cluster, 2, 1).run(lambda r: stuck(r))

    def test_rejects_zero_ranks(self, cluster):
        with pytest.raises(ValueError):
            OracleEngine(cluster, 0, 1)
