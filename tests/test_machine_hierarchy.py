"""Tests for the SMP-aware hierarchical network extension."""

import numpy as np
import pytest

from repro.machine import QSNET_LIKE, es45_like_cluster
from repro.machine.hierarchy import (
    HierarchicalNetwork,
    es45_hierarchical_network,
    hier_allreduce_time,
    hier_bcast_time,
)
from repro.simmpi import Allreduce, Compute, Engine, Isend, Recv, SetPhase


@pytest.fixture(scope="module")
def smp():
    return es45_hierarchical_network(QSNET_LIKE)


class TestHierarchicalNetwork:
    def test_block_placement(self, smp):
        assert smp.node_of(0) == smp.node_of(3) == 0
        assert smp.node_of(4) == 1
        assert smp.same_node(0, 3)
        assert not smp.same_node(3, 4)

    def test_intra_cheaper(self, smp):
        assert smp.tmsg_pair(0, 1, 64) < smp.tmsg_pair(0, 4, 64)

    def test_network_for(self, smp):
        assert smp.network_for(0, 2) is smp.intra
        assert smp.network_for(0, 8) is smp.inter

    def test_local_pair_fraction(self, smp):
        pairs = [(0, 1), (0, 4), (4, 5), (8, 12)]
        assert smp.local_pair_fraction(pairs) == 0.5
        assert smp.local_pair_fraction([]) == 0.0

    def test_flat_equivalent_bounds(self, smp):
        blended = smp.flat_equivalent(0.5)
        for s in (8, 512, 65536):
            assert smp.intra.tmsg(s) <= blended.tmsg(s) <= smp.inter.tmsg(s)

    def test_flat_equivalent_extremes(self, smp):
        assert smp.flat_equivalent(1.0).tmsg(64) == pytest.approx(smp.intra.tmsg(64))
        assert smp.flat_equivalent(0.0).tmsg(64) == pytest.approx(smp.inter.tmsg(64))

    def test_flat_equivalent_validation(self, smp):
        with pytest.raises(ValueError):
            smp.flat_equivalent(1.5)

    def test_rejects_bad_ranks_per_node(self, smp):
        with pytest.raises(ValueError):
            HierarchicalNetwork(intra=smp.intra, inter=smp.inter, ranks_per_node=0)
        with pytest.raises(ValueError):
            smp.node_of(-1)


class TestHierCollectives:
    def test_bcast_cheaper_than_flat(self, smp):
        """The intra-node hops are nearly free vs flat inter-node hops."""
        from repro.simmpi import bcast_time

        assert hier_bcast_time(smp, 64, 8) < bcast_time(QSNET_LIKE, 64, 8)

    def test_allreduce_twice_bcast(self, smp):
        assert hier_allreduce_time(smp, 64, 8) == pytest.approx(
            2 * hier_bcast_time(smp, 64, 8)
        )

    def test_single_node_all_intra(self, smp):
        t = hier_bcast_time(smp, 4, 8)
        from repro.simmpi import tree_depth

        assert t == pytest.approx(tree_depth(4) * smp.intra.tmsg(8))


class TestEngineWithSmp:
    def test_intra_node_message_faster(self):
        flat = es45_like_cluster(jitter_frac=0.0)
        smp_cluster = flat.with_smp()

        def prog(rank):
            yield SetPhase(0)
            if rank == 0:
                yield Isend(1, 1, 256)
            elif rank == 1:
                yield Recv(0, 1)

        t_flat = Engine(flat, 2, 1).run(prog).final_clocks[1]
        t_smp = Engine(smp_cluster, 2, 1).run(prog).final_clocks[1]
        assert t_smp < t_flat

    def test_inter_node_message_unchanged(self):
        flat = es45_like_cluster(jitter_frac=0.0)
        smp_cluster = flat.with_smp()

        def prog(rank):
            yield SetPhase(0)
            if rank == 0:
                yield Isend(5, 1, 256)
            elif rank == 5:
                yield Recv(0, 1)
            else:
                yield Compute(0.0)

        t_flat = Engine(flat, 6, 1).run(prog).final_clocks[5]
        t_smp = Engine(smp_cluster, 6, 1).run(prog).final_clocks[5]
        assert t_smp == pytest.approx(t_flat)

    def test_collectives_faster_with_smp(self):
        flat = es45_like_cluster(jitter_frac=0.0)
        smp_cluster = flat.with_smp()

        def prog(rank):
            yield SetPhase(0)
            yield Allreduce(nbytes=8)

        t_flat = Engine(flat, 16, 1).run(prog).makespan
        t_smp = Engine(smp_cluster, 16, 1).run(prog).makespan
        assert t_smp < t_flat

    def test_measured_iteration_faster_on_smp(self, small_deck, small_faces, small_partition_16):
        from repro.hydro import measure_iteration_time

        flat = es45_like_cluster()
        smp_cluster = flat.with_smp()
        t_flat = measure_iteration_time(
            small_deck, small_partition_16, cluster=flat, faces=small_faces
        ).seconds
        t_smp = measure_iteration_time(
            small_deck, small_partition_16, cluster=smp_cluster, faces=small_faces
        ).seconds
        assert t_smp < t_flat
