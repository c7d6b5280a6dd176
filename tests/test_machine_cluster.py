"""Unit tests for the cluster configuration."""

import dataclasses

import pytest

from repro.machine import ClusterConfig, es45_like_cluster
from repro.machine.network import make_network


class TestEs45LikeCluster:
    def test_defaults(self):
        cl = es45_like_cluster()
        assert cl.name == "es45-qsnet-like"
        assert cl.node.num_phases == 15
        assert cl.node.num_materials == 4
        assert cl.network.name == "qsnet-like"

    def test_with_network(self):
        cl = es45_like_cluster()
        fast = make_network(small_latency=1e-6, name="infiniband-like")
        cl2 = cl.with_network(fast)
        assert cl2.network.name == "infiniband-like"
        assert cl2.node is cl.node
        assert "infiniband-like" in cl2.name

    def test_with_node(self):
        cl = es45_like_cluster()
        from repro.machine import krak_node_model

        cl2 = dataclasses.replace(cl, node=krak_node_model(speed=2.0))
        assert cl2.node.cell_cost[0, 0] < cl.node.cell_cost[0, 0]
        assert cl2.network is cl.network

    def test_rejects_negative_overheads(self):
        with pytest.raises(ValueError):
            ClusterConfig(
                name="bad",
                node=es45_like_cluster().node,
                network=es45_like_cluster().network,
                send_overhead=-1.0,
            )

    def test_jitter_toggle(self):
        assert es45_like_cluster(jitter_frac=0.0).node.jitter_frac == 0.0
        assert es45_like_cluster().node.jitter_frac > 0.0
