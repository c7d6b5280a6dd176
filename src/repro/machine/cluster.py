"""Cluster configuration bundling the node and network models."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.machine.costdb import krak_node_model
from repro.machine.hierarchy import HierarchicalNetwork, es45_hierarchical_network
from repro.machine.network import QSNET_LIKE, NetworkModel
from repro.machine.node import NodeModel


@dataclass(frozen=True)
class ClusterConfig:
    """A simulated parallel machine: compute costs plus interconnect.

    Attributes
    ----------
    name:
        Human-readable label, e.g. ``"es45-qsnet-like"``.
    node:
        Per-processor compute-cost model.
    network:
        Point-to-point message-cost model (Equation 4 form).  When
        ``hierarchy`` is set this is the *inter-node* fabric; the analytic
        model keeps using it (or a blended flat equivalent).
    send_overhead, recv_overhead:
        CPU time charged on the sender when posting an asynchronous send and
        on the receiver when completing a blocking receive.  These are host
        overheads *in addition to* the wire cost and are what makes message
        overlap in the simulator imperfect, as on the real machine.
    hierarchy:
        Optional SMP-aware two-level network; when present, the simulator
        charges intra-node messages at shared-memory cost and collectives
        use the node-then-leader tree.
    """

    name: str
    node: NodeModel
    network: NetworkModel
    send_overhead: float = 1.5e-6
    recv_overhead: float = 2.0e-6
    hierarchy: HierarchicalNetwork | None = None

    def __post_init__(self) -> None:
        if self.send_overhead < 0 or self.recv_overhead < 0:
            raise ValueError("host overheads must be non-negative")

    def with_network(self, network: NetworkModel) -> "ClusterConfig":
        """Copy of this cluster with a different interconnect."""
        return replace(self, network=network, name=f"{self.name}+{network.name}")

    def with_smp(
        self,
        ranks_per_node: int = 4,
        intra_latency: float = 3e-6,
        intra_bandwidth: float = 1.2e9,
        intra_send_overhead: float | None = None,
        intra_recv_overhead: float | None = None,
    ) -> "ClusterConfig":
        """Copy of this cluster with an ES-45-style SMP hierarchy enabled.

        ``intra_send_overhead`` / ``intra_recv_overhead`` optionally lower
        the per-message host overheads for on-node messages (a shared-memory
        transport bypasses the NIC); ``None`` keeps the flat overheads on
        every message, bitwise-identical to the placement-unaware machine.
        """
        hierarchy = es45_hierarchical_network(
            self.network,
            intra_latency=intra_latency,
            intra_bandwidth=intra_bandwidth,
            ranks_per_node=ranks_per_node,
            intra_send_overhead=intra_send_overhead,
            intra_recv_overhead=intra_recv_overhead,
        )
        return replace(
            self, hierarchy=hierarchy, name=f"{self.name}+smp{ranks_per_node}"
        )

    def with_placement(self, placement) -> "ClusterConfig":
        """Copy of this SMP cluster under an explicit rank→node map.

        Requires the SMP hierarchy (enable it first with :meth:`with_smp`);
        the placement's capacity must match the hierarchy's
        ``ranks_per_node``.

        >>> cluster = es45_like_cluster().with_smp()
        >>> from repro.placement import round_robin_placement
        >>> placed = cluster.with_placement(round_robin_placement(8, 4))
        >>> placed.name
        'es45-qsnet-like+smp4+round-robin'
        >>> h = placed.hierarchy
        >>> h.network_for(0, 1) is h.inter  # adjacent ranks split
        True
        >>> h.network_for(0, 2) is h.intra  # stride-2 shares a node
        True
        """
        if self.hierarchy is None:
            raise ValueError(
                "placement requires an SMP hierarchy; call with_smp() first"
            )
        return replace(
            self,
            hierarchy=self.hierarchy.with_placement(placement),
            name=f"{self.name}+{placement.name}",
        )


def es45_like_cluster(
    speed: float = 1.0,
    jitter_frac: float = 0.015,
    seed: int = 0,
    network: NetworkModel | None = None,
) -> ClusterConfig:
    """The default validation machine: ES-45-like nodes on a QsNet-like net."""
    return ClusterConfig(
        name="es45-qsnet-like",
        node=krak_node_model(speed=speed, jitter_frac=jitter_frac, seed=seed),
        network=QSNET_LIKE if network is None else network,
    )
