"""The placement construction strategies.

Four ways to map ranks onto SMP nodes:

* **block** — consecutive ranks fill each node before the next starts (the
  default of every MPI launcher, and what the paper's machine used);
* **round-robin** — rank ``r`` goes to node ``r mod num_nodes`` (cyclic
  ``mpirun`` distribution; an adversarial baseline for nearest-neighbour
  codes);
* **random** — a seeded shuffle of the block slots (the placement a batch
  scheduler hands a fragmented machine);
* **comm-aware** — minimises inter-node bytes over the partition's
  communication graph (:func:`repro.placement.optimize.comm_aware_placement`).

>>> block_placement(6, 4).node_of_rank
array([0, 0, 0, 0, 1, 1])
>>> round_robin_placement(6, 4).node_of_rank
array([0, 1, 0, 1, 0, 1])
"""

from __future__ import annotations

import numpy as np

from repro.placement.base import Placement
from repro.placement.optimize import comm_aware_placement, optimize_placement
from repro.placement.sparse import SparseCommGraph, rank_comm_bytes

#: Strategy names understood by :func:`make_placement` (``random`` accepts
#: an optional ``random:<seed>`` suffix).
STRATEGIES = ("block", "round-robin", "random", "comm-aware")


def _num_nodes(num_ranks: int, ranks_per_node: int) -> int:
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    if ranks_per_node < 1:
        raise ValueError("ranks_per_node must be >= 1")
    return (num_ranks + ranks_per_node - 1) // ranks_per_node


def block_placement(num_ranks: int, ranks_per_node: int) -> Placement:
    """Consecutive ranks packed onto nodes — the launcher default.

    Identical to the implicit placement of
    :class:`~repro.machine.hierarchy.HierarchicalNetwork`:
    ``node_of(r) = r // ranks_per_node``.
    """
    _num_nodes(num_ranks, ranks_per_node)
    nodes = np.arange(num_ranks, dtype=np.int64) // ranks_per_node
    return Placement(node_of_rank=nodes, ranks_per_node=ranks_per_node, name="block")


def round_robin_placement(num_ranks: int, ranks_per_node: int) -> Placement:
    """Cyclic distribution: rank ``r`` on node ``r mod num_nodes``."""
    num_nodes = _num_nodes(num_ranks, ranks_per_node)
    nodes = np.arange(num_ranks, dtype=np.int64) % num_nodes
    return Placement(
        node_of_rank=nodes, ranks_per_node=ranks_per_node, name="round-robin"
    )


def random_placement(num_ranks: int, ranks_per_node: int, seed: int = 0) -> Placement:
    """A seeded shuffle of the block slots (fragmented-scheduler placement).

    Determinism contract: ``random:<seed>`` must name the *same* placement
    on every platform, Python version, and worker process — placements
    participate in sweep store keys and bitwise-compared simulations.  The
    shuffle therefore draws from an explicitly constructed
    ``Generator(PCG64(seed))`` — PCG64 streams are specified by numpy and
    stable within a major series (the pin in ``requirements-dev.txt``) —
    and never from global RNG state, which any import could perturb.
    ``tests/test_placement.py`` pins golden ``node_of_rank`` arrays for
    fixed seeds to catch any drift.

    >>> random_placement(6, 2, seed=3).node_of_rank.tolist()
    [0, 1, 1, 2, 0, 2]
    """
    num_nodes = _num_nodes(num_ranks, ranks_per_node)
    slots = np.repeat(np.arange(num_nodes, dtype=np.int64), ranks_per_node)[:num_ranks]
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.shuffle(slots)
    # The shuffle may leave a node id unused ahead of a used one only when
    # num_ranks < num_nodes * ranks_per_node strips trailing slots; compact
    # labels keep the Placement invariant either way.
    from repro.placement.base import compact_labels

    return Placement(
        node_of_rank=compact_labels(slots), ranks_per_node=ranks_per_node,
        name=f"random:{seed}",
    )


def parse_strategy(strategy: str) -> tuple[str, int | None]:
    """``(name, seed)`` of a strategy token: ``name`` is one of
    :data:`STRATEGIES` and ``seed`` the ``random:<seed>`` suffix (``None``
    when absent).  Raises ``ValueError`` on an unknown name or a suffix
    that is not a non-negative integer, so a request can be refused before
    any work.

    >>> parse_strategy("roundrobin"), parse_strategy("random:7")
    (('round-robin', None), ('random', 7))
    """
    token = strategy.strip()
    if token == "roundrobin":
        return "round-robin", None
    if token.startswith("random:"):
        suffix = token.split(":", 1)[1]
        try:
            seed = int(suffix)
        except ValueError:
            seed = None
        if seed is None or seed < 0:
            raise ValueError(
                f"random placement seed must be a non-negative integer, "
                f"got {suffix!r}"
            )
        return "random", seed
    if token in STRATEGIES:
        return token, None
    raise ValueError(
        f"unknown placement strategy {strategy!r}; options: "
        + ", ".join(STRATEGIES)
    )


def make_placement(
    strategy: str,
    num_ranks: int,
    ranks_per_node: int,
    census=None,
    graph: SparseCommGraph | None = None,
    cluster=None,
    seed: int = 0,
) -> Placement:
    """Build a placement from its declarative strategy name.

    ``strategy`` is one of :data:`STRATEGIES`; ``random`` takes an optional
    ``random:<seed>`` suffix overriding ``seed``.  ``comm-aware`` needs the
    communication structure: a ``census``
    (:class:`~repro.hydro.workload.WorkloadCensus`) or a precomputed
    :class:`~repro.placement.sparse.SparseCommGraph` ``graph``.  With both
    a census and an SMP ``cluster``, the optimizer runs against the priced
    machine (:func:`~repro.placement.optimize.optimize_placement`, the
    makespan-aligned objective); otherwise it falls back to unpriced
    inter-node bytes.
    """
    name, token_seed = parse_strategy(strategy)
    if name == "block":
        return block_placement(num_ranks, ranks_per_node)
    if name == "round-robin":
        return round_robin_placement(num_ranks, ranks_per_node)
    if name == "random":
        if token_seed is not None:
            seed = token_seed
        return random_placement(num_ranks, ranks_per_node, seed=seed)
    if census is not None and cluster is not None and cluster.hierarchy is not None:
        if census.num_ranks != num_ranks:
            raise ValueError("census does not match num_ranks")
        return optimize_placement(census, cluster)
    if graph is None:
        if census is None:
            raise ValueError(
                "comm-aware placement needs a census or communication graph"
            )
        graph = rank_comm_bytes(census)
    if graph.num_ranks != num_ranks:
        raise ValueError("communication graph does not match num_ranks")
    return comm_aware_placement(graph, ranks_per_node)
