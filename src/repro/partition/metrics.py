"""Partition-quality metrics: edge cut, balance, neighbour statistics.

These are the quantities Metis optimises ("balance cell counts on each
processor while minimizing edge cuts") and the quantities that drive the
communication model, so the ablation benches report them for every
partitioner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.partition.base import Partition
from repro.partition.graph import CSRGraph
from repro.util import as_int_array


def edge_cut(graph: CSRGraph, labels: np.ndarray) -> int:
    """Total weight of graph edges whose endpoints lie in different parts."""
    labels = as_int_array(labels, "labels")
    src = np.repeat(labels, np.diff(graph.indptr))
    cross = labels[graph.indices] != src
    return int(graph.eweights[cross].sum() // 2)


def imbalance(counts: np.ndarray) -> float:
    """Load imbalance ``max(counts) / mean(counts)`` (1.0 = perfect)."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0 or counts.sum() == 0:
        raise ValueError("counts must be non-empty with a positive total")
    return float(counts.max() / counts.mean())


def neighbor_counts(graph: CSRGraph, labels: np.ndarray, num_ranks: int) -> np.ndarray:
    """Distinct neighbouring parts per part, length ``num_ranks``."""
    labels = as_int_array(labels, "labels")
    src = np.repeat(labels, np.diff(graph.indptr))
    dst = labels[graph.indices]
    cross = src != dst
    pairs = np.unique(src[cross] * np.int64(num_ranks) + dst[cross])
    out = np.zeros(num_ranks, dtype=np.int64)
    np.add.at(out, (pairs // num_ranks).astype(np.int64), 1)
    return out


@dataclass(frozen=True)
class PartitionQuality:
    """Summary quality metrics of one partition."""

    method: str
    num_ranks: int
    edge_cut: int
    imbalance: float
    mean_neighbors: float
    min_neighbors: int
    max_neighbors: int


def partition_quality(graph: CSRGraph, partition: Partition) -> PartitionQuality:
    """Compute :class:`PartitionQuality` for ``partition`` over ``graph``."""
    counts = partition.counts()
    nbrs = neighbor_counts(graph, partition.cell_rank, partition.num_ranks)
    active = nbrs[counts > 0] if partition.num_ranks > 1 else nbrs
    return PartitionQuality(
        method=partition.method,
        num_ranks=partition.num_ranks,
        edge_cut=edge_cut(graph, partition.cell_rank),
        imbalance=imbalance(counts[counts > 0]),
        mean_neighbors=float(active.mean()) if active.size else 0.0,
        min_neighbors=int(active.min()) if active.size else 0,
        max_neighbors=int(active.max()) if active.size else 0,
    )
