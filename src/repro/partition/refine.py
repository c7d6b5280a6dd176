"""Fiduccia–Mattheyses boundary refinement for 2-way partitions.

Used at every uncoarsening level of the multilevel bisection.  The
implementation is the classic single-move-with-rollback FM: vertices are
moved one at a time in best-gain order subject to a balance constraint, and
the pass is rolled back to the best prefix seen.  Only boundary vertices
enter the priority queue, so a pass costs O(boundary · degree · log n).

The move loops index the CSR arrays and the per-vertex state through
``memoryview``s rather than NumPy scalars or per-level ``tolist()`` copies:
every quantity involved (gains, weights, cuts) is an integer, single-element
memoryview access is as cheap as list access, and nothing is converted per
vertex, so a pass costs time in the boundary, not in the graph size.
Tie-break draws, queue entries and move order are unchanged, so the
refined bisection is identical to the array-based implementation — this is
the repartition-dominated hot path of dynamic runs.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partition.graph import CSRGraph


def compute_side_weights(graph: CSRGraph, side: np.ndarray) -> tuple[int, int]:
    """Total vertex weight on side 0 and side 1."""
    w1 = int(graph.vweights[side.astype(bool)].sum())
    return graph.total_vweight - w1, w1


def compute_cut(graph: CSRGraph, side: np.ndarray) -> int:
    """Total weight of edges crossing the bisection."""
    cross = side[graph.indices] != np.repeat(side, np.diff(graph.indptr))
    return int(graph.eweights[cross].sum() // 2)


def _internal_external(graph: CSRGraph, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex edge weight to the same side (internal) and other (external)."""
    degree = np.diff(graph.indptr)
    crossing = side[graph.indices] != np.repeat(side, degree)
    total = np.zeros(graph.num_vertices, dtype=np.int64)
    external = np.zeros(graph.num_vertices, dtype=np.int64)
    # reduceat sums up to the next listed start, so listing only the
    # non-empty segments' starts gives exact per-vertex sums.
    starts = graph.indptr[:-1][degree > 0]
    if starts.size:
        total[degree > 0] = np.add.reduceat(graph.eweights, starts)
        external[degree > 0] = np.add.reduceat(graph.eweights * crossing, starts)
    return total - external, external


def fm_refine(
    graph: CSRGraph,
    side: np.ndarray,
    target_frac0: float = 0.5,
    rng: np.random.Generator | None = None,
    max_passes: int = 8,
    imbalance_tol: float = 0.03,
) -> int:
    """Refine a bisection in place; return the final cut weight.

    Parameters
    ----------
    graph:
        The graph being bisected.
    side:
        0/1 assignment per vertex, modified in place.
    target_frac0:
        Desired fraction of total vertex weight on side 0 (≠ 0.5 when the
        recursive driver splits an odd rank count).
    rng:
        Tie-break source; ``None`` uses a fixed generator.
    max_passes:
        FM passes; stops early when a pass yields no improvement.
    imbalance_tol:
        Allowed relative deviation of side-0 weight from its target.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = graph.num_vertices
    side = np.asarray(side)
    if side.shape != (n,):
        raise ValueError("side must have one entry per vertex")

    total = graph.total_vweight
    target0 = target_frac0 * total
    max_vw = int(graph.vweights.max()) if n else 1
    slack = max(max_vw, int(np.ceil(imbalance_tol * total)))

    side_a = np.array(side, dtype=np.int64)
    internal_a, external_a = _internal_external(graph, side_a)
    cut = int(external_a.sum()) // 2
    w0, _ = compute_side_weights(graph, side_a)

    # Memoryview-backed working state: all integers, identical arithmetic.
    side_mv = memoryview(side_a)
    internal = memoryview(internal_a)
    external = memoryview(external_a)
    vweights = memoryview(graph.vweights)
    indptr = memoryview(graph.indptr)
    indices = memoryview(graph.indices)
    eweights = memoryview(graph.eweights)
    stamp_a = np.zeros(n, dtype=np.int64)
    stamp = memoryview(stamp_a)
    heappush = heapq.heappush

    for _ in range(max_passes):
        locked = bytearray(n)
        tiebreak_a = rng.permutation(n)
        tiebreak = memoryview(tiebreak_a)
        # Queue entries are (-gain, tiebreak, v, stamp): all distinct, so
        # the pops come in one order however the heap was built.
        boundary = np.flatnonzero(external_a > 0)
        stamp_a[boundary] += 1
        heap = list(zip(
            (internal_a - external_a)[boundary].tolist(),
            tiebreak_a[boundary].tolist(),
            boundary.tolist(),
            stamp_a[boundary].tolist(),
        ))
        heapq.heapify(heap)

        moves: list[int] = []
        best_prefix = 0
        best_cut = cut
        w0_now = w0
        cut_now = cut
        move_limit = max(64, 4 * len(heap))
        # Classic FM early exit: abandon the pass once the hill-climb has
        # gone this long without finding a new best prefix.
        stall_limit = max(48, len(heap) // 8)

        while heap and len(moves) < move_limit:
            neg_gain, _, v, st = heapq.heappop(heap)
            if locked[v] or st != stamp[v]:
                continue
            gain = -neg_gain
            vw = vweights[v]
            new_w0 = w0_now - vw if side_mv[v] == 0 else w0_now + vw
            # Balance gate: allow the move if it keeps side 0 within the
            # slack band, or strictly improves distance to the target.
            if abs(new_w0 - target0) > slack and abs(new_w0 - target0) >= abs(
                w0_now - target0
            ):
                locked[v] = 1
                continue

            # Apply the move.
            new_side = 1 - side_mv[v]
            side_mv[v] = new_side
            locked[v] = 1
            w0_now = new_w0
            cut_now -= gain
            internal[v], external[v] = external[v], internal[v]
            for e in range(indptr[v], indptr[v + 1]):
                u = indices[e]
                w = eweights[e]
                if side_mv[u] == new_side:
                    internal[u] += w
                    external[u] -= w
                else:
                    internal[u] -= w
                    external[u] += w
                if not locked[u]:
                    stamp[u] += 1
                    heappush(heap, (internal[u] - external[u], tiebreak[u], u, stamp[u]))
            moves.append(v)

            # Prefer better cuts; among equal cuts prefer better balance.
            if cut_now < best_cut:
                best_cut = cut_now
                best_prefix = len(moves)
            elif len(moves) - best_prefix > stall_limit:
                break

        # Roll back to the best prefix.
        for v in moves[best_prefix:]:
            new_side = 1 - side_mv[v]
            side_mv[v] = new_side
            internal[v], external[v] = external[v], internal[v]
            for e in range(indptr[v], indptr[v + 1]):
                u = indices[e]
                w = eweights[e]
                if side_mv[u] == new_side:
                    internal[u] += w
                    external[u] -= w
                else:
                    internal[u] -= w
                    external[u] += w
        w0, _ = compute_side_weights(graph, side_a)
        improved = best_cut < cut
        cut = best_cut
        if not improved:
            break

    side[:] = side_a
    return cut


def greedy_grow_bisection(
    graph: CSRGraph, target_frac0: float, rng: np.random.Generator, trials: int = 4
) -> np.ndarray:
    """Initial bisection by greedy region growing (Metis's GGGP analogue).

    Grows side 0 from a random seed vertex, always absorbing the frontier
    vertex most connected to the region, until side 0 reaches its target
    weight.  Runs ``trials`` seeds and keeps the smallest cut.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    total = graph.total_vweight
    target0 = target_frac0 * total

    vweights = graph.vweights.tolist()
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    eweights = graph.eweights.tolist()

    best_side: np.ndarray | None = None
    best_cut = np.iinfo(np.int64).max
    for _ in range(max(1, trials)):
        side = [1] * n
        grown = 0
        # Connectivity of each frontier vertex to the growing region.
        conn = [0] * n
        heap: list = []
        stamp = [0] * n
        in_region = [False] * n

        heappush = heapq.heappush

        def push(v: int) -> None:
            stamp[v] += 1
            heappush(heap, (-conn[v], int(rng.integers(n + 1)), v, stamp[v]))

        start = int(rng.integers(n))
        push(start)
        while grown < target0:
            while heap:
                _, _, v, st = heapq.heappop(heap)
                if not in_region[v] and st == stamp[v]:
                    break
            else:
                # Disconnected remainder: restart from any vertex outside.
                try:
                    v = in_region.index(False)
                except ValueError:
                    break
            in_region[v] = True
            side[v] = 0
            grown += vweights[v]
            for e in range(indptr[v], indptr[v + 1]):
                u = indices[e]
                if not in_region[u]:
                    conn[u] += eweights[e]
                    push(u)
        side_arr = np.asarray(side, dtype=np.int64)
        cut = compute_cut(graph, side_arr)
        if cut < best_cut:
            best_cut = cut
            best_side = side_arr
    assert best_side is not None
    return best_side
