"""Heavy-edge matching for multilevel coarsening.

Classic Metis coarsening visits vertices in random order and matches each
with its heaviest unmatched neighbour.  A strictly sequential visit is slow
in Python, so we use the standard parallel-friendly variant: every vertex
*proposes* to its heaviest eligible neighbour (ties broken by a per-round
random permutation), and mutual proposals are accepted; a few rounds match
almost as many vertices as the sequential algorithm, which is all
coarsening needs.

Proposals are integer arithmetic over the CSR arcs: an arc to ``u`` scores
``w·(n+1) + n − tiebreak[u]``, which orders arcs by weight and then by
smaller tiebreak.  ``tiebreak`` is a permutation, so one
``maximum.reduceat`` gives each vertex's best score, and the score modulo
``n+1`` names the neighbour that earned it.
"""

from __future__ import annotations

import numpy as np

from repro.partition.graph import CSRGraph


def heavy_edge_matching(
    graph: CSRGraph,
    rng: np.random.Generator,
    max_rounds: int = 4,
    max_vweight: int | None = None,
) -> np.ndarray:
    """Compute a heavy-edge matching as an involution array.

    Parameters
    ----------
    graph:
        The graph to match.
    rng:
        Seeded generator for deterministic tie-breaking.
    max_rounds:
        Mutual-proposal rounds; each round matches a large fraction of the
        remaining eligible vertices.
    max_vweight:
        If given, refuse matches whose combined vertex weight would exceed
        this bound (keeps coarse vertices from ballooning, as in Metis).

    Returns
    -------
    match:
        ``match[i]`` = partner of ``i`` or ``i`` when unmatched.
    """
    n = graph.num_vertices
    match = np.arange(n, dtype=np.int64)
    if n == 0 or graph.indices.size == 0:
        return match
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    dst = graph.indices
    base = graph.eweights * (n + 1) + n
    eligible = np.ones(n, dtype=bool)

    for round_ in range(max_rounds):
        if not np.any(eligible):
            break
        tiebreak = rng.permutation(n)
        if round_:
            # Drop the arcs of vertices matched last round.
            live = np.flatnonzero(eligible[src] & eligible[dst])
            src, dst, base = src[live], dst[live], base[live]
        proposal = np.full(n, -1, dtype=np.int64)
        if src.size:
            # src is sorted, so each vertex's live arcs form one run.
            heads = np.flatnonzero(np.diff(src, prepend=-1))
            best = np.maximum.reduceat(base - tiebreak[dst], heads)
            # best % (n+1) is n - tiebreak[winner]; invert tiebreak to name it.
            by_tiebreak = np.empty(n, dtype=np.int64)
            by_tiebreak[tiebreak] = np.arange(n)
            proposal[src[heads]] = by_tiebreak[n - best % (n + 1)]
        has = proposal >= 0
        # Mutual: proposal[proposal[i]] == i.
        mutual = has.copy()
        idx = np.flatnonzero(has)
        mutual[idx] = proposal[proposal[idx]] == idx
        if max_vweight is not None:
            idx = np.flatnonzero(mutual)
            combined = graph.vweights[idx] + graph.vweights[proposal[idx]]
            mutual[idx] &= combined <= max_vweight
        winners = np.flatnonzero(mutual)
        if winners.size == 0:
            break
        match[winners] = proposal[winners]
        eligible[winners] = False
        eligible[proposal[winners]] = False

    return match
