"""The ghost-node update model: Equations (6) and (7).

``T_GNPhase4(N_L, N_R) = Tmsg(8·N_L) + Tmsg(8·N_R)`` and the 16-byte
equivalents for phases 5 and 7 — one message for the locally-owned ghost
nodes and one for the remote ones, per neighbour, with no overlap assumed.
"""

from __future__ import annotations

import numpy as np

from repro.machine.costdb import GHOST_BYTES_PER_NODE
from repro.machine.network import NetworkModel

#: (0-based phase, bytes per ghost node) for the three ghost-update phases.
GHOST_PHASES = tuple(sorted(GHOST_BYTES_PER_NODE.items()))

#: Per-phase bytes, in phase order — the tally pattern of one neighbour.
GHOST_PHASE_BYTES = tuple(nbytes for _, nbytes in GHOST_PHASES)


def ghost_sizes(n_local, n_remote) -> np.ndarray:
    """Message sizes of all three ghost-update phases for one neighbour.

    Order: (local, remote) per phase — the pattern :func:`ghost_phase_total`
    prices.
    """
    if n_local < 0 or n_remote < 0:
        raise ValueError("ghost-node counts must be non-negative")
    out = np.empty(2 * len(GHOST_PHASE_BYTES), dtype=np.float64)
    for i, nbytes in enumerate(GHOST_PHASE_BYTES):
        out[2 * i] = nbytes * n_local
        out[2 * i + 1] = nbytes * n_remote
    return out


def priced_ghost_time(times: np.ndarray) -> float:
    """Sum a neighbour's priced ghost messages in the historical order.

    Each phase's (local + remote) pair is added first, then phases are
    accumulated left to right — the grouping
    :func:`~repro.perfmodel.sparse_mesh.link_wire_times` also uses, so
    census-wide pricing stays bitwise identical.
    """
    flat = times.tolist()
    total = 0.0
    for i in range(len(flat) // 2):
        total += flat[2 * i] + flat[2 * i + 1]
    return total


def ghost_update_time(
    network: NetworkModel, n_local: int, n_remote: int, bytes_per_node: int
) -> float:
    """Equations (6)/(7) for one neighbour in one ghost-update phase."""
    if n_local < 0 or n_remote < 0:
        raise ValueError("ghost-node counts must be non-negative")
    if bytes_per_node <= 0:
        raise ValueError("bytes_per_node must be positive")
    return network.tmsg(bytes_per_node * n_local) + network.tmsg(
        bytes_per_node * n_remote
    )


def ghost_phase_total(network: NetworkModel, n_local: int, n_remote: int) -> float:
    """All three ghost-update phases for one neighbour (8 + 16 + 16 bytes)."""
    return priced_ghost_time(network.tmsg_many(ghost_sizes(n_local, n_remote)))

