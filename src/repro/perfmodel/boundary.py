"""The boundary-exchange model: Equation (5) and the Table 3 message tally.

Per neighbour, the exchange consists of one six-message step per material
with boundary faces, plus a final six-message step covering all faces.
Message sizes are 12 bytes per face; when the Table-3 refinement is enabled,
the first two messages of each per-material sextet additionally carry
12 bytes per ghost node touching more than one material.

Equation (5) as printed ignores the multi-material surcharge, the merging of
identical materials, and any overlap between neighbours — all three are
switchable here so the ablation benchmarks can quantify each approximation.

The tally is built and priced with batched numpy operations (one
piecewise-linear ``Tmsg`` evaluation for all messages of a boundary);
results are bitwise identical to pricing each message individually.
Census-wide pricing (:func:`~repro.perfmodel.sparse_mesh.link_wire_times`)
prices every link of a columnar census with the same tally and the same
summation order as :func:`priced_tally_time`.
"""

from __future__ import annotations

import numpy as np

from repro.machine.costdb import (
    BOUNDARY_BYTES_PER_FACE,
    BOUNDARY_BYTES_PER_MULTI_NODE,
    BOUNDARY_MSGS_PER_STEP,
)
from repro.machine.network import NetworkModel


def boundary_tally(
    faces_by_material: np.ndarray,
    multi_nodes_by_material: np.ndarray | None = None,
) -> tuple:
    """The Table 3 tally as ``(counts, sizes)`` arrays for one boundary.

    Row order matches the exchange: for each material with boundary faces,
    the two enlarged messages then the four plain ones; finally the
    all-faces sextet.  ``counts`` is int64, ``sizes`` float64 (bytes).

    Parameters
    ----------
    faces_by_material:
        Boundary faces per material (or per combined exchange group).
        Float face counts are legal: the general model divides
        ``sqrt(Cells/PEs)`` faces equally among materials, which is rarely
        an integer.
    multi_nodes_by_material:
        Ghost nodes touching more than one material, attributed per
        material; ``None`` means the Equation-(5) simplification (no
        surcharge).
    """
    faces = np.asarray(faces_by_material, dtype=np.float64)
    if np.any(faces < 0):
        raise ValueError("face counts must be non-negative")
    multi = (
        np.zeros_like(faces)
        if multi_nodes_by_material is None
        else np.asarray(multi_nodes_by_material, dtype=np.float64)
    )
    if multi.shape != faces.shape:
        raise ValueError("multi_nodes_by_material must align with faces_by_material")
    if np.any(multi < 0):
        raise ValueError("multi-material ghost-node counts must be non-negative")

    positive = faces > 0
    big = BOUNDARY_BYTES_PER_FACE * faces + BOUNDARY_BYTES_PER_MULTI_NODE * multi
    small = BOUNDARY_BYTES_PER_FACE * faces

    k = int(np.count_nonzero(positive))
    counts = np.empty(2 * k + 1, dtype=np.int64)
    sizes = np.empty(2 * k + 1, dtype=np.float64)
    counts[0 : 2 * k : 2] = 2
    counts[1 : 2 * k : 2] = 4
    sizes[0 : 2 * k : 2] = big[positive]
    sizes[1 : 2 * k : 2] = small[positive]
    counts[2 * k] = BOUNDARY_MSGS_PER_STEP
    sizes[2 * k] = BOUNDARY_BYTES_PER_FACE * float(faces.sum())
    return counts, sizes


def boundary_message_sizes(
    faces_by_material: np.ndarray,
    multi_nodes_by_material: np.ndarray | None = None,
) -> list:
    """The Table 3 tally: ``(count, bytes)`` rows for one neighbour boundary."""
    counts, sizes = boundary_tally(faces_by_material, multi_nodes_by_material)
    return list(zip(counts.tolist(), sizes.tolist()))


def priced_tally_time(counts: np.ndarray, times: np.ndarray) -> float:
    """Serial sum ``Σ count · time`` in row order.

    Accumulates left to right over Python floats — the exact summation
    order Equation (5) has always used — so batching the ``Tmsg``
    evaluation cannot perturb the result.
    """
    total = 0.0
    for count, t in zip(counts.tolist(), times.tolist()):
        total += count * t
    return total


def boundary_exchange_time(
    network: NetworkModel,
    faces_by_material: np.ndarray,
    multi_nodes_by_material: np.ndarray | None = None,
) -> float:
    """Equation (5): serial sum of all boundary-exchange messages.

    With ``multi_nodes_by_material=None`` this is the paper's printed
    Equation (5); with the surcharge it reproduces the Table 3 sizes.
    Identical-material merging is the *caller's* job (pass combined groups
    instead of raw materials) because the paper's general model deliberately
    does not merge them.
    """
    counts, sizes = boundary_tally(faces_by_material, multi_nodes_by_material)
    return priced_tally_time(counts, network.tmsg_many(sizes))
