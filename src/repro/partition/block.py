"""Block partitioners: contiguous-id chunks and structured rectangular tiles.

The structured tiling is what the paper's *general* model idealises — equal
square subgrids with ``sqrt(Cells/PEs)`` boundary faces per side — and is
also the 2×1 tiling of the two-process "contrived" calibration grids of
Section 3.1.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.grid import QuadMesh
from repro.partition.base import Partition


def block_partition(num_cells: int, num_ranks: int) -> Partition:
    """Split cell ids ``0..num_cells-1`` into ``num_ranks`` contiguous chunks.

    Chunk sizes differ by at most one cell, matching the paper's equal-cells
    assumption as closely as integer division allows.
    """
    if num_ranks <= 0:
        raise ValueError(f"num_ranks must be positive, got {num_ranks}")
    if num_ranks > num_cells:
        raise ValueError(f"cannot split {num_cells} cells into {num_ranks} parts")
    # searchsorted against chunk boundaries gives near-equal parts directly.
    boundaries = (np.arange(1, num_ranks) * num_cells) // num_ranks
    labels = np.searchsorted(boundaries, np.arange(num_cells), side="right")
    return Partition(num_ranks=num_ranks, cell_rank=labels.astype(np.int64), method="block")


def _tile_counts(n: int, parts: int) -> np.ndarray:
    """Split ``n`` items into ``parts`` near-equal contiguous runs."""
    base = n // parts
    extra = n % parts
    return np.array([base + (1 if i < extra else 0) for i in range(parts)], dtype=np.int64)


def choose_tile_grid(nx: int, ny: int, num_ranks: int) -> tuple[int, int]:
    """Pick a ``px × py`` factorisation of ``num_ranks`` matching the mesh aspect.

    Chooses the factor pair whose tile aspect ratio is closest to square,
    which is exactly the general model's "each subdomain is assumed to be
    square" idealisation.
    """
    best: tuple[int, int] | None = None
    best_score = np.inf
    for px in range(1, num_ranks + 1):
        if num_ranks % px:
            continue
        py = num_ranks // px
        if px > nx or py > ny:
            continue
        tile_w = nx / px
        tile_h = ny / py
        score = abs(np.log(tile_w / tile_h))
        if score < best_score:
            best_score = score
            best = (px, py)
    if best is None:
        raise ValueError(
            f"no feasible tiling of a {nx}x{ny} mesh into {num_ranks} parts"
        )
    return best


def structured_block_partition(
    mesh: QuadMesh, num_ranks: int, px: int | None = None, py: int | None = None
) -> Partition:
    """Tile a structured mesh into ``px × py`` rectangular subgrids.

    When ``px``/``py`` are omitted they are chosen to make tiles as square
    as possible.  Requires the mesh to carry structured metadata.
    """
    if not mesh.is_structured:
        raise ValueError("structured_block_partition requires a structured mesh")
    if px is None or py is None:
        px, py = choose_tile_grid(mesh.nx, mesh.ny, num_ranks)
    if px * py != num_ranks:
        raise ValueError(f"px*py must equal num_ranks ({px}*{py} != {num_ranks})")
    if px > mesh.nx or py > mesh.ny:
        raise ValueError("more tiles than cells along an axis")

    i, j = mesh.cell_ij()
    col_edges = np.cumsum(_tile_counts(mesh.nx, px))[:-1]
    row_edges = np.cumsum(_tile_counts(mesh.ny, py))[:-1]
    tile_i = np.searchsorted(col_edges, i, side="right")
    tile_j = np.searchsorted(row_edges, j, side="right")
    labels = (tile_j * px + tile_i).astype(np.int64)
    return Partition(num_ranks=num_ranks, cell_rank=labels, method="structured-block")
