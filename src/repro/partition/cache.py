"""Disk cache for partitions.

Multilevel partitioning of the large deck at 512 ranks costs tens of
seconds; every validation table and figure reuses the same partitions, so we
memoise them as ``.npz`` files keyed by deck geometry, rank count, method,
and seed.  The cache is content-addressed by parameters only — all
partitioners are deterministic given their seed.

The cache lives under the shared :func:`repro.util.cache_root` (next to the
sweep-result store of :mod:`repro.analysis.store`) and its writes are
atomic, so parallel sweep workers that race on the same partition leave one
complete file rather than a torn one.
"""

from __future__ import annotations

import os
import tempfile
import threading
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.mesh.connectivity import FaceTable
from repro.mesh.deck import InputDeck
from repro.partition.base import Partition
from repro.partition.multilevel import multilevel_partition
from repro.partition.rcb import rcb_partition
from repro.partition.block import block_partition, structured_block_partition
from repro.util.artifacts import MODEL_VERSION, cache_root


#: Partition files :func:`cached_partition` found but could not use
#: (unreadable, or not fitting the deck) in this process; each was a miss,
#: quarantined and recomputed.  Read it with :func:`unreadable_count`.  The
#: prediction service partitions on executor threads, hence the lock.
_unreadable = 0
_unreadable_lock = threading.Lock()


def unreadable_count() -> int:
    """How many unusable partition files this process has met."""
    return _unreadable


def cache_dir() -> Path:
    """Resolve the partition cache directory (honours REPRO_CACHE_DIR)."""
    return cache_root() / "partitions"


def _cache_key(deck: InputDeck, num_ranks: int, method: str, seed: int) -> str:
    mesh = deck.mesh
    return (
        f"{deck.name}-{mesh.nx}x{mesh.ny}-c{mesh.num_cells}"
        f"-p{num_ranks}-{method}-s{seed}-v{MODEL_VERSION}"
    )


#: Method names understood by :func:`make_partition` / :func:`cached_partition`.
PARTITION_METHODS = ("multilevel", "rcb", "block", "structured-block")


def make_partition(
    mesh,
    num_ranks: int,
    method: str = "multilevel",
    seed: int = 0,
    faces: FaceTable | None = None,
) -> Partition:
    """Dispatch to the named partitioner — the single assembly seam.

    Every construction site (sweep tasks, the model-core pipeline, the
    verification scenario builder) routes through this dispatch, so the
    optimized stack and the reference oracle can never disagree on what a
    ``method`` string means.  Only ``multilevel`` consumes ``seed`` and
    ``faces``; the regular baselines are fully determined by the mesh.
    """
    if method == "multilevel":
        return multilevel_partition(mesh, num_ranks, faces=faces, seed=seed)
    if method == "rcb":
        return rcb_partition(mesh, num_ranks)
    if method == "block":
        return block_partition(mesh.num_cells, num_ranks)
    if method == "structured-block":
        return structured_block_partition(mesh, num_ranks)
    raise ValueError(f"unknown partition method {method!r}")


def _load_cached(path: Path, deck: InputDeck, num_ranks: int) -> Partition | None:
    """The partition stored at ``path``, or ``None`` when the file is
    unreadable (truncated, not an ``.npz``, missing arrays) or its
    ``cell_rank`` does not fit ``deck`` and ``num_ranks``.  The caller then
    quarantines the file and recomputes."""
    try:
        # The handle is ours, so it closes even when np.load rejects the
        # file before its own context manager exists.
        with open(path, "rb") as handle, np.load(handle) as data:
            cell_rank = data["cell_rank"]
            method = str(data["method"])
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error):
        return None
    if cell_rank.shape != (deck.mesh.num_cells,):
        return None
    try:
        return Partition(num_ranks=num_ranks, cell_rank=cell_rank, method=method)
    except ValueError:  # non-integral or out-of-range rank ids
        return None


def cached_partition(
    deck: InputDeck,
    num_ranks: int,
    method: str = "multilevel",
    seed: int = 0,
    faces: FaceTable | None = None,
    use_cache: bool = True,
) -> Partition:
    """Partition ``deck`` with memoisation to disk.

    Parameters
    ----------
    method:
        ``"multilevel"`` (the Metis analogue, default), ``"rcb"``,
        ``"block"``, or ``"structured-block"``.
    use_cache:
        Disable to force recomputation (the cache file is then refreshed).
        An unreadable or mismatched cache file is a miss, counted in
        :func:`unreadable_count` and renamed to ``<name>.npz.unreadable``
        before the recomputed partition is written, so the evidence
        survives.
    """
    global _unreadable
    path = cache_dir() / f"{_cache_key(deck, num_ranks, method, seed)}.npz"
    if use_cache and path.exists():
        cached = _load_cached(path, deck, num_ranks)
        if cached is not None:
            return cached
        with _unreadable_lock:
            _unreadable += 1
        try:
            os.replace(path, path.with_name(f"{path.name}.unreadable"))
        except OSError:
            pass  # a concurrent caller quarantined it first

    part = make_partition(deck.mesh, num_ranks, method=method, seed=seed, faces=faces)

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, cell_rank=part.cell_rank, method=part.method)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return part
