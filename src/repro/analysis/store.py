"""Content-addressed on-disk store for prediction and calibration
artifacts.

Generalises the memoisation pattern of :mod:`repro.partition.cache` from
partitions to arbitrary JSON-serialisable results: every artifact is keyed
by a :func:`repro.util.stable_hash` of everything that determines it —
:func:`repro.core.pipeline.request_key` for results (sweep points are
measured results), :meth:`repro.perfmodel.calibrate.FittedCalibration.store_key`
for trace-fitted calibrations — so a key hit guarantees the cached value
is the one the computation would reproduce.
Stores from concurrent worker processes are safe — writes go through a
temporary file and an atomic ``os.replace``.

The store is what makes sweeps resumable: re-running a partially completed
sweep looks every point up here first and only simulates the misses.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.util.artifacts import cache_root, stable_hash

__all__ = [
    "ResultStore",
    "calibration_store",
    "prediction_store",
    "stable_hash",
]

#: Default that tells a miss apart from any stored JSON value.
_MISSING = object()


class ResultStore:
    """A directory of ``<key>.json`` files keyed by content hash.

    Parameters
    ----------
    namespace:
        Subdirectory under the cache root; different artifact kinds
        (measured and predicted results, calibration tables, …) use
        different namespaces.
    root:
        Override the cache root (defaults to ``.cache/`` at the repository
        root or ``$REPRO_CACHE_DIR``).
    """

    def __init__(self, namespace: str, root: Path | None = None) -> None:
        if not namespace or "/" in namespace or namespace in (".", ".."):
            raise ValueError(f"invalid store namespace {namespace!r}")
        self.namespace = namespace
        self.directory = (Path(root) if root is not None else cache_root()) / namespace
        #: Artifacts :meth:`get` found but could not read back.
        self.unreadable = 0

    def path_for(self, key: str) -> Path:
        """Path of the artifact file for ``key``."""
        return self.directory / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def __len__(self) -> int:
        return len(self.keys())

    def keys(self) -> list:
        """All stored keys (unordered artifacts, sorted for determinism)."""
        if not self.directory.is_dir():
            return []
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def get(self, key: str, default=None):
        """The stored value for ``key``, or ``default`` on a miss.

        An artifact that cannot be read back (truncated, not UTF-8, not
        JSON) is a miss too, counted in :attr:`unreadable` and renamed to
        ``<key>.json.unreadable``, so the next :meth:`put` of the key
        cannot destroy the evidence and :meth:`keys` no longer lists it.
        """
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return default
        except (OSError, ValueError):
            self.unreadable += 1
            try:
                os.replace(path, path.with_name(f"{path.name}.unreadable"))
            except OSError:
                pass  # a concurrent reader quarantined it first
            return default

    def put(self, key: str, value) -> Path:
        """Store ``value`` (JSON-serialisable) under ``key`` atomically.

        Atomic replacement means concurrent writers of the same key leave
        one complete artifact, never a torn file; last writer wins, and all
        writers of one key hold the same content by construction.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(value, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp, self.path_for(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return self.path_for(key)

    def clear(self, keys) -> int:
        """Delete the artifacts of ``keys``; returns how many existed."""
        removed = 0
        for key in keys:
            try:
                self.path_for(key).unlink()
                removed += 1
            except FileNotFoundError:
                pass
        return removed


def calibration_store(root: Path | None = None) -> ResultStore:
    """The default store for trace-fitted calibrations.

    Contrived-grid tables are not stored: they are recomputed from the
    node model in every process.
    """
    return ResultStore(namespace="calibrations", root=root)


def prediction_store(root: Path | None = None) -> ResultStore:
    """The default store for core prediction/measurement results.

    Keys come from :func:`repro.core.pipeline.request_key`; values are
    :meth:`repro.core.request.PredictionResult.to_payload` dicts.  Sweep
    points are measure-mode entries here, and the prediction service
    fronts the same namespace with an in-process
    :class:`repro.core.cache.LRUResultCache`, so each surface answers the
    other's finished requests.
    """
    return ResultStore(namespace="predictions", root=root)
