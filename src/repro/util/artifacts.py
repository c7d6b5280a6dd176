"""Content-addressed artifact hashing and the shared on-disk cache root.

Every disk-backed memoisation layer in the reproduction — partition files,
sweep results — lives under one cache root (``.cache/`` at the repository
root, or ``$REPRO_CACHE_DIR``) and keys artifacts by a *stable* hash of the
parameters that produced them.  ``stable_hash`` is deliberately independent
of :func:`hash` (which is salted per process) so keys agree across worker
processes and across runs; every deterministic computation keyed this way
can therefore be shared between parallel workers and resumed sessions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import struct
from pathlib import Path

import numpy as np

#: Default cache root at the repository root (src/repro/util/artifacts.py →
#: up three levels past src/); override via REPRO_CACHE_DIR.
DEFAULT_CACHE_ROOT = Path(__file__).resolve().parents[3] / ".cache"


#: Version of every result a content key stands for: the models, the
#: simulator and the partitioners.  Calibration, prediction and sweep keys
#: and partition file names all carry it, so an entry stored by another
#: version is a miss.  Bump it with any change to a result golden
#: (``tests/test_golden_fingerprints.py`` fails until you do).  Keys made
#: before the salt carried a constant 1, hence the start at 2.
MODEL_VERSION = 2


def cache_root() -> Path:
    """Resolve the shared on-disk cache root directory."""
    override = os.environ.get("REPRO_CACHE_DIR")
    return Path(override) if override else DEFAULT_CACHE_ROOT


def _update(digest, obj) -> None:
    """Feed one object into ``digest`` with a type tag per node.

    Tags keep distinct shapes distinct (``[1, 2]`` vs ``"12"`` vs ``12``);
    containers contribute their length so concatenations cannot collide.
    """
    if obj is None:
        digest.update(b"none;")
    elif isinstance(obj, (bool, np.bool_)):
        digest.update(b"bool:1;" if obj else b"bool:0;")
    elif isinstance(obj, (int, np.integer)):
        digest.update(b"int:%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        digest.update(b"float:" + struct.pack("<d", float(obj)) + b";")
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        digest.update(b"str:%d:" % len(raw) + raw + b";")
    elif isinstance(obj, bytes):
        digest.update(b"bytes:%d:" % len(obj) + obj + b";")
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        header = f"array:{arr.dtype.str}:{arr.shape}:".encode()
        digest.update(header)
        digest.update(arr.tobytes())
        digest.update(b";")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        digest.update(f"dataclass:{type(obj).__qualname__}:".encode())
        # Fields named in _HASH_OPTIONAL_FIELDS_ are skipped while None, so
        # a dataclass can grow a new optional axis without re-keying every
        # artifact produced before the field existed (the byte stream is
        # identical to the pre-field layout — field count is not hashed).
        optional = getattr(obj, "_HASH_OPTIONAL_FIELDS_", ())
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if value is None and field.name in optional:
                continue
            _update(digest, field.name)
            _update(digest, value)
        digest.update(b";")
    elif isinstance(obj, (list, tuple)):
        digest.update(b"seq:%d:" % len(obj))
        for item in obj:
            _update(digest, item)
        digest.update(b";")
    elif isinstance(obj, dict):
        keys = sorted(obj)
        digest.update(b"map:%d:" % len(keys))
        for key in keys:
            _update(digest, key)
            _update(digest, obj[key])
        digest.update(b";")
    else:
        raise TypeError(
            f"stable_hash cannot canonicalise {type(obj).__name__!r}; "
            "use primitives, numpy arrays, containers, or dataclasses of those"
        )


def stable_hash(obj) -> str:
    """Hex digest of ``obj``, identical across processes and sessions.

    Accepts arbitrarily nested primitives, numpy arrays, lists/tuples,
    string-keyed dicts, and dataclasses (hashed by qualified class name and
    field values, so two parameter sets are equal iff their content is).
    """
    digest = hashlib.sha256()
    _update(digest, obj)
    return digest.hexdigest()
