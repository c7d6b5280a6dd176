"""A bounded least-recently-used mapping — the one LRU of the package.

The per-process memos (face tables, decks with their partitions and
censuses, placements, job structures, calibrations, fitted calibrations,
weighted repartitions) and the prediction result cache all hold values
that long-lived processes would otherwise accumulate without limit.  The
prediction service reads and fills them from several executor threads at
once, so every access holds a lock.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict

import numpy as np


def array_bytes(value) -> int:
    """Summed ``nbytes`` of the NumPy arrays ``value`` holds, through
    tuples, lists, dict values and dataclass fields; an array reached
    twice counts once."""
    seen: set = set()
    total = 0
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            parts = ()
        elif isinstance(item, (tuple, list)):
            parts = item
        elif isinstance(item, dict):
            parts = item.values()
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            parts = [getattr(item, f.name) for f in dataclasses.fields(item)]
        else:
            continue
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += item.nbytes
        stack.extend(parts)
    return total


class LRUMemo:
    """Thread-safe recency-ordered mapping that evicts beyond ``max_entries``
    entries or, when given, ``max_bytes`` bytes of arrays.

    ``get`` refreshes a hit's recency; ``put`` inserts (or refreshes) and
    evicts the least recently used entries, counting them in
    ``evictions``.  An entry's size is :func:`array_bytes` of its value,
    taken when it is put (or the size ``put`` is given); a value larger than ``max_bytes`` on its own is
    not kept, so its caller uses it once and builds it again next time.
    One lock guards each lookup, insertion and clear, so a concurrent
    ``put`` cannot evict a key between a ``get``'s test and its refresh.
    """

    def __init__(self, max_entries: int, max_bytes: int | None = None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.evictions = 0
        #: Summed size of the entries held (0 without a byte budget).
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        self._sizes: dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key, default=None):
        """The value under ``key`` (now most recent) or ``default``."""
        with self._lock:
            if key not in self._entries:
                return default
            self._entries.move_to_end(key)
            return self._entries[key]

    def put(self, key, value, nbytes: int | None = None) -> None:
        """Store ``value`` as the most recent entry, evicting the oldest.

        ``nbytes`` is the entry's size where it is not
        :func:`array_bytes` of ``value``: a value that shares arrays
        charged to another entry counts only its own.
        """
        size = nbytes
        if size is None:
            size = 0 if self.max_bytes is None else array_bytes(value)
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self.nbytes -= self._sizes.pop(key)
            if self.max_bytes is not None and size > self.max_bytes:
                return
            self._entries[key] = value
            self._sizes[key] = size
            self.nbytes += size
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None and self.nbytes > self.max_bytes
            ):
                oldest, _ = self._entries.popitem(last=False)
                self.nbytes -= self._sizes.pop(oldest)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the eviction count is kept)."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self.nbytes = 0
