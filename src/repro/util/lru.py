"""A bounded least-recently-used mapping — the one LRU of the package.

The per-process memos (face tables, decks with their partitions and
censuses, calibrations, fitted calibrations, weighted repartitions) and
the prediction result cache all hold values that long-lived processes
would otherwise accumulate without limit.  The prediction service reads
and fills them from several executor threads at once, so every access
holds a lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class LRUMemo:
    """Thread-safe recency-ordered mapping that evicts beyond ``max_entries``.

    ``get`` refreshes a hit's recency; ``put`` inserts (or refreshes) and
    evicts the least recently used entries, counting them in
    ``evictions``.  One lock guards each lookup, insertion and clear, so a
    concurrent ``put`` cannot evict a key between a ``get``'s test and
    its refresh.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()
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

    def put(self, key, value) -> None:
        """Store ``value`` as the most recent entry, evicting the oldest."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the eviction count is kept)."""
        with self._lock:
            self._entries.clear()
