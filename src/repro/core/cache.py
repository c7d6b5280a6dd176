"""In-process LRU layer over the content-addressed result store.

The on-disk :class:`~repro.analysis.store.ResultStore` makes results
durable and shareable across processes, but every hit costs a file open
and a JSON parse.  The prediction service (and any long-lived driver)
answers the same handful of requests over and over, so this module adds a
bounded in-memory recency cache in front of any ``get``/``put`` store,
with explicit hit/miss/eviction counters — the numbers ``repro serve
--stats`` and the service benchmarks report.

Keys are content hashes (see :func:`repro.core.pipeline.request_key`), so
memory and disk can never disagree about what a key means; payloads are
treated as immutable JSON values.
"""

from __future__ import annotations

from repro.util.lru import LRUMemo

__all__ = ["LRUResultCache"]


class LRUResultCache:
    """Bounded recency cache, optionally backed by a persistent store.

    Parameters
    ----------
    store:
        Optional write-through backing store (any object with
        ``get(key, default=None)`` and ``put(key, value)``, e.g. a
        :class:`~repro.analysis.store.ResultStore` namespace).  Misses
        fall through to it and promote into memory; ``put`` writes both.
    max_entries:
        In-memory capacity; least-recently-used entries are evicted (the
        backing store, when present, still holds them).
    """

    def __init__(self, store=None, max_entries: int = 256) -> None:
        self.store = store
        self._memory = LRUMemo(max_entries)
        self.hits_memory = 0
        self.hits_store = 0
        self.misses = 0

    @property
    def max_entries(self) -> int:
        return self._memory.max_entries

    @property
    def evictions(self) -> int:
        return self._memory.evictions

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self.store is not None and self.store.get(key) is not None

    def get(self, key: str, default=None):
        """The cached value for ``key`` or ``default``, counting the tier
        that answered (memory hit, store hit, or miss)."""
        if key in self._memory:
            self.hits_memory += 1
            return self._memory.get(key)
        if self.store is not None:
            value = self.store.get(key)
            if value is not None:
                self.hits_store += 1
                self._memory.put(key, value)
                return value
        self.misses += 1
        return default

    def put(self, key: str, value) -> None:
        """Cache ``value`` under ``key`` (write-through when backed)."""
        self._memory.put(key, value)
        if self.store is not None:
            self.store.put(key, value)

    def clear(self) -> None:
        """Drop the in-memory tier (counters and backing store are kept)."""
        self._memory.clear()

    def stats(self) -> dict:
        """Counter snapshot for ``--stats`` output and bench invariants.

        ``store_unreadable`` is the backing store's count of artifacts it
        found but could not read back (0 for a store that keeps none).
        """
        lookups = self.hits_memory + self.hits_store + self.misses
        return {
            "entries": len(self._memory),
            "max_entries": self.max_entries,
            "hits_memory": self.hits_memory,
            "hits_store": self.hits_store,
            "misses": self.misses,
            "evictions": self.evictions,
            "lookups": lookups,
            "store_unreadable": getattr(self.store, "unreadable", 0),
        }
