"""The package's one LRU mapping: recency, bounds and thread safety."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.util.lru import LRUMemo


def test_get_refreshes_and_put_evicts_the_least_recent():
    memo = LRUMemo(2)
    memo.put("a", 1)
    memo.put("b", 2)
    assert memo.get("a") == 1  # "b" is now the least recent
    memo.put("c", 3)
    assert "b" not in memo and memo.get("a") == 1 and memo.get("c") == 3
    assert memo.evictions == 1
    assert memo.get("b", "missing") == "missing"
    memo.clear()
    assert len(memo) == 0 and memo.evictions == 1


def test_rejects_an_empty_bound():
    with pytest.raises(ValueError):
        LRUMemo(0)


class _YieldingKey:
    """A key whose hash gives up the interpreter lock, so other threads run
    between a lookup's steps as often as the scheduler allows."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        time.sleep(0)
        return hash(self.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, _YieldingKey) and other.value == self.value


def test_concurrent_get_and_put_never_raise():
    """Threads hammer a 2-entry memo with a tiny switch interval: without a
    lock, a ``put`` on one thread can evict a key between another thread's
    membership test and its ``move_to_end``, which raises ``KeyError``."""
    memo = LRUMemo(2)
    keys = [_YieldingKey(k) for k in range(5)]
    errors = []
    start = threading.Barrier(4)

    def hammer(offset):
        start.wait()
        try:
            for i in range(3000):
                key = keys[(i + offset) % len(keys)]
                if memo.get(key) is None:
                    memo.put(key, key.value)
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(memo) <= 2
