"""The package's one LRU mapping: recency, bounds and thread safety."""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.util.lru import LRUMemo, array_bytes


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
    with pytest.raises(ValueError):
        LRUMemo(2, max_bytes=0)


@dataclass(frozen=True)
class _Box:
    array: np.ndarray
    rest: tuple


def test_array_bytes_walks_containers_and_counts_each_array_once():
    shared = np.zeros(3)
    value = _Box(shared, (shared, [np.zeros(2, np.int32), "label", 7], {"k": np.zeros(1)}))
    assert array_bytes(value) == 24 + 8 + 8
    assert array_bytes(("no arrays", 1.5)) == 0


def test_byte_budget_evicts_the_least_recent():
    memo = LRUMemo(10, max_bytes=100)
    memo.put("a", np.zeros(5))  # 40 B
    memo.put("b", (np.zeros(5), "meta"))  # 40 B
    assert memo.get("a") is not None  # "b" is now the least recent
    memo.put("c", np.zeros(4))  # 32 B: 112 > 100
    assert "b" not in memo and "a" in memo and "c" in memo
    assert memo.nbytes == 72 and memo.evictions == 1
    # Refreshing a key replaces its size rather than adding to it.
    memo.put("c", np.zeros(2))
    assert memo.nbytes == 56 and memo.evictions == 1
    memo.clear()
    assert memo.nbytes == 0 and len(memo) == 0


def test_entry_larger_than_the_budget_is_not_kept():
    memo = LRUMemo(10, max_bytes=100)
    memo.put("a", np.zeros(5))
    big = np.zeros(20)  # 160 B
    memo.put("big", big)
    assert "big" not in memo and memo.get("big") is None
    # Nothing was evicted to make room for it.
    assert "a" in memo and memo.nbytes == 40 and memo.evictions == 0
    # An oversized value under a kept key drops the old entry too.
    memo.put("a", big)
    assert "a" not in memo and memo.nbytes == 0


def test_given_size_charges_only_the_entrys_own_arrays():
    memo = LRUMemo(10, max_bytes=100)
    shared = np.zeros(20)  # 160 B, more than the whole budget
    memo.put("shared", shared)
    assert "shared" not in memo
    memo.put("holder", (shared, np.zeros(5)), nbytes=40)
    assert memo.get("holder")[0] is shared and memo.nbytes == 40
    memo.put("holder", np.zeros(2))
    assert memo.nbytes == 16


def test_entry_bound_holds_without_a_byte_budget():
    memo = LRUMemo(2)
    for key in "abc":
        memo.put(key, np.zeros(1000))
    assert len(memo) == 2 and memo.evictions == 1 and memo.nbytes == 0


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
