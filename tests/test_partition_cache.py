"""Unit tests for the partition disk cache."""

import gc
import warnings

import numpy as np
import pytest

from repro.mesh import build_deck
from repro.partition import cached_partition
from repro.partition import cache as cache_mod


@pytest.fixture()
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


class TestCachedPartition:
    def test_roundtrip(self, tmp_cache):
        deck = build_deck((16, 8))
        p1 = cached_partition(deck, 4, method="rcb")
        files = list((tmp_cache / "partitions").glob("*.npz"))
        assert len(files) == 1
        p2 = cached_partition(deck, 4, method="rcb")
        assert np.array_equal(p1.cell_rank, p2.cell_rank)
        assert p2.method == "rcb"

    def test_distinct_keys(self, tmp_cache):
        deck = build_deck((16, 8))
        cached_partition(deck, 2, method="rcb")
        cached_partition(deck, 4, method="rcb")
        cached_partition(deck, 4, method="block")
        files = list((tmp_cache / "partitions").glob("*.npz"))
        assert len(files) == 3

    def test_bypass_cache(self, tmp_cache):
        deck = build_deck((16, 8))
        p1 = cached_partition(deck, 4, method="multilevel", seed=3)
        p2 = cached_partition(deck, 4, method="multilevel", seed=3, use_cache=False)
        assert np.array_equal(p1.cell_rank, p2.cell_rank)

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "short", "range"])
    def test_unreadable_or_mismatched_file_is_a_miss(self, tmp_cache, damage):
        deck = build_deck((16, 8))
        expected = cached_partition(deck, 4, method="rcb")
        (path,) = (tmp_cache / "partitions").glob("*.npz")
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:40])
        elif damage == "garbage":
            path.write_bytes(b"\x00not a zip archive\xff" * 8)
        elif damage == "short":
            np.savez_compressed(path, cell_rank=np.zeros(5, np.int64), method="rcb")
        else:
            cell_rank = expected.cell_rank + 4  # every rank id out of range
            np.savez_compressed(path, cell_rank=cell_rank, method="rcb")
        damaged = path.read_bytes()
        unreadable = cache_mod.unreadable_count()
        again = cached_partition(deck, 4, method="rcb")
        assert np.array_equal(again.cell_rank, expected.cell_rank)
        assert again.method == "rcb"
        assert cache_mod.unreadable_count() == unreadable + 1
        # The damaged file is kept aside, byte for byte ...
        quarantined = path.with_name(f"{path.name}.unreadable")
        assert quarantined.read_bytes() == damaged
        # ... and the miss wrote a fresh file that loads cleanly.
        with np.load(path) as data:
            assert np.array_equal(data["cell_rank"], expected.cell_rank)

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_unreadable_file_leaves_no_open_handle(self, tmp_cache, damage):
        deck = build_deck((16, 8))
        cached_partition(deck, 4, method="rcb")
        (path,) = (tmp_cache / "partitions").glob("*.npz")
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:40])
        else:
            path.write_bytes(b"\x00not a zip archive\xff" * 8)
        # An unclosed handle warns when it is finalised, where an "error"
        # filter could only print; record every ResourceWarning instead
        # and fail on any.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert cache_mod._load_cached(path, deck, 4) is None
            gc.collect()
        leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks

    def test_unknown_method(self, tmp_cache):
        deck = build_deck((16, 8))
        with pytest.raises(ValueError, match="unknown partition method"):
            cached_partition(deck, 4, method="voodoo")

    def test_env_override_respected(self, tmp_cache):
        assert str(cache_mod.cache_dir()).startswith(str(tmp_cache))
