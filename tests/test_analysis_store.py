"""Unit tests for the content-addressed result store."""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.analysis.store import ResultStore, prediction_store
from repro.core.cache import LRUResultCache
from repro.mesh import build_deck
from repro.util import stable_hash


@pytest.fixture()
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


class TestStableHash:
    def test_content_equality(self):
        a = {"deck": build_deck((16, 8)), "ranks": 4}
        b = {"ranks": 4, "deck": build_deck((16, 8))}
        assert stable_hash(a) == stable_hash(b)

    def test_distinguishes_parameters(self):
        deck = build_deck((16, 8))
        base = stable_hash({"deck": deck, "ranks": 4, "seed": 1})
        assert base != stable_hash({"deck": deck, "ranks": 8, "seed": 1})
        assert base != stable_hash({"deck": deck, "ranks": 4, "seed": 2})
        assert base != stable_hash({"deck": build_deck((16, 16)), "ranks": 4, "seed": 1})

    def test_type_tags_prevent_collisions(self):
        assert stable_hash("12") != stable_hash(12)
        assert stable_hash((1, 2)) != stable_hash("12")
        assert stable_hash(np.array([1.0])) != stable_hash(1.0)
        assert stable_hash([1, [2, 3]]) != stable_hash([[1, 2], 3])

    def test_array_content_and_shape(self):
        flat = np.arange(6, dtype=np.float64)
        assert stable_hash(flat) == stable_hash(flat.copy())
        assert stable_hash(flat) != stable_hash(flat.reshape(2, 3))
        assert stable_hash(flat) != stable_hash(flat.astype(np.int64))

    def test_rejects_unhashable_types(self):
        with pytest.raises(TypeError, match="stable_hash"):
            stable_hash(object())


class TestResultStore:
    def test_roundtrip_and_contains(self, tmp_cache):
        store = prediction_store()
        key = stable_hash({"x": 1})
        assert key not in store
        assert store.get(key) is None
        store.put(key, {"measured": 0.125, "predicted": {"homogeneous": 0.1}})
        assert key in store
        assert store.get(key) == {"measured": 0.125, "predicted": {"homogeneous": 0.1}}
        assert store.keys() == [key]

    def test_float_roundtrip_is_exact(self, tmp_cache):
        store = prediction_store()
        value = {"measured": 0.1 + 0.2, "tiny": 5e-324, "big": 1.7976931348623157e308}
        store.put("k", value)
        assert store.get("k") == value

    def test_clear_is_scoped_to_namespace(self, tmp_cache):
        store = prediction_store()
        other = ResultStore(namespace="other")
        store.put("a", 1)
        store.put("b", 2)
        store.put("kept", 4)
        other.put("a", 3)
        # Only the given keys go; a key that was never stored is not counted.
        assert store.clear(["a", "b", "absent"]) == 2
        assert store.keys() == ["kept"]
        assert other.get("a") == 3

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda text: text[: len(text) // 2], id="truncated-json"),
            pytest.param(lambda text: "\udcff\x00garbage", id="garbage-bytes"),
        ],
    )
    def test_unreadable_artifact_is_a_miss_then_replaced(self, tmp_cache, damage):
        store = prediction_store()
        value = {"measured": 0.125, "predicted": {"homogeneous": 0.1}}
        path = store.put("k", value)
        text = path.read_text(encoding="utf-8")
        path.write_bytes(damage(text).encode("utf-8", "surrogateescape"))
        assert store.get("k") is None
        assert store.get("k", "miss") == "miss"
        assert "k" not in store
        store.put("k", value)
        assert store.get("k") == value

    def test_unreadable_artifact_is_counted_once(self, tmp_cache):
        store = prediction_store()
        value = {"measured": 0.125}
        path = store.put("k", value)
        path.write_text(path.read_text(encoding="utf-8")[:5], encoding="utf-8")
        cache = LRUResultCache(store=store)
        assert cache.get("k") is None
        assert store.get("absent") is None  # a plain miss is not counted
        stats = cache.stats()
        assert (stats["misses"], stats["store_unreadable"]) == (1, 1)
        cache.put("k", value)
        assert store.get("k") == value
        assert store.unreadable == 1

    def test_unreadable_artifact_is_quarantined(self, tmp_cache):
        store = prediction_store()
        store.put("kept", {"measured": 0.5})
        path = store.put("k", {"measured": 0.125})
        damaged = b'{"measured": 0.1'
        path.write_bytes(damaged)
        assert store.get("k") is None
        quarantined = path.with_name("k.json.unreadable")
        assert quarantined.read_bytes() == damaged
        assert not path.exists()
        assert store.keys() == ["kept"] and len(store) == 1
        # The next put stores a fresh artifact and leaves the evidence alone.
        store.put("k", {"measured": 0.25})
        assert store.get("k") == {"measured": 0.25}
        assert quarantined.read_bytes() == damaged
        assert store.keys() == ["k", "kept"] and store.unreadable == 1

    def test_invalid_namespace_rejected(self):
        with pytest.raises(ValueError, match="namespace"):
            ResultStore(namespace="../escape")

    def test_env_override_respected(self, tmp_cache):
        assert str(prediction_store().directory).startswith(str(tmp_cache))


def _hash_reference_payload(_):
    """Executed in a worker process: hash a payload built from scratch."""
    from repro.analysis.runner import SweepTask
    from repro.core import PredictionRequest
    from repro.mesh import build_deck

    task = SweepTask(
        request=PredictionRequest(
            deck="16x8", ranks=4, models=("homogeneous",), max_side=4
        ),
        deck=build_deck((16, 8)),
    )
    return task.store_key()


class TestCrossProcessStability:
    def test_store_keys_stable_across_processes(self):
        """The resumability contract: a worker process rebuilding the same
        parameters derives the same key the parent computed."""
        local = _hash_reference_payload(None)
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote = list(pool.map(_hash_reference_payload, range(2)))
        assert remote == [local, local]
