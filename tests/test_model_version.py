"""Fault injection: a cache entry stored by another model version is a miss.

Every result key — predictions and sweep points (``request_key``, which
``SweepTask.store_key`` returns) and partition files — carries
:data:`repro.util.artifacts.MODEL_VERSION`.  Each test writes a wrong
answer under the key the same code derives at another version (1 is what
every key carried before the salt, so it is the key a stale cache dir
holds), then checks that the current code neither serves nor reports it.
"""

from __future__ import annotations

from importlib import import_module

import numpy as np
import pytest

from repro.analysis import ResultStore, SweepSpec, run_sweep, sweep_status
from repro.core.cache import LRUResultCache
from repro.core.request import PredictionRequest, PredictionResult
from repro.mesh import build_deck
from repro.partition import cached_partition
from repro.util.artifacts import MODEL_VERSION

# The modules themselves: their packages re-export functions of the same name.
pipeline = import_module("repro.core.pipeline")
partition_cache = import_module("repro.partition.cache")

OTHER_VERSIONS = (1, MODEL_VERSION + 1)


@pytest.fixture(autouse=True)
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def at_version(monkeypatch, version, fn, *args):
    """``fn(*args)`` with every keyed module salted by ``version``."""
    with monkeypatch.context() as patch:
        for module in (pipeline, partition_cache):
            patch.setattr(module, "MODEL_VERSION", version)
        return fn(*args)


@pytest.mark.parametrize("version", OTHER_VERSIONS)
def test_stale_prediction_is_a_miss(tmp_cache, monkeypatch, version):
    request = PredictionRequest(deck="16x8", ranks=4, max_side=16)
    stale_key = at_version(monkeypatch, version, pipeline.request_key, request)
    store = ResultStore(namespace="predictions", root=tmp_cache)
    store.put(stale_key, {"stale": True})
    cache = LRUResultCache(store)
    assert cache.get(pipeline.request_key(request)) is None
    assert pipeline.request_key(request) != stale_key


@pytest.mark.parametrize("version", OTHER_VERSIONS)
def test_stale_sweep_point_is_a_miss(tmp_cache, monkeypatch, version):
    spec = SweepSpec(
        decks=("16x8",), rank_counts=(2,), models=("homogeneous",), max_side=16
    )
    (task,) = spec.tasks()
    stale_key = at_version(monkeypatch, version, task.store_key)
    store = ResultStore(namespace="predictions", root=tmp_cache)
    store.put(stale_key, {"stale": True})
    assert sweep_status(spec, store).pending_keys == (task.store_key(),)
    (outcome,) = run_sweep(spec, store=store)
    assert not outcome.cached
    stored = PredictionResult.from_payload(store.get(task.store_key()))
    assert stored.measured == outcome.point.measured


@pytest.mark.parametrize("version", OTHER_VERSIONS)
def test_stale_partition_file_is_a_miss(tmp_cache, monkeypatch, version):
    deck = build_deck((16, 8))
    fresh = cached_partition(deck, 4, method="rcb", use_cache=False)
    stale_name = at_version(
        monkeypatch, version, partition_cache._cache_key, deck, 4, "rcb", 0
    )
    directory = partition_cache.cache_dir()
    for path in directory.glob("*.npz"):
        path.unlink()
    wrong = (fresh.cell_rank + 1) % 4
    np.savez_compressed(directory / f"{stale_name}.npz", cell_rank=wrong, method="rcb")
    again = cached_partition(deck, 4, method="rcb")
    assert np.array_equal(again.cell_rank, fresh.cell_rank)
