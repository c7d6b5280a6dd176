"""The CLI-free core API: requests, assembly, pipeline, LRU cache.

The load-bearing contracts:

* ``PredictionRequest`` round-trips through JSON losslessly and rejects
  malformed payloads (the service's wire format depends on both).
* ``request_key`` is stable across processes (content-addressed store
  keys must never drift) and mode-separated.
* ``LRUResultCache`` counts hits/misses/evictions correctly across its
  two tiers.
"""

from __future__ import annotations

import importlib
import json

import pytest

from repro.perturb import parse_perturb
from repro.core import (
    ClusterSpec,
    DynamicSpec,
    LRUResultCache,
    PredictionRequest,
    PredictionResult,
    assemble,
    as_deck_size,
    csv_ints,
    csv_strings,
    is_weak_deck,
    measure,
    parse_deck,
    predict,
    request_key,
    weak_cells_per_rank,
)

# ------------------------------------------------------------------- parsing


def test_csv_helpers():
    assert csv_strings(" a, b ,,c ") == ("a", "b", "c")
    assert csv_ints("1, 2,4") == (1, 2, 4)


def test_weak_deck_spec():
    assert is_weak_deck("weak:8192")
    assert not is_weak_deck("small")
    assert weak_cells_per_rank("weak:8192.0") == 8192.0
    with pytest.raises(ValueError):
        weak_cells_per_rank("weak:nope")


def test_as_deck_size_rejects_unknown():
    assert as_deck_size("16x8") == (16, 8)
    with pytest.raises(ValueError, match="unknown deck"):
        as_deck_size("enormous")


def test_parse_deck_named_and_custom():
    assert parse_deck("small").name == "small"
    deck = parse_deck("16x8")
    assert (deck.mesh.nx, deck.mesh.ny) == (16, 8)


# ------------------------------------------------------------------ requests


def test_request_json_round_trip():
    request = PredictionRequest(
        deck="16x8",
        ranks=8,
        cluster=ClusterSpec(speed=1.5, smp=True, intra_send_overhead=5e-7),
        partition_method="rcb",
        seed=3,
        placement="round-robin",
        dynamic=DynamicSpec(policy="every:4", burn_multiplier=2.0),
        models=("mesh-specific", "homogeneous"),
        max_side=32,
        iterations=5,
        warmup=2,
    )
    clone = PredictionRequest.from_json(request.to_json())
    assert clone == request
    # Canonical JSON identity too, not just equality.
    assert clone.to_json() == request.to_json()


def test_request_dict_round_trip_defaults():
    request = PredictionRequest()
    assert PredictionRequest.from_dict(request.to_dict()) == request


def test_request_rejects_unknown_keys():
    payload = PredictionRequest().to_dict()
    payload["typo"] = 1
    with pytest.raises(ValueError, match="unknown"):
        PredictionRequest.from_dict(payload)


def test_request_rejects_unknown_model():
    with pytest.raises(ValueError, match="unknown model"):
        PredictionRequest(models=("nope",))


def test_request_placement_requires_smp():
    with pytest.raises(ValueError, match="SMP"):
        PredictionRequest(placement="round-robin")


@pytest.mark.parametrize("strategy", ["bogus", "random:abc", "random:-1"])
def test_request_rejects_a_bad_placement_strategy(strategy):
    with pytest.raises(ValueError, match="placement"):
        PredictionRequest(cluster=ClusterSpec(smp=True), placement=strategy)


def test_request_random_placement_needs_a_non_negative_seed():
    with pytest.raises(ValueError, match="non-negative seed"):
        PredictionRequest(cluster=ClusterSpec(smp=True), placement="random", seed=-1)
    PredictionRequest(cluster=ClusterSpec(smp=True), placement="random:2", seed=-1)


def test_weak_request_constraints():
    with pytest.raises(ValueError):
        PredictionRequest(deck="weak:64", models=("homogeneous",))
    ok = PredictionRequest(deck="weak:64", ranks=64, models=("sparse",))
    assert is_weak_deck(ok.deck)
    with pytest.raises(ValueError, match="cannot be measured"):
        measure(ok)


def test_result_payload_round_trip():
    request = PredictionRequest(deck="16x8", ranks=4, max_side=16)
    result = predict(request)
    clone = PredictionResult.from_payload(result.to_payload())
    assert clone.request == request
    assert clone.predicted == result.predicted
    assert clone.phases == result.phases
    # IEEE doubles survive the JSON wire format exactly.
    wire = json.loads(json.dumps(result.to_payload()))
    assert PredictionResult.from_payload(wire).predicted == result.predicted


# ---------------------------------------------------------------------- keys


def test_request_key_stable_and_mode_separated():
    request = PredictionRequest(deck="16x8", ranks=4, max_side=16)
    assert request_key(request) == request_key(
        PredictionRequest.from_json(request.to_json())
    )
    assert request_key(request, mode="predict") != request_key(
        request, mode="measure"
    )
    assert request_key(request) != request_key(
        PredictionRequest(deck="16x8", ranks=8, max_side=16)
    )


# ------------------------------------------------------------------ pipeline


def test_predict_smp_placement_runs():
    request = PredictionRequest(
        deck="16x8",
        ranks=4,
        cluster=ClusterSpec(smp=True),
        placement="round-robin",
        max_side=16,
    )
    result = predict(request)
    assert set(result.predicted) == {"homogeneous", "heterogeneous"}
    assert all(v > 0 for v in result.predicted.values())


def test_weak_request_prices_sparse_model_only():
    result = predict(
        PredictionRequest(deck="weak:64", ranks=256, models=("sparse",))
    )
    assert result.measured is None
    assert result.predicted["sparse"] > 0
    assert result.meta["links"] > 0


def test_assemble_exposes_built_objects():
    asm = assemble(PredictionRequest(deck="16x8", ranks=4, max_side=16))
    assert asm.deck.num_cells == 16 * 8
    assert asm.census is not None
    assert asm.table is not None


# ----------------------------------------------------------------- LRU cache


class _DictStore:
    """Duck-typed stand-in for the on-disk result store."""

    def __init__(self):
        self.data = {}

    def get(self, key, default=None):
        return self.data.get(key, default)

    def put(self, key, payload):
        self.data[key] = payload
        return key


def test_lru_counts_hits_and_misses():
    cache = LRUResultCache(store=None, max_entries=2)
    assert cache.get("a") is None
    cache.put("a", {"v": 1})
    assert cache.get("a") == {"v": 1}
    stats = cache.stats()
    assert stats["hits_memory"] == 1
    assert stats["misses"] == 1
    assert stats["lookups"] == 2


def test_lru_evicts_least_recently_used():
    cache = LRUResultCache(store=None, max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a"
    cache.put("c", 3)  # evicts "b"
    assert "b" not in cache
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.stats()["evictions"] == 1


def test_lru_store_tier_write_through_and_promotion():
    store = _DictStore()
    cache = LRUResultCache(store=store, max_entries=4)
    cache.put("k", {"v": 7})
    assert store.data["k"] == {"v": 7}  # write-through

    fresh = LRUResultCache(store=store, max_entries=4)
    assert fresh.get("k") == {"v": 7}  # store tier
    assert fresh.stats()["hits_store"] == 1
    assert fresh.get("k") == {"v": 7}  # promoted to memory
    assert fresh.stats()["hits_memory"] == 1


# ------------------------------------------------------- per-process memos


def test_faces_memo_evicts_lru_and_recomputes_bitwise():
    import dataclasses

    from repro.mesh import build_deck

    assemble_mod = importlib.import_module("repro.core.assemble")

    memo = assemble_mod._FACES_MEMO
    memo.clear()
    try:
        decks = [build_deck((4, 2 + i)) for i in range(memo.max_entries + 1)]
        first = assemble_mod.faces_for(decks[0])
        second = assemble_mod.faces_for(decks[1])
        for deck in decks[2:-1]:
            assemble_mod.faces_for(deck)
        assert assemble_mod.faces_for(decks[0]) is first  # refresh decks[0]
        assemble_mod.faces_for(decks[-1])  # overfill: evicts decks[1]
        assert len(memo) == memo.max_entries
        assert ("structured", 4, 2) in memo
        assert ("structured", 4, 3) not in memo
        again = assemble_mod.faces_for(decks[1])
        assert again is not second
        for field in dataclasses.fields(second):
            old, new = getattr(second, field.name), getattr(again, field.name)
            assert (old.dtype, old.shape) == (new.dtype, new.shape)
            assert old.tobytes() == new.tobytes()
    finally:
        memo.clear()


def test_faces_memo_evicts_past_its_byte_budget(monkeypatch):
    import dataclasses

    from repro.mesh import build_deck, build_face_table
    from repro.util.lru import array_bytes

    assemble_mod = importlib.import_module("repro.core.assemble")

    memo = assemble_mod._FACES_MEMO
    # Room for the large deck's face table (75.1 MiB) and the medium one's.
    assert memo.max_bytes == assemble_mod._FACES_MAX_BYTES >= 94 * 2**20
    decks = [build_deck((16, 8 * (i + 1))) for i in range(3)]
    sizes = [array_bytes(build_face_table(deck.mesh)) for deck in decks]
    memo.clear()
    # Scaled down to the two larger tables.
    monkeypatch.setattr(memo, "max_bytes", sizes[1] + sizes[2])
    try:
        first = assemble_mod.faces_for(decks[0])
        assemble_mod.faces_for(decks[1])
        assemble_mod.faces_for(decks[2])  # past the budget: evicts decks[0]
        assert ("structured", 16, 8) not in memo
        assert len(memo) == 2
        assert memo.nbytes <= memo.max_bytes
        again = assemble_mod.faces_for(decks[0])
        assert again is not first
        for field in dataclasses.fields(first):
            old, new = getattr(first, field.name), getattr(again, field.name)
            assert (old.dtype, old.shape) == (new.dtype, new.shape)
            assert old.tobytes() == new.tobytes()
        assert ("structured", 16, 16) not in memo  # now the least recent
        assert memo.nbytes <= memo.max_bytes
    finally:
        memo.clear()


def test_process_memos_are_bounded():
    from repro.partition import dynamic

    assemble_mod = importlib.import_module("repro.core.assemble")

    for memo in (
        assemble_mod._FACES_MEMO,
        assemble_mod._MESH_MEMO,
        assemble_mod._TABLE_MEMO,
        assemble_mod._FITTED_MEMO,
        dynamic._REPARTITION_MEMO,
    ):
        assert memo.max_entries >= 8  # far above one process's decks/machines
        assert hasattr(memo, "clear")


@pytest.fixture()
def cold_mesh_memo():
    """The mesh-side memo, empty before and after the test."""
    memo = importlib.import_module("repro.core.assemble")._MESH_MEMO
    memo.clear()
    yield memo
    memo.clear()


def test_mesh_memo_hit_returns_the_same_objects(cold_mesh_memo):
    assemble_mod = importlib.import_module("repro.core.assemble")

    request = PredictionRequest(deck="16x8", ranks=4, max_side=16)
    deck, faces, partition, census = assemble_mod.mesh_side(request)
    again = assemble_mod.mesh_side(request)
    assert all(x is y for x, y in zip(again, (deck, faces, partition, census)))
    asm = assemble(request)
    assert (asm.deck, asm.partition, asm.census) == (deck, partition, census)
    assert asm.census is census
    # Other ranks of the same deck share its deck object, not its partition.
    other = assemble_mod.mesh_side(PredictionRequest(deck="16x8", ranks=2))
    assert other[0] is deck
    assert other[2] is not partition
    key = ("partition", (16, 8), 4, request.partition_method, request.seed)
    assert key in cold_mesh_memo
    assert ("deck", (16, 8)) in cold_mesh_memo


def test_mesh_memo_arrays_are_read_only(cold_mesh_memo):
    assemble_mod = importlib.import_module("repro.core.assemble")

    deck, _, partition, census = assemble_mod.mesh_side(
        PredictionRequest(deck="16x8", ranks=4)
    )
    for array in (
        deck.cell_material, deck.mesh.node_x, deck.mesh.cell_nodes,
        partition.cell_rank, census.be_faces, census.gn_local,
        census.cell_profiles, census.profile_of_rank,
    ):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


@pytest.mark.parametrize(
    "request_",
    [
        PredictionRequest(deck="16x8", ranks=4, max_side=16),
        PredictionRequest(
            deck="16x8", ranks=4, max_side=16, models=(),
            dynamic=DynamicSpec(policy="every:2", iterations=5, warmup=1),
            perturb=parse_perturb("noise:0.05+straggler:0.2x3+churn:0.5+fail:1@2x0.01"),
        ),
        PredictionRequest(
            deck="16x8", ranks=4, max_side=16,
            cluster=ClusterSpec(smp=True), placement="comm-aware",
        ),
    ],
    ids=["static", "dynamic-perturbed", "smp-comm-aware"],
)
def test_warm_mesh_memo_answers_equal_cold(cold_mesh_memo, request_):
    cold = measure(request_)
    assert len(cold_mesh_memo) > 0
    warm = measure(request_)
    assert warm == cold
    cold_mesh_memo.clear()
    assert measure(request_) == cold


def _smp_request(placement="comm-aware", seed=1, **cluster):
    return PredictionRequest(
        deck="16x8", ranks=8, max_side=16, seed=seed,
        cluster=ClusterSpec(smp=True, **cluster), placement=placement,
    )


def test_placement_memo_hit_returns_the_same_placement(cold_mesh_memo):
    first = assemble(_smp_request()).cluster.hierarchy.placement
    again = assemble(_smp_request()).cluster.hierarchy.placement
    assert again is first
    with pytest.raises(ValueError, match="read-only"):
        first.node_of_rank[0] = first.node_of_rank[0]


def test_placement_memo_misses_only_on_a_new_key(cold_mesh_memo, monkeypatch):
    import repro.placement

    calls = []
    make_placement = repro.placement.make_placement

    def counting(*args, **kwargs):
        calls.append(args[0])
        return make_placement(*args, **kwargs)

    monkeypatch.setattr(repro.placement, "make_placement", counting)
    requests = [
        _smp_request(),
        _smp_request("block"),
        _smp_request("random:3"),
        _smp_request("random:4"),
        _smp_request(seed=2),
        _smp_request(ranks_per_node=2),
        _smp_request(intra_latency=1e-6),
    ]
    for request in requests:
        assemble(request)
    assert len(calls) == len(requests)
    for request in requests:
        assemble(request)
    assert len(calls) == len(requests)
    # One deck, its partitions under seeds 1 and 2, one placement each.
    assert len(cold_mesh_memo) == 3 + len(requests)


@pytest.mark.parametrize("strategy", ["block", "round-robin", "random:3", "comm-aware"])
def test_warm_placement_answers_equal_cold(cold_mesh_memo, strategy):
    request = _smp_request(strategy)
    cold = measure(request).to_payload()
    assert measure(request).to_payload() == cold
