"""Static jobs are planned once per partition and priced per request.

``core.assemble.static_result`` memoises a static job's engine structure
under its mesh-side fields and iteration count: requests that differ only
in the machine lower the job once, and every answer equals, bitwise, the
one a process with empty memos computes.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.core import ClusterSpec, PredictionRequest, assemble, measure
from repro.hydro.driver import measure_iteration_time
from repro.hydro.phases import KrakProgram
from repro.util.lru import LRUMemo, array_bytes

assemble_mod = importlib.import_module("repro.core.assemble")

MODELS = ("homogeneous", "mesh-specific")


def medium16(**fields) -> PredictionRequest:
    return PredictionRequest(deck="medium", ranks=16, seed=1, models=MODELS, **fields)


SMP = ClusterSpec(smp=True)

#: Request pairs that differ only in the machine: each pair shares one
#: job structure.
PAIRS = {
    "speed": (medium16(), medium16(cluster=ClusterSpec(speed=1.7))),
    "intra_latency": (
        medium16(cluster=SMP, placement="comm-aware"),
        medium16(cluster=ClusterSpec(smp=True, intra_latency=9e-6), placement="comm-aware"),
    ),
    "flat_and_smp": (medium16(), medium16(cluster=SMP, placement="comm-aware")),
}


@pytest.fixture(scope="module", autouse=True)
def cache_dir(tmp_path_factory):
    """One partition cache for the module: medium/16 is partitioned once."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        yield
    clear_memos()


def clear_memos() -> None:
    for name in ("_MESH_MEMO", "_FACES_MEMO", "_TABLE_MEMO", "_FITTED_MEMO"):
        getattr(assemble_mod, name).clear()


@pytest.fixture()
def lowerings(monkeypatch):
    """The rank count of every ``KrakProgram.lower_into`` call."""
    calls = []
    original = KrakProgram.lower_into

    def counting(self, writer):
        calls.append(self.num_ranks)
        return original(self, writer)

    monkeypatch.setattr(KrakProgram, "lower_into", counting)
    return calls


def job_key(request: PredictionRequest) -> tuple:
    return ("job", *assemble_mod._mesh_key(request), request.iterations)


def arrays_in(value):
    """Every array ``value`` holds, through tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)


@pytest.mark.parametrize("pair", PAIRS)
def test_machines_share_one_structure_bitwise(lowerings, pair):
    first, second = PAIRS[pair]
    clear_memos()
    warm = [measure(first).to_payload(), measure(second).to_payload()]
    assert lowerings == [16]
    assert job_key(first) == job_key(second)
    assert warm[0]["measured"] != warm[1]["measured"]  # the machines differ
    for request, payload in zip((first, second), warm):
        clear_memos()
        assert measure(request).to_payload() == payload
    assert lowerings == [16, 16, 16]


def test_memo_hit_equals_the_unmemoised_driver():
    request = PAIRS["flat_and_smp"][1]
    clear_memos()
    measure(request)
    asm = assemble(request)
    assert job_key(request) in assemble_mod._MESH_MEMO
    hit = measure(request).measured
    direct = measure_iteration_time(
        asm.deck, asm.partition, cluster=asm.cluster, iterations=request.iterations,
        warmup=request.warmup, faces=asm.faces, census=asm.census,
    ).seconds
    assert hit.hex() == direct.hex()


def test_memoised_structure_is_read_only_and_never_aliased():
    request = PAIRS["flat_and_smp"][1]
    clear_memos()
    asm = assemble(request)
    results = [assemble_mod.static_result(request, asm)]
    structure = assemble_mod._MESH_MEMO.get(job_key(request))
    results.append(assemble_mod.static_result(request, asm))  # a memo hit
    held = list(arrays_in(structure))
    assert len(held) > 100 and structure.plan is not None
    assert not any(array.flags.writeable for array in held)
    with pytest.raises(ValueError):
        structure.farg[0] = 1.0
    for result in results:
        trace = result.trace
        produced = [result.final_clocks, trace.compute, trace.comm]
        for marks in (trace.iteration_starts, trace._compute_at_mark, trace._comm_at_mark):
            produced.extend(marks.values())
        for out in produced:
            assert not any(np.may_share_memory(out, array) for array in held)


def test_structure_larger_than_the_budget_is_used_but_not_kept(monkeypatch, lowerings):
    request = PredictionRequest(deck="64x32", ranks=16, seed=1, models=MODELS)
    clear_memos()
    first = measure(request).to_payload()
    size = array_bytes(assemble_mod._MESH_MEMO.get(job_key(request)))
    monkeypatch.setattr(assemble_mod, "_MESH_MEMO", LRUMemo(16, max_bytes=size - 1))
    assert measure(request).to_payload() == first
    assert job_key(request) not in assemble_mod._MESH_MEMO
    assert ("partition", *assemble_mod._mesh_key(request)) in assemble_mod._MESH_MEMO
    assert measure(request).to_payload() == first
    assert lowerings == [16, 16, 16]


def test_deck_larger_than_the_budget_lives_in_its_partition_entry(monkeypatch):
    request = PredictionRequest(deck="64x32", ranks=16, seed=1, models=MODELS)
    clear_memos()
    first = measure(request).to_payload()
    deck_bytes = array_bytes(assemble_mod._MESH_MEMO.get(("deck", (64, 32))))
    budget = LRUMemo(16, max_bytes=deck_bytes - 1)
    monkeypatch.setattr(assemble_mod, "_MESH_MEMO", budget)
    built = []
    original = assemble_mod.build_deck

    def counting(spec):
        built.append(spec)
        return original(spec)

    monkeypatch.setattr(assemble_mod, "build_deck", counting)
    for _ in range(2):
        assert measure(request).to_payload() == first
    assert built == [(64, 32)]
    assert ("deck", (64, 32)) not in budget
    # The partition entry holds the deck but is charged only its own arrays.
    assert 0 < budget.nbytes < deck_bytes


def test_dynamic_and_perturbed_requests_build_fresh(lowerings):
    from repro.core import DynamicSpec
    from repro.perturb import parse_perturb

    clear_memos()
    base = PredictionRequest(deck="16x8", ranks=4, seed=1, models=MODELS)
    perturbed = PredictionRequest(
        deck="16x8", ranks=4, seed=1, models=MODELS,
        perturb=parse_perturb("noise:0.1+seed:3"),
    )
    dynamic = PredictionRequest(
        deck="16x8", ranks=4, seed=1, models=MODELS,
        dynamic=DynamicSpec(policy="never", iterations=3, warmup=1),
    )
    for request in (perturbed, perturbed, dynamic, dynamic):
        measure(request)
    assert lowerings == [4, 4, 4, 4]
    assert job_key(perturbed) == job_key(base)
    assert job_key(base) not in assemble_mod._MESH_MEMO
    measure(base)
    measure(base)
    assert lowerings == [4, 4, 4, 4, 4]
    assert job_key(base) in assemble_mod._MESH_MEMO
