"""The prediction service: wire format, coalescing, caching, shutdown.

Each test runs a real :class:`~repro.service.PredictionServer` on an
ephemeral port in a background thread and talks to it over HTTP — the
same path ``repro serve`` exposes.  The two guarantees the subsystem
advertises are asserted directly: a storm of identical queries simulates
exactly once, and every served number matches :func:`repro.core.measure`
/ :func:`repro.core.predict` within 1e-12 (they are in fact identical —
the payload round-trips IEEE doubles through ``repr``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import socket
import threading

import pytest

from repro.core import (
    LRUResultCache,
    PredictionRequest,
    measure,
    predict,
)
from repro.service import PredictionServer, ServiceClient, ServiceError, run_storm

REQUEST = PredictionRequest(deck="16x8", ranks=4, max_side=16)


@pytest.fixture()
def server():
    """A running ephemeral-port server; torn down via /shutdown."""
    srv = PredictionServer(host="127.0.0.1", port=0, cache=LRUResultCache())
    thread = srv.serve_in_thread()
    yield srv
    if thread.is_alive():
        try:
            ServiceClient(host=srv.host, port=srv.port).shutdown()
        except OSError:
            pass
        thread.join(timeout=30)
    assert not thread.is_alive(), "server did not shut down cleanly"


@pytest.fixture()
def client(server):
    return ServiceClient(host=server.host, port=server.port)


def test_healthz_and_stats(client):
    assert client.healthz()
    stats = client.stats()
    assert stats["service"]["requests"] >= 1
    assert "cache" in stats and "inflight" in stats


def test_truncated_partition_file_is_counted_once_and_replaced(
    tmp_path, monkeypatch, client
):
    """Fault injection: a truncated partition ``.npz`` is a miss, counted
    once in ``/stats`` as ``partition_unreadable``, and replaced by the
    recomputed partition."""
    import importlib

    import numpy as np

    # Each request must reach the disk tier, not the in-process memo.
    reach_disk = importlib.import_module("repro.core.assemble")._MESH_MEMO.clear
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reach_disk()
    first = client.predict(REQUEST)
    (path,) = (tmp_path / "partitions").glob("*.npz")
    with np.load(path) as data:
        cell_rank = data["cell_rank"]
    path.write_bytes(path.read_bytes()[:40])
    before = client.stats()["partition_unreadable"]

    # Same partition, new result keys: each answer needs the partition.
    reach_disk()
    again = client.predict(dataclasses.replace(REQUEST, models=("homogeneous",)))
    assert client.stats()["partition_unreadable"] == before + 1
    with np.load(path) as data:
        assert np.array_equal(data["cell_rank"], cell_rank)
    reach_disk()
    client.predict(dataclasses.replace(REQUEST, models=("heterogeneous",)))
    assert client.stats()["partition_unreadable"] == before + 1
    assert again.predicted["homogeneous"] == first.predicted["homogeneous"]


def test_served_measurement_matches_core_exactly(client):
    direct = measure(REQUEST)
    served, cached = client.measure_detailed(REQUEST)
    assert not cached
    assert served.measured == pytest.approx(direct.measured, rel=1e-12)
    for model, total in direct.predicted.items():
        assert served.predicted[model] == pytest.approx(total, rel=1e-12)
    # Not merely close: the JSON wire format is exact for IEEE doubles.
    assert served.measured == direct.measured
    assert served.predicted == direct.predicted


def test_served_prediction_matches_core_exactly(client):
    direct = predict(REQUEST)
    served = client.predict(REQUEST)
    assert served.measured is None
    assert served.predicted == direct.predicted
    assert served.phases == direct.phases


def test_repeat_query_is_cached(client):
    _, first = client.measure_detailed(REQUEST)
    _, second = client.measure_detailed(REQUEST)
    assert not first
    assert second


def test_identical_storm_simulates_exactly_once(client):
    storm = run_storm(client, [REQUEST] * 12, mode="measure", concurrency=12)
    assert storm.num_computed == 1
    assert storm.num_cached == 11
    assert storm.distinct_payloads() == 1
    assert storm.counters["errors"] == 0


def test_distinct_storm_simulates_each_once(client):
    requests = [
        PredictionRequest(deck="16x8", ranks=ranks, max_side=16)
        for ranks in (2, 4, 8)
    ]
    storm = run_storm(client, requests * 2, mode="predict", concurrency=6)
    assert storm.num_computed == 3
    assert storm.num_cached == 3
    assert storm.distinct_payloads() == 3


def test_predict_and_measure_are_distinct_cache_entries(client):
    predicted, cached_p = client.predict_detailed(REQUEST)
    measured, cached_m = client.measure_detailed(REQUEST)
    assert not cached_p and not cached_m
    assert predicted.measured is None
    assert measured.measured is not None


def test_invalid_request_is_a_400(client):
    with pytest.raises(ServiceError) as err:
        client._call("POST", "/predict", {"deck": "small", "typo": 1})
    assert err.value.status == 400


@pytest.mark.parametrize(
    "knobs",
    [{"dt": 0}, {"burn_multiplier": 0.5}, {"migration_bytes_per_cell": -1}],
    ids=["zero-dt", "burn-below-one", "negative-migration"],
)
def test_invalid_dynamic_spec_is_refused_before_any_work(
    client, monkeypatch, knobs
):
    """The spec's own checks answer 400 before the deck is assembled."""
    import repro.core.pipeline as pipeline

    def assemble(*args, **kwargs):
        raise AssertionError("an invalid request reached assembly")

    monkeypatch.setattr(pipeline, "assemble", assemble)
    body = dict(REQUEST.to_dict(), dynamic=dict({"policy": "never"}, **knobs))
    with pytest.raises(ServiceError) as err:
        client._call("POST", "/measure", body)
    assert err.value.status == 400
    assert err.value.payload["error"].startswith("invalid request: ")


@pytest.mark.parametrize("placement", ["bogus", "random:abc", "random:-1"])
def test_invalid_placement_is_refused_before_any_work(
    client, monkeypatch, placement
):
    """The strategy is parsed with the request: 400 before any partition."""
    import repro.core.pipeline as pipeline

    def assemble(*args, **kwargs):
        raise AssertionError("an invalid request reached assembly")

    monkeypatch.setattr(pipeline, "assemble", assemble)
    body = dict(REQUEST.to_dict(), placement=placement)
    body["cluster"] = dict(body["cluster"], smp=True)
    with pytest.raises(ServiceError) as err:
        client._call("POST", "/measure", body)
    assert err.value.status == 400
    assert err.value.payload["error"].startswith("invalid request: ")
    assert "placement" in err.value.payload["error"]


def _raw_status(server, message: bytes) -> int:
    """Send raw request bytes, close the write side, return the status."""
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(message)
        sock.shutdown(socket.SHUT_WR)
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1])


def test_non_numeric_content_length_is_a_400(server):
    message = b"POST /predict HTTP/1.1\r\nContent-Length: ten\r\n\r\n{}"
    assert _raw_status(server, message) == 400


def test_negative_content_length_is_a_400(server):
    message = b"POST /predict HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}"
    assert _raw_status(server, message) == 400


def test_body_shorter_than_content_length_is_a_400(server):
    message = b"POST /predict HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}"
    assert _raw_status(server, message) == 400
    assert server.counters["errors"] == 0


def test_unknown_route_is_a_404(client):
    with pytest.raises(ServiceError) as err:
        client._call("GET", "/nope")
    assert err.value.status == 404


def test_store_backed_cache_survives_server_restart(tmp_path):
    from repro.analysis.store import ResultStore

    store = ResultStore(namespace="predictions", root=tmp_path)

    def one_server_round() -> tuple:
        srv = PredictionServer(
            host="127.0.0.1", port=0, cache=LRUResultCache(store=store)
        )
        thread = srv.serve_in_thread()
        client = ServiceClient(host=srv.host, port=srv.port)
        result, cached = client.predict_detailed(REQUEST)
        client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
        return result, cached

    first, first_cached = one_server_round()
    second, second_cached = one_server_round()
    assert not first_cached
    assert second_cached  # answered from the on-disk store, no recompute
    assert second.predicted == first.predicted


def test_calibrate_route_fits_stores_and_serves(tmp_path):
    """POST /calibrate ingests a trace, stores the fitted artifact, and a
    follow-up /predict can reference it via the ``calibration`` field."""
    import dataclasses

    from repro.analysis.store import ResultStore
    from repro.machine.cluster import es45_like_cluster
    from repro.trace import synthesize_trace

    doc = synthesize_trace(
        deck="16x8",
        ranks=(2,),
        cluster=es45_like_cluster(jitter_frac=0.0),
        iterations=2,
    )
    store = ResultStore(namespace="calibrations", root=tmp_path)
    srv = PredictionServer(
        host="127.0.0.1", port=0, cache=LRUResultCache(),
        calibration_store=store,
    )
    thread = srv.serve_in_thread()
    client = ServiceClient(host=srv.host, port=srv.port)
    try:
        answer = client.calibrate(doc.to_payload())
        assert answer["stored"]
        assert store.get(answer["key"]) is not None
        assert answer["meta"]["deck"] == "16x8"

        pinned = dataclasses.replace(REQUEST, calibration=answer["key"])
        result = client.predict(pinned)
        assert result.predicted["heterogeneous"] > 0
        # A malformed document is a 400, not a server error.
        with pytest.raises(ServiceError) as err:
            client.calibrate({"schema": "nope"})
        assert err.value.status == 400
    finally:
        client.shutdown()
        thread.join(timeout=30)
    assert not thread.is_alive()


def test_unfittable_trace_is_a_400(server, client):
    """A schema-valid trace with no ping-pong ladder cannot be fitted: the
    client gets a 400 and the server counts no error."""
    from repro.machine.cluster import es45_like_cluster
    from repro.trace import synthesize_trace

    payload = synthesize_trace(
        deck="16x8", ranks=(2,), cluster=es45_like_cluster(jitter_frac=0.0),
        iterations=2,
    ).to_payload()
    payload["pingpong"] = []
    with pytest.raises(ServiceError) as err:
        client.calibrate(payload)
    assert err.value.status == 400
    assert err.value.payload["error"].startswith("invalid trace: ")
    assert server.counters["errors"] == 0


def test_stalled_client_gets_a_408(server, monkeypatch):
    from repro.service import server as server_mod

    monkeypatch.setattr(server_mod, "_READ_DEADLINE_S", 0.2)
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        # The request line only: no headers terminator, no body, no EOF.
        sock.sendall(b"POST /predict HTTP/1.1\r\n")
        status_line = sock.makefile("rb").readline()
    assert int(status_line.split()[1]) == 408
    assert b"Request Timeout" in status_line
    assert server.counters["errors"] == 0


def test_predict_succeeds_under_a_short_read_deadline(client, monkeypatch):
    # Evaluation time is outside the deadline: an evaluation slowed past
    # it still answers 200.
    import time

    from repro.service import server as server_mod

    def slow_predict(request, store=None):
        time.sleep(0.5)
        return predict(request, store=store)

    monkeypatch.setattr(server_mod, "_READ_DEADLINE_S", 0.2)
    monkeypatch.setattr(server_mod, "predict", slow_predict)
    served = client.predict(REQUEST)
    assert served.predicted == predict(REQUEST).predicted


def test_distinct_miss_over_the_inflight_bound_is_a_503(server, monkeypatch):
    """Fault injection: with room for one miss in flight, a second distinct
    miss is refused 503 with ``Retry-After`` while the first computes.  A
    cache hit and a request coalescing onto the first are still answered,
    and the first completes once its evaluation is released."""
    import http.client
    import json
    import time

    from repro.service import server as server_mod

    client = ServiceClient(host=server.host, port=server.port)
    client.measure(REQUEST)  # a cache entry to hit while the slot is full
    release = threading.Event()

    def blocked_predict(request, store=None):
        assert release.wait(timeout=30)
        return predict(request, store=store)

    monkeypatch.setattr(server_mod, "_MAX_INFLIGHT", 1)
    monkeypatch.setattr(server_mod, "predict", blocked_predict)
    answers = {}

    def ask(name):
        answers[name] = client.predict_detailed(REQUEST)

    def wait_for(condition):
        deadline = time.monotonic() + 30
        while not condition(client.stats()):
            assert time.monotonic() < deadline, client.stats()
            time.sleep(0.01)

    first = threading.Thread(target=ask, args=("first",))
    first.start()
    wait_for(lambda stats: stats["inflight"] == 1)
    coalesced = threading.Thread(target=ask, args=("coalesced",))
    coalesced.start()
    wait_for(lambda stats: stats["service"]["coalesced"] == 1)

    other = dataclasses.replace(REQUEST, ranks=8)
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", "/predict", body=other.to_json())
        response = conn.getresponse()
        body = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 503
    assert response.getheader("Retry-After") == "1"
    assert "busy" in body["error"]
    assert client.measure_detailed(REQUEST)[1]  # the hit is answered
    assert client.stats()["service"]["overloaded"] == 1

    release.set()
    first.join(timeout=30)
    coalesced.join(timeout=30)
    result, cached = answers["first"]
    assert not cached
    assert result.predicted == predict(REQUEST).predicted
    assert answers["coalesced"] == (result, True)
    assert client.stats()["inflight"] == 0
    assert not client.predict_detailed(other)[1]  # the slot is free again


def test_sweep_point_is_a_service_cache_hit(tmp_path, monkeypatch):
    """One store: a point ``run_sweep`` wrote is the service's ``measure``
    answer for the same request, cached and identical."""
    from repro.analysis import SweepSpec, prediction_store, run_sweep

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    spec = SweepSpec(decks=("16x8",), rank_counts=(4,), max_side=16)
    (outcome,) = run_sweep(spec, store=prediction_store())
    srv = PredictionServer(cache=LRUResultCache(store=prediction_store()))
    request = outcome.task.request
    payload, cached, key = asyncio.run(srv.answer("measure", request))
    assert cached
    assert key == outcome.task.store_key()
    assert payload == prediction_store().get(key)
    assert payload == measure(request).to_payload()
    assert srv.counters["computed"] == 0


def test_service_answer_counts_in_sweep_status(tmp_path, monkeypatch, capsys):
    """One store: a service ``/measure`` answer is a completed point of
    the sweep grid that contains its request."""
    from repro.analysis import prediction_store
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    srv = PredictionServer(
        host="127.0.0.1", port=0, cache=LRUResultCache(store=prediction_store())
    )
    thread = srv.serve_in_thread()
    client = ServiceClient(host=srv.host, port=srv.port)
    try:
        assert not client.measure_detailed(REQUEST)[1]
    finally:
        client.shutdown()
        thread.join(timeout=30)
    grid = ["--decks", "16x8", "--ranks", "2,4", "--max-side", "16"]
    assert main(["sweep", "status"] + grid) == 0
    out = capsys.readouterr().out
    assert "completed      1" in out
    assert "pending      1" in out
