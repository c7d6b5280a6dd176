"""The external-data surface: trace schema, fitting, replay, core wiring.

The load-bearing guarantee is the round-trip property: a trace the engine
itself generated (known cost table, known network, zero jitter) must fit
back to the generating parameters — network latency/bandwidth to float
precision, replayed phase times within 1e-6 relative — and stay usably
close under multiplicative measurement noise (the Hypothesis variant,
with provable least-squares residual bounds rather than hand-tuned
tolerances).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PredictionRequest, predict
from repro.core.assemble import assemble, fitted_calibration
from repro.machine.cluster import es45_like_cluster
from repro.machine.network import QSNET_LIKE
from repro.trace import (
    TraceDoc,
    TraceFormatError,
    TraceMachine,
    TraceRun,
    default_pingpong_sizes,
    fit_calibration,
    load_trace,
    replay_calibration,
    save_trace,
    synthesize_trace,
)
from repro.util.artifacts import stable_hash


@pytest.fixture(scope="module")
def quiet_doc():
    """A noise-free synthetic trace: the round-trip tests' shared input."""
    return synthesize_trace(
        deck="16x8",
        ranks=(2, 4),
        cluster=es45_like_cluster(jitter_frac=0.0),
        iterations=4,
        warmup=1,
    )


@pytest.fixture(scope="module")
def quiet_calibration(quiet_doc):
    return fit_calibration(quiet_doc)


def _tiny_run(**overrides):
    """A minimal valid TraceRun, with keyword overrides for invalid cases."""
    fields = dict(
        ranks=2,
        iterations=2,
        compute=np.full((2, 2, 3), 1e-3),
        material_cells=np.array([[4.0, 0.0], [0.0, 4.0]]),
    )
    fields.update(overrides)
    return TraceRun(**fields)


class TestSchemaValidation:
    def test_minimal_run_normalises_to_float64(self):
        run = _tiny_run(compute=[[[1, 2, 3]] * 2] * 2)
        assert run.compute.dtype == np.float64
        assert run.num_phases == 3
        assert run.cells_per_rank == 4.0

    def test_rejects_single_iteration(self):
        with pytest.raises(TraceFormatError, match="iterations >= 2"):
            _tiny_run(iterations=1, compute=np.full((1, 2, 3), 1e-3))

    def test_rejects_warmup_outside_window(self):
        with pytest.raises(TraceFormatError, match="warmup"):
            _tiny_run(warmup=2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(TraceFormatError, match="compute"):
            _tiny_run(compute=np.full((2, 3, 3), 1e-3))

    def test_rejects_negative_times(self):
        with pytest.raises(TraceFormatError, match="negative"):
            _tiny_run(compute=np.full((2, 2, 3), -1e-3))

    def test_rejects_non_finite(self):
        bad = np.full((2, 2, 3), 1e-3)
        bad[0, 0, 0] = np.nan
        with pytest.raises(TraceFormatError, match="non-finite"):
            _tiny_run(compute=bad)

    def test_rejects_comm_shape_mismatch(self):
        with pytest.raises(TraceFormatError, match="comm"):
            _tiny_run(comm=np.full((2, 2, 4), 1e-4))

    def test_rejects_wrong_message_count(self):
        with pytest.raises(TraceFormatError, match="messages"):
            _tiny_run(messages=({"count": 1, "bytes": 8.0},))

    def test_doc_rejects_wrong_schema_and_version(self):
        with pytest.raises(TraceFormatError, match="schema"):
            TraceDoc.from_payload({"schema": "other", "version": 1})
        with pytest.raises(TraceFormatError, match="version"):
            TraceDoc.from_payload({"schema": "repro-trace", "version": 99})

    def test_doc_rejects_phase_count_mismatch(self):
        with pytest.raises(TraceFormatError, match="phases"):
            TraceDoc(
                deck="16x8",
                machine=TraceMachine(),
                num_phases=5,
                runs=(_tiny_run(),),
            )

    def test_machine_rejects_descending_breakpoints(self):
        with pytest.raises(TraceFormatError, match="breakpoints"):
            TraceMachine(network_breakpoints=(4096.0, 1024.0))

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(TraceFormatError, match="JSON"):
            load_trace(path)


class TestSerialization:
    def test_json_round_trip_is_exact(self, quiet_doc, tmp_path):
        path = save_trace(quiet_doc, tmp_path / "trace.json")
        loaded = load_trace(path)
        assert loaded.content_key() == quiet_doc.content_key()
        assert loaded.to_payload() == quiet_doc.to_payload()
        for a, b in zip(loaded.runs, quiet_doc.runs):
            assert np.array_equal(a.compute, b.compute)
            assert np.array_equal(a.comm, b.comm)
            assert a.messages == b.messages

    def test_phase_trace_reproduces_steady_windows(self, quiet_doc):
        run = quiet_doc.runs[0]
        trace = run.phase_trace()
        window = trace.window_compute(run.warmup, run.iterations)
        assert np.allclose(
            window / (run.iterations - run.warmup),
            run.steady_compute(),
            rtol=1e-12,
        )
        assert trace.mean_iteration_time(
            run.warmup, run.iterations
        ) == pytest.approx(run.steady_iteration_seconds(), rel=1e-12)


class TestRoundTripProperty:
    """Engine-generated trace → fit → recovered parameters match."""

    def test_network_recovered_to_float_precision(self, quiet_calibration):
        net = quiet_calibration.network
        assert np.allclose(net.latency, QSNET_LIKE.latency, rtol=1e-12)
        assert np.allclose(net.per_byte, QSNET_LIKE.per_byte, rtol=1e-12)
        assert np.array_equal(net.breakpoints, QSNET_LIKE.breakpoints)

    def test_replay_matches_measured_within_1e6(
        self, quiet_doc, quiet_calibration
    ):
        reports = replay_calibration(quiet_doc, quiet_calibration)
        assert len(reports) == len(quiet_doc.runs)
        for report in reports:
            assert abs(report.seconds_error) <= 1e-6
            assert report.max_abs_phase_error <= 1e-6
            assert np.allclose(
                report.rank_compute_replayed,
                report.rank_compute_measured,
                rtol=1e-6,
            )

    def test_fitted_knots_reproduce_measured_rank_times(self, quiet_doc):
        """At each knot, ``counts · per_cell`` equals the measured steady
        time — the documented folding convention of ``fit_cost_table``."""
        calibration = fit_calibration(quiet_doc)
        for run in quiet_doc.runs:
            times = run.steady_compute()
            x = run.cells_per_rank
            for p in range(run.num_phases):
                knot = calibration.table.per_cell_grid(x)[p]
                predicted = run.material_cells @ knot
                assert np.allclose(predicted, times[:, p], rtol=1e-9)


class TestNoiseRobustness:
    """Hypothesis variant: multiplicative noise on the measurements.

    Tolerances are least-squares residual bounds, not tuned constants: the
    true parameters are a feasible point of each fit, so the fitted
    residual cannot exceed the injected noise (in L2), giving
    ``|fitted − true| ≤ (√N + 1) · ε · max|signal|`` pointwise.
    """

    @settings(max_examples=20, deadline=None)
    @given(eps=st.floats(0.0, 0.02), seed=st.integers(0, 2**31 - 1))
    def test_network_fit_degrades_linearly_with_noise(
        self, quiet_doc, eps, seed
    ):
        rng = np.random.default_rng(seed)
        sizes = quiet_doc.pingpong_bytes
        true_seconds = quiet_doc.pingpong_seconds
        noisy = true_seconds * (1.0 + eps * rng.uniform(-1, 1, sizes.shape))
        from repro.perfmodel import fit_network

        net = fit_network(
            sizes, noisy, breakpoints=quiet_doc.machine.network_breakpoints
        )
        bound = 4.0 * eps * true_seconds.max() + 1e-15
        fitted = np.array([float(net.tmsg(s)) for s in sizes])
        assert np.all(np.abs(fitted - true_seconds) <= bound)

    @settings(max_examples=10, deadline=None)
    @given(eps=st.floats(0.0, 0.02), seed=st.integers(0, 2**31 - 1))
    def test_cost_fit_degrades_linearly_with_noise(self, quiet_doc, eps, seed):
        rng = np.random.default_rng(seed)
        runs = []
        for run in quiet_doc.runs:
            noisy = run.compute * (
                1.0 + eps * rng.uniform(-1, 1, run.compute.shape)
            )
            runs.append(dataclasses.replace(run, compute=noisy))
        noisy_doc = dataclasses.replace(quiet_doc, runs=tuple(runs))
        calibration = fit_calibration(noisy_doc)
        for clean, noisy_run in zip(quiet_doc.runs, runs):
            true_times = clean.steady_compute()
            x = clean.cells_per_rank
            sqrt_r = np.sqrt(clean.ranks)
            for p in range(clean.num_phases):
                knot = calibration.table.per_cell_grid(x)[p]
                predicted = clean.material_cells @ knot
                bound = (
                    (sqrt_r + 1.5) * eps * np.abs(true_times[:, p]).max()
                    + 1e-12
                )
                assert np.all(np.abs(predicted - true_times[:, p]) <= bound)


class _DictStore:
    """Minimal get/put mapping standing in for the calibrations store."""

    def __init__(self):
        self.data = {}

    def get(self, key):
        return self.data.get(key)

    def put(self, key, value):
        self.data[key] = json.loads(json.dumps(value))


class TestCoreWiring:
    """The ``calibration`` field on PredictionRequest and assembly."""

    def test_unset_field_is_hash_and_wire_neutral(self):
        request = PredictionRequest(deck="16x8", ranks=4, max_side=16)
        assert "calibration" not in request.to_dict()
        names = [
            f.name
            for f in dataclasses.fields(PredictionRequest)
            if f.name not in PredictionRequest._HASH_OPTIONAL_FIELDS_
        ]
        legacy_type = dataclasses.make_dataclass(
            "PredictionRequest", names, frozen=True
        )
        legacy = legacy_type(**{n: getattr(request, n) for n in names})
        assert stable_hash(request) == stable_hash(legacy)

    def test_set_field_round_trips_and_rekeys(self):
        base = PredictionRequest(deck="16x8", ranks=4, max_side=16)
        pinned = dataclasses.replace(base, calibration="deadbeef")
        assert PredictionRequest.from_dict(pinned.to_dict()) == pinned
        assert stable_hash(pinned) != stable_hash(base)
        assert "cal=deadbeef" in pinned.label()

    def test_assemble_installs_fitted_machine(self, quiet_calibration):
        store = _DictStore()
        key = quiet_calibration.store_key()
        store.put(key, quiet_calibration.to_payload())
        request = PredictionRequest(
            deck="16x8", ranks=4, calibration=key, max_side=16
        )
        assembled = assemble(request, store=store)
        assert np.allclose(
            assembled.cluster.network.latency, quiet_calibration.network.latency
        )
        assert assembled.cluster.send_overhead == quiet_calibration.send_overhead
        knot = assembled.table.curves[0][0]
        assert np.array_equal(
            knot.per_cell, quiet_calibration.table.curves[0][0].per_cell
        )
        # And the pipeline prices it end to end.
        result = predict(request, store=store)
        assert result.predicted["heterogeneous"] > 0

    def test_stored_table_with_mismatched_knots_fails_cleanly(self, quiet_calibration):
        payload = quiet_calibration.to_payload()
        curve = payload["table"]["curves"][3][2]
        curve["cells"] = [2.0 * c for c in curve["cells"]]
        store = _DictStore()
        store.put("mismatched-knots", payload)
        with pytest.raises(ValueError, match=r"phase 3, material 2"):
            fitted_calibration("mismatched-knots", store)

    def test_missing_store_and_missing_key_fail_loudly(self):
        request = PredictionRequest(
            deck="16x8", ranks=4, calibration="nope", max_side=16
        )
        with pytest.raises(ValueError, match="no store"):
            assemble(request, store=None)
        with pytest.raises(KeyError, match="calibrate fit"):
            fitted_calibration("nope", _DictStore())

    def test_rejects_smp_cluster(self, quiet_calibration):
        from repro.core import ClusterSpec

        store = _DictStore()
        key = quiet_calibration.store_key()
        store.put(key, quiet_calibration.to_payload())
        request = PredictionRequest(
            deck="16x8",
            ranks=4,
            calibration=key,
            cluster=ClusterSpec(smp=True),
            max_side=16,
        )
        with pytest.raises(ValueError, match="flat network"):
            assemble(request, store=store)


class TestSynthetic:
    def test_pingpong_ladder_covers_every_segment(self):
        sizes = default_pingpong_sizes(QSNET_LIKE)
        seg = QSNET_LIKE.segment_of(sizes)
        for s in range(QSNET_LIKE.latency.shape[0]):
            assert np.unique(sizes[seg == s]).size >= 2

    def test_rejects_smp_cluster(self):
        cluster = es45_like_cluster(jitter_frac=0.0).with_smp()
        with pytest.raises(ValueError, match="flat cluster"):
            synthesize_trace(deck="16x8", ranks=(2,), cluster=cluster)

    def test_messages_counted_per_rank(self, quiet_doc):
        for run in quiet_doc.runs:
            assert len(run.messages) == run.ranks
            assert all(m["count"] > 0 for m in run.messages)
            assert all(m["bytes"] > 0 for m in run.messages)
