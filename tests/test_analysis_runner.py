"""Tests for the parallel, resumable sweep engine."""

import dataclasses
import importlib

import numpy as np
import pytest

from repro.analysis import (
    ClusterSpec,
    SweepSpec,
    SweepTask,
    ValidationPoint,
    prediction_store,
    run_points,
    run_sweep,
    sweep_status,
)
from repro.analysis import runner
from repro.core.assemble import calibration_table, faces_for
from repro.core.pipeline import request_key
from repro.core.request import PredictionRequest
from repro.mesh import build_deck, build_face_table


@pytest.fixture(autouse=True)
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture()
def tiny_spec():
    """A three-point grid small enough to simulate in well under a second."""
    return SweepSpec(
        decks=("16x8",),
        rank_counts=(1, 2, 4),
        models=("homogeneous", "heterogeneous"),
        max_side=16,
    )


class TestSweepSpec:
    def test_grid_cardinality_and_order(self, tiny_spec):
        tasks = tiny_spec.tasks()
        assert len(tasks) == tiny_spec.num_points == 3
        assert [t.num_ranks for t in tasks] == [1, 2, 4]

    def test_cartesian_product(self):
        spec = SweepSpec(
            decks=("16x8", "32x16"),
            rank_counts=(2, 4),
            partition_methods=("rcb", "block"),
            models=(),
            seeds=(1, 2),
            max_side=4,
        )
        tasks = spec.tasks()
        assert len(tasks) == spec.num_points == 2 * 2 * 2 * 2
        combos = {
            (t.deck.mesh.nx, t.num_ranks, t.partition_method, t.seed) for t in tasks
        }
        assert len(combos) == 16

    def test_measurement_only_grid_skips_calibration(self, monkeypatch):
        def calibrate(*args, **kwargs):
            raise AssertionError("a measurement-only grid was calibrated")

        # The module: ``repro.core`` re-exports a function named ``assemble``.
        assemble = importlib.import_module("repro.core.assemble")
        monkeypatch.setattr(assemble, "calibration_table", calibrate)
        spec = SweepSpec(decks=("16x8",), rank_counts=(2,), models=())
        (task,) = spec.tasks()
        assert task.models == ()
        assert runner.evaluate_point(task).predicted == {}

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(decks=())

    def test_rejects_unknown_deck(self):
        spec = SweepSpec(decks=("16x8", "enormous"))
        with pytest.raises(ValueError, match="unknown deck"):
            spec.tasks()
        # Status builds nothing, yet refuses the same grid.
        with pytest.raises(ValueError, match="unknown deck"):
            sweep_status(spec, prediction_store())

    def test_figure5_grid(self):
        spec = SweepSpec.figure5(max_ranks=8)
        assert spec.rank_counts == (1, 2, 4, 8)
        assert spec.models == ("homogeneous", "heterogeneous")

    def test_cluster_spec_labels(self):
        assert ClusterSpec().label == "es45x1"
        assert ClusterSpec(speed=2.0, smp=True).label == "es45x2+smp"


class TestFacesMemo:
    def test_unstructured_meshes_keyed_by_topology(self):
        """Two distinct unstructured meshes (nx = ny = 0) with the same cell
        count must not share a face table."""
        deck_a = build_deck((16, 8))
        deck_b = build_deck((8, 16))
        unstructured_a = dataclasses.replace(
            deck_a, mesh=dataclasses.replace(deck_a.mesh, nx=0, ny=0)
        )
        unstructured_b = dataclasses.replace(
            deck_b, mesh=dataclasses.replace(deck_b.mesh, nx=0, ny=0)
        )
        faces_a = faces_for(unstructured_a)
        faces_b = faces_for(unstructured_b)
        assert np.array_equal(
            faces_a.face_nodes, build_face_table(unstructured_a.mesh).face_nodes
        )
        assert np.array_equal(
            faces_b.face_nodes, build_face_table(unstructured_b.mesh).face_nodes
        )
        assert not np.array_equal(faces_a.face_nodes, faces_b.face_nodes)


class TestParallelEqualsSerial:
    def test_point_for_point_identical(self, tiny_spec, tmp_cache):
        serial = run_sweep(tiny_spec, jobs=1)
        parallel = run_sweep(tiny_spec, jobs=2)
        assert [o.point for o in serial] == [o.point for o in parallel]
        assert not any(o.cached for o in serial + parallel)

    def test_validation_sweep_jobs_identical(self, tmp_cache):
        spec = SweepSpec(decks=("32x16",), rank_counts=(2, 4), models=("homogeneous",))
        serial = run_sweep(spec)
        parallel = run_sweep(spec, jobs=2)
        assert [o.point for o in serial] == [o.point for o in parallel]

    def test_unknown_model_raises_in_parallel_too(self, tmp_cache):
        spec = SweepSpec(decks=("16x8",), rank_counts=(2, 4), models=("psychic",))
        with pytest.raises(ValueError, match="unknown model"):
            run_sweep(spec, jobs=2)

    def test_rejects_bad_jobs(self, tiny_spec):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(tiny_spec, jobs=0)


class TestResume:
    def test_resuming_skips_cached_points(self, tiny_spec, tmp_cache):
        store = prediction_store()
        # First, complete a *subset* of the grid (the first rank count only).
        half = SweepSpec(
            decks=tiny_spec.decks,
            rank_counts=tiny_spec.rank_counts[:1],
            models=tiny_spec.models,
            max_side=tiny_spec.max_side,
        )
        first = run_sweep(half, store=store)
        assert [o.cached for o in first] == [False]

        # Resuming the full grid replays the finished point and only
        # simulates the remainder.
        events = []
        full = run_sweep(
            tiny_spec,
            store=store,
            progress=lambda done, total, task, point, cached: events.append(
                (task.num_ranks, cached)
            ),
        )
        assert [o.cached for o in full] == [True, False, False]
        assert sorted(events) == [(1, True), (2, False), (4, False)]
        assert full[0].point == first[0].point

        # A second full run is pure replay, and identical.
        again = run_sweep(tiny_spec, store=store)
        assert all(o.cached for o in again)
        assert [o.point for o in again] == [o.point for o in full]

    def test_replayed_points_equal_computed_exactly(self, tiny_spec, tmp_cache):
        """JSON round-trips IEEE doubles exactly, so cache replay is not a
        near-equality — it is equality."""
        store = prediction_store()
        fresh = run_sweep(tiny_spec, store=store)
        replayed = run_sweep(tiny_spec, store=store)
        for a, b in zip(fresh, replayed):
            assert a.point == b.point
            assert isinstance(b.point, ValidationPoint)

    def test_parallel_run_populates_store_for_serial(self, tiny_spec, tmp_cache):
        """Workers and the serial path share one store keyed by content."""
        store = prediction_store()
        parallel = run_sweep(tiny_spec, jobs=2, store=store)
        serial = run_sweep(tiny_spec, jobs=1, store=store)
        assert all(o.cached for o in serial)
        assert [o.point for o in serial] == [o.point for o in parallel]

    def test_status_tracks_completion(self, tiny_spec, tmp_cache):
        store = prediction_store()
        before = sweep_status(tiny_spec, store)
        assert (before.total, before.completed, before.pending) == (3, 0, 3)
        assert len(before.pending_keys) == 3
        run_sweep(tiny_spec, store=store)
        after = sweep_status(tiny_spec, store)
        assert (after.total, after.completed, after.pending) == (3, 3, 0)
        assert after.pending_keys == ()

    def test_status_builds_and_calibrates_nothing(self, tiny_spec, monkeypatch):
        """Status hashes the grid's requests: the same keys as the tasks,
        without a deck build or a calibration."""
        keys = [task.store_key() for task in tiny_spec.tasks()]

        def forbidden(*args, **kwargs):
            raise AssertionError("sweep_status must not build or calibrate")

        monkeypatch.setattr(runner, "build_deck", forbidden)
        assert tiny_spec.store_keys() == keys
        assert sweep_status(tiny_spec, prediction_store()).pending_keys == tuple(keys)

    def test_failing_sibling_does_not_lose_finished_points(self, tiny_spec, tmp_cache):
        """A task that raises in the pool must not discard siblings'
        completed results — they land in the store and replay on retry."""
        good = tiny_spec.tasks()[:2]
        # A valid request whose fitted calibration fails in the worker:
        # the worker has no store to load it from.
        bad = dataclasses.replace(
            good[0],
            request=dataclasses.replace(
                good[0].request, ranks=4, calibration="0" * 64
            ),
        )
        store = prediction_store()
        with pytest.raises(ValueError, match="fitted calibration"):
            run_points(good + [bad], jobs=2, store=store)
        # Both good points were preserved; retrying them is pure replay.
        retry = run_points(good, jobs=2, store=store)
        events = []
        run_points(
            good,
            store=store,
            progress=lambda done, total, t, p, cached: events.append(cached),
        )
        assert events == [True, True]
        assert [o.point.num_ranks for o in retry] == [1, 2]

    def test_calibration_is_memoised_and_exact(self, cluster):
        fresh = calibration_table(cluster, [1, 2, 4, 8])
        assert calibration_table(cluster, [1, 2, 4, 8]) is fresh
        two_sides = calibration_table(cluster, [1, 2])
        assert two_sides.curves[0][0].cells.size == 2

    def test_store_key_sensitive_to_grid_parameters(self, tiny_spec, tmp_cache):
        """A finished grid does not satisfy a *different* grid."""
        store = prediction_store()
        run_sweep(tiny_spec, store=store)
        other = SweepSpec(
            decks=tiny_spec.decks,
            rank_counts=tiny_spec.rank_counts,
            models=tiny_spec.models,
            max_side=tiny_spec.max_side,
            seeds=(2,),
        )
        status = sweep_status(other, store)
        assert status.completed == 0


class TestDynamicAxis:
    def test_dynamics_axis_expands_grid(self):
        from repro.analysis import DynamicSpec

        spec = SweepSpec(
            decks=("16x8",),
            rank_counts=(2, 4),
            models=(),
            dynamics=(None, DynamicSpec(policy="never", iterations=4)),
            max_side=4,
        )
        tasks = spec.tasks()
        assert len(tasks) == spec.num_points == 4
        assert {t.dynamic for t in tasks} == {
            None,
            DynamicSpec(policy="never", iterations=4),
        }

    def test_static_store_keys_unchanged_by_dynamic_field(self, tiny_spec):
        """A static grid point is keyed as the plain measure request for
        the same question, exactly as the prediction service keys it."""
        task = tiny_spec.tasks()[0]
        plain = PredictionRequest(
            deck="16x8", ranks=1, models=tiny_spec.models, max_side=16
        )
        assert task.request == plain
        assert task.store_key() == request_key(plain, "measure")

    def test_dynamic_key_differs_from_static(self, tiny_spec):
        from repro.analysis import DynamicSpec

        task = tiny_spec.tasks()[0]

        def with_dynamic(policy):
            dynamic = DynamicSpec(policy=policy, iterations=4)
            return SweepTask(
                request=dataclasses.replace(task.request, dynamic=dynamic),
                deck=task.deck,
            )

        dyn_task = with_dynamic("never")
        assert dyn_task.dynamic == DynamicSpec(policy="never", iterations=4)
        assert dyn_task.store_key() != task.store_key()
        assert with_dynamic("every:2").store_key() != dyn_task.store_key()

    def test_dynamic_points_run_and_resume(self, tmp_cache):
        from repro.analysis import DynamicSpec

        spec = SweepSpec(
            decks=("16x8",),
            rank_counts=(2,),
            models=(),
            dynamics=(
                None,
                DynamicSpec(policy="imbalance:1.1", iterations=4),
            ),
            max_side=4,
        )
        store = prediction_store()
        first = run_sweep(spec, store=store)
        assert [o.cached for o in first] == [False, False]
        again = run_sweep(spec, store=store)
        assert [o.cached for o in again] == [True, True]
        assert [o.point.measured for o in again] == [
            o.point.measured for o in first
        ]

    def test_dynamic_spec_validation(self):
        from repro.analysis import DynamicSpec

        with pytest.raises(ValueError):
            DynamicSpec(policy="sometimes")
        with pytest.raises(ValueError):
            DynamicSpec(warmup=5, iterations=5)
        assert DynamicSpec(policy="imbalance:1.2").label == "dyn[imbalance:1.2,x4]"
