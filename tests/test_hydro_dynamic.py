"""Tests for the dynamic-workload subsystem: the spec, the controller's
time-parameterised censuses, and dynamic ``run_krak`` runs."""

import numpy as np
import pytest

from repro.core import PredictionRequest, request_key
from repro.hydro import (
    DynamicController,
    DynamicSpec,
    REPARTITION_PHASE,
    build_workload_census,
    measure_iteration_time,
    run_krak,
)
from repro.hydro.dynamic import CELL_WEIGHT_SCALE
from repro.machine import NUM_PHASES
from repro.mesh import build_deck, build_face_table
from repro.mesh.deck import HE_GAS
from repro.partition import structured_block_partition


@pytest.fixture(scope="module")
def setup():
    deck = build_deck((32, 16))
    faces = build_face_table(deck.mesh)
    part = structured_block_partition(deck.mesh, 8)
    return deck, faces, part


@pytest.fixture(scope="module")
def base(setup):
    deck, faces, part = setup
    return build_workload_census(deck, part, faces)


@pytest.fixture(scope="module")
def dyn(setup, base):
    """A controller that is only asked for censuses (never stepped)."""
    deck, faces, part = setup
    return DynamicController(
        deck, part, DynamicSpec(burn_multiplier=4.0), faces=faces,
        base_census=base,
    )


#: Time at which the default burn front is mid-sweep on the (32, 16) deck.
MID_BURN = 8.0e-5


class TestDynamicSpec:
    def test_request_key_is_pinned(self):
        """The spec is hashed into every dynamic answer's store key."""
        request = PredictionRequest(
            deck="small", ranks=8,
            dynamic=DynamicSpec(policy="every:4", iterations=8),
        )
        assert request_key(request, "measure") == (
            "190d21d703ead597483abb975675555014c9ce35ef9e529f1c02e43ee9df7d57"
        )

    def test_fields_are_pinned(self):
        """Benchmark task ids are built from ``vars(spec)``."""
        assert sorted(vars(DynamicSpec())) == [
            "burn_multiplier", "dt", "iterations", "migration_bytes_per_cell",
            "partition_seed", "policy", "warmup",
        ]

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"dt": 0.0}, "dt must be positive"),
            ({"migration_bytes_per_cell": -1}, "migration_bytes_per_cell"),
            ({"policy": "every:0"}, "period must be >= 1"),
        ],
    )
    def test_invalid_knobs_rejected(self, knobs, message):
        with pytest.raises(ValueError, match=message):
            DynamicSpec(**knobs)

    def test_run_info_names_the_parsed_policy(self, setup):
        deck, faces, part = setup
        controller = DynamicController(
            deck, part, DynamicSpec(policy="imbalance:1.2"), faces=faces
        )
        assert controller.run_info().policy == "imbalance_threshold"


class TestDynamicCensus:
    """The controller's census over time (``census_at``)."""

    def test_t0_equals_static(self, dyn, base):
        assert dyn.census_at(0.0) is base

    def test_burning_cells_inflate_he_work(self, dyn, base, setup):
        _, _, part = setup
        burning = np.bincount(
            part.cell_rank[dyn.burn.actively_burning(MID_BURN)],
            minlength=part.num_ranks,
        )
        assert burning.sum() > 0
        census = dyn.census_at(MID_BURN)
        expected = base.material_counts()
        expected[:, HE_GAS] += 3.0 * burning
        np.testing.assert_allclose(census.material_counts(), expected)

    def test_only_he_column_changes(self, dyn, base):
        census = dyn.census_at(MID_BURN)
        static = base.material_counts()
        others = [m for m in range(static.shape[1]) if m != HE_GAS]
        np.testing.assert_array_equal(
            census.material_counts()[:, others], static[:, others]
        )

    def test_links_never_change(self, dyn, base):
        census = dyn.census_at(MID_BURN)
        assert census.shares_links(base)

    def test_multiplier_one_is_static(self, setup, base):
        deck, faces, part = setup
        flat = DynamicController(
            deck, part, DynamicSpec(burn_multiplier=1.0), faces=faces,
            base_census=base,
        )
        assert flat.census_at(MID_BURN) is base

    def test_multiplier_below_one_rejected(self):
        with pytest.raises(ValueError, match="burn_multiplier"):
            DynamicSpec(burn_multiplier=0.5)

    def test_cell_weights(self, dyn):
        weights = dyn.cell_weights(MID_BURN)
        burning = dyn.burn.actively_burning(MID_BURN)
        assert set(np.unique(weights)) == {
            CELL_WEIGHT_SCALE,
            4 * CELL_WEIGHT_SCALE,
        }
        assert (weights == 4 * CELL_WEIGHT_SCALE).sum() == burning.sum()

    def test_with_partition_rebinds(self, setup):
        """After a repartition, censuses are charged on the new partition."""
        deck, faces, part = setup
        controller = DynamicController(
            deck, part, DynamicSpec(policy="every:1", burn_multiplier=6.0),
            faces=faces,
        )
        step = controller.step(4)
        assert step.migration is not None
        rebound = controller.partition
        assert rebound is not part
        expected = build_workload_census(deck, rebound, faces)
        for name in ("be_src", "be_dst", "be_faces", "gn_src", "gn_dst"):
            assert np.array_equal(getattr(step.census, name), getattr(expected, name))
        assert np.array_equal(
            controller.census_at(step.time).material_counts(),
            step.census.material_counts(),
        )


class TestDynamicRuns:
    def test_never_with_unit_multiplier_matches_static_times(self, setup):
        """With no repartitioning and no cost multiplier the dynamic run
        charges exactly the static censuses, so clocks agree bitwise."""
        deck, faces, part = setup
        static = run_krak(deck, part, iterations=3, faces=faces)
        spec = DynamicSpec(policy="never", burn_multiplier=1.0, dt=2.0e-7)
        dynamic = run_krak(deck, part, iterations=3, faces=faces, dynamic=spec)
        assert np.array_equal(
            static.result.final_clocks, dynamic.result.final_clocks
        )
        assert dynamic.dynamic.num_repartitions == 0

    def test_burning_front_slows_iterations(self, setup):
        """Charging census_at(t_k) makes mid-burn iterations cost more than
        the static census predicts."""
        deck, faces, part = setup
        static = run_krak(deck, part, iterations=8, faces=faces)
        spec = DynamicSpec(policy="never", burn_multiplier=4.0)
        dynamic = run_krak(deck, part, iterations=8, faces=faces, dynamic=spec)
        assert dynamic.result.makespan > static.result.makespan

    def test_repartition_run_records_and_charges(self, setup):
        deck, faces, part = setup
        spec = DynamicSpec(policy="every:2", burn_multiplier=4.0)
        run = run_krak(deck, part, iterations=6, faces=faces, dynamic=spec)
        info = run.dynamic
        assert info.num_repartitions >= 1
        assert info.cells_moved > 0
        assert [r.index for r in info.records] == list(range(6))
        # Repartition time lands in the dedicated trace phase.
        trace = run.result.trace
        assert trace.num_phases == NUM_PHASES + 1
        assert trace.comm[:, REPARTITION_PHASE].sum() > 0
        assert trace.compute[:, REPARTITION_PHASE].sum() == 0

    def test_threshold_policy_clamps_imbalance(self, setup):
        deck, faces, part = setup
        threshold = 1.2
        never = run_krak(
            deck,
            part,
            iterations=10,
            faces=faces,
            dynamic=DynamicSpec(policy="never", burn_multiplier=6.0),
        )
        clamped = run_krak(
            deck,
            part,
            iterations=10,
            faces=faces,
            dynamic=DynamicSpec(
                policy=f"imbalance:{threshold}", burn_multiplier=6.0
            ),
        )
        assert clamped.dynamic.num_repartitions >= 1
        peak_never = max(r.imbalance for r in never.dynamic.records)
        peak_clamped = max(r.imbalance for r in clamped.dynamic.records)
        assert peak_never > threshold
        assert peak_clamped < peak_never

    def test_imbalance_series_shape(self, setup):
        deck, faces, part = setup
        spec = DynamicSpec(policy="never")
        run = run_krak(deck, part, iterations=4, faces=faces, dynamic=spec)
        times, imbalances = run.dynamic.imbalance_series()
        assert times == [i * spec.dt for i in range(4)]
        assert all(v >= 1.0 for v in imbalances)

    def test_functional_mode_rejected(self, setup):
        deck, faces, part = setup
        with pytest.raises(ValueError, match="census"):
            run_krak(
                deck,
                part,
                iterations=2,
                faces=faces,
                functional=True,
                dynamic=DynamicSpec(),
            )

    def test_measured_breakdown_gains_repartition_phase(self, setup):
        deck, faces, part = setup
        m = measure_iteration_time(
            deck,
            part,
            faces=faces,
            iterations=4,
            dynamic=DynamicSpec(policy="every:1"),
        )
        assert m.compute_by_phase.shape == (NUM_PHASES + 1,)
        assert m.comm_by_phase[REPARTITION_PHASE] > 0

    def test_dynamic_run_is_deterministic(self, setup):
        deck, faces, part = setup
        spec = DynamicSpec(policy="imbalance:1.1", burn_multiplier=6.0)
        a = run_krak(deck, part, iterations=6, faces=faces, dynamic=spec)
        b = run_krak(deck, part, iterations=6, faces=faces, dynamic=spec)
        assert np.array_equal(a.result.final_clocks, b.result.final_clocks)
        assert a.dynamic == b.dynamic


class TestControllerConsistency:
    def test_steps_are_cached_objects(self, setup):
        deck, faces, part = setup
        controller = DynamicController(deck, part, DynamicSpec(), faces=faces)
        assert controller.step(0) is controller.step(0)

    def test_partition_tracks_repartitions(self, setup):
        deck, faces, part = setup
        controller = DynamicController(
            deck,
            part,
            DynamicSpec(policy="every:1", burn_multiplier=6.0),
            faces=faces,
        )
        controller.step(0)
        assert controller.partition is part
        step = controller.step(4)  # mid-burn: the policy fires and moves cells
        assert step.migration is not None
        assert controller.partition is not part
