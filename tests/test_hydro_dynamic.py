"""Tests for the dynamic-workload subsystem: time-parameterised censuses,
the shared controller, and dynamic ``run_krak`` runs."""

import numpy as np
import pytest

from repro.hydro import (
    DynamicCensus,
    DynamicConfig,
    DynamicController,
    REPARTITION_PHASE,
    measure_iteration_time,
    run_krak,
)
from repro.hydro.workload import CELL_WEIGHT_SCALE
from repro.machine import NUM_PHASES
from repro.mesh import build_deck, build_face_table
from repro.mesh.deck import HE_GAS
from repro.partition import (
    EveryNPolicy,
    ImbalanceThresholdPolicy,
    NeverPolicy,
    structured_block_partition,
)


@pytest.fixture(scope="module")
def setup():
    deck = build_deck((32, 16))
    faces = build_face_table(deck.mesh)
    part = structured_block_partition(deck.mesh, 8)
    return deck, faces, part


@pytest.fixture(scope="module")
def dyn(setup):
    deck, faces, part = setup
    return DynamicCensus.build(deck, part, burn_multiplier=4.0, faces=faces)


#: Time at which the default burn front is mid-sweep on the (32, 16) deck.
MID_BURN = 8.0e-5


class TestDynamicCensus:
    def test_none_is_the_static_fast_path(self, dyn):
        assert dyn.census_at(None) is dyn.base

    def test_t0_equals_static(self, dyn):
        census = dyn.census_at(0.0)
        assert census is dyn.base

    def test_burning_cells_inflate_he_work(self, dyn):
        burning = dyn.burning_cells_by_rank(MID_BURN)
        assert burning.sum() > 0
        census = dyn.census_at(MID_BURN)
        expected = dyn.base.material_counts()
        expected[:, HE_GAS] += 3.0 * burning
        np.testing.assert_allclose(census.material_counts(), expected)

    def test_only_he_column_changes(self, dyn):
        census = dyn.census_at(MID_BURN)
        static = dyn.base.material_counts()
        others = [m for m in range(static.shape[1]) if m != HE_GAS]
        np.testing.assert_array_equal(
            census.material_counts()[:, others], static[:, others]
        )

    def test_links_never_change(self, dyn):
        census = dyn.census_at(MID_BURN)
        assert census.shares_links(dyn.base)

    def test_multiplier_one_is_static(self, setup):
        deck, faces, part = setup
        flat = DynamicCensus.build(deck, part, burn_multiplier=1.0, faces=faces)
        assert flat.census_at(MID_BURN) is flat.base

    def test_multiplier_below_one_rejected(self, setup):
        deck, faces, part = setup
        with pytest.raises(ValueError):
            DynamicCensus.build(deck, part, burn_multiplier=0.5, faces=faces)

    def test_cell_weights(self, dyn):
        weights = dyn.cell_weights(MID_BURN)
        burning = dyn.burn.actively_burning(MID_BURN)
        assert set(np.unique(weights)) == {
            CELL_WEIGHT_SCALE,
            4 * CELL_WEIGHT_SCALE,
        }
        assert (weights == 4 * CELL_WEIGHT_SCALE).sum() == burning.sum()

    def test_with_partition_rebinds(self, dyn, setup):
        deck, faces, _ = setup
        other = structured_block_partition(deck.mesh, 4)
        rebound = dyn.with_partition(other, faces)
        assert rebound.partition is other
        assert rebound.base.num_ranks == 4
        assert rebound.burn is dyn.burn


class TestDynamicRuns:
    def test_never_with_unit_multiplier_matches_static_times(self, setup):
        """With no repartitioning and no cost multiplier the dynamic run
        charges exactly the static censuses, so clocks agree bitwise."""
        deck, faces, part = setup
        static = run_krak(deck, part, iterations=3, faces=faces)
        cfg = DynamicConfig(
            policy=NeverPolicy(), burn_multiplier=1.0, dt=2.0e-7
        )
        dynamic = run_krak(deck, part, iterations=3, faces=faces, dynamic=cfg)
        assert np.array_equal(
            static.result.final_clocks, dynamic.result.final_clocks
        )
        assert dynamic.dynamic.num_repartitions == 0

    def test_burning_front_slows_iterations(self, setup):
        """Charging census_at(t_k) makes mid-burn iterations cost more than
        the static census predicts."""
        deck, faces, part = setup
        static = run_krak(deck, part, iterations=8, faces=faces)
        cfg = DynamicConfig(policy=NeverPolicy(), burn_multiplier=4.0)
        dynamic = run_krak(deck, part, iterations=8, faces=faces, dynamic=cfg)
        assert dynamic.result.makespan > static.result.makespan

    def test_repartition_run_records_and_charges(self, setup):
        deck, faces, part = setup
        cfg = DynamicConfig(policy=EveryNPolicy(period=2), burn_multiplier=4.0)
        run = run_krak(deck, part, iterations=6, faces=faces, dynamic=cfg)
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
            dynamic=DynamicConfig(policy=NeverPolicy(), burn_multiplier=6.0),
        )
        clamped = run_krak(
            deck,
            part,
            iterations=10,
            faces=faces,
            dynamic=DynamicConfig(
                policy=ImbalanceThresholdPolicy(threshold=threshold),
                burn_multiplier=6.0,
            ),
        )
        assert clamped.dynamic.num_repartitions >= 1
        peak_never = max(r.imbalance for r in never.dynamic.records)
        peak_clamped = max(r.imbalance for r in clamped.dynamic.records)
        assert peak_never > threshold
        assert peak_clamped < peak_never

    def test_imbalance_series_shape(self, setup):
        deck, faces, part = setup
        cfg = DynamicConfig(policy=NeverPolicy())
        run = run_krak(deck, part, iterations=4, faces=faces, dynamic=cfg)
        times, imbalances = run.dynamic.imbalance_series()
        assert times == [i * cfg.dt for i in range(4)]
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
                dynamic=DynamicConfig(),
            )

    def test_measured_breakdown_gains_repartition_phase(self, setup):
        deck, faces, part = setup
        m = measure_iteration_time(
            deck,
            part,
            faces=faces,
            iterations=4,
            dynamic=DynamicConfig(policy=EveryNPolicy(period=1)),
        )
        assert m.compute_by_phase.shape == (NUM_PHASES + 1,)
        assert m.comm_by_phase[REPARTITION_PHASE] > 0

    def test_dynamic_run_is_deterministic(self, setup):
        deck, faces, part = setup
        cfg = DynamicConfig(
            policy=ImbalanceThresholdPolicy(threshold=1.1), burn_multiplier=6.0
        )
        a = run_krak(deck, part, iterations=6, faces=faces, dynamic=cfg)
        b = run_krak(deck, part, iterations=6, faces=faces, dynamic=cfg)
        assert np.array_equal(a.result.final_clocks, b.result.final_clocks)
        assert a.dynamic == b.dynamic


class TestControllerConsistency:
    def test_steps_are_cached_objects(self, setup):
        deck, faces, part = setup
        controller = DynamicController(deck, part, DynamicConfig(), faces=faces)
        assert controller.step(0) is controller.step(0)

    def test_partition_tracks_repartitions(self, setup):
        deck, faces, part = setup
        controller = DynamicController(
            deck,
            part,
            DynamicConfig(policy=EveryNPolicy(period=1), burn_multiplier=6.0),
            faces=faces,
        )
        controller.step(0)
        assert controller.partition is part
        step = controller.step(4)  # mid-burn: the policy fires and moves cells
        assert step.migration is not None
        assert controller.partition is not part
