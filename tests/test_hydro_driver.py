"""Unit tests for the run driver and measurement wrapper."""

import dataclasses

import numpy as np
import pytest

from repro.hydro import build_workload_census, measure_iteration_time, run_krak
from repro.hydro.functional import run_functional
from repro.hydro.state import build_rank_states
from repro.machine import NUM_PHASES, es45_like_cluster
from repro.mesh import build_deck, build_face_table
from repro.partition import structured_block_partition


@pytest.fixture(scope="module")
def setup():
    deck = build_deck((32, 16))
    faces = build_face_table(deck.mesh)
    part = structured_block_partition(deck.mesh, 8)
    return deck, faces, part


class TestRunKrak:
    def test_census_mode_has_no_states(self, setup):
        deck, faces, part = setup
        run = run_krak(deck, part, iterations=2, faces=faces)
        assert run.states is None
        assert run.iterations == 2

    def test_functional_mode_returns_states(self, setup):
        deck, faces, part = setup
        run = run_krak(deck, part, iterations=2, functional=True, faces=faces)
        assert run.states is not None
        assert len(run.states) == 8

    def test_mean_iteration_time_warmup_check(self, setup):
        deck, faces, part = setup
        run = run_krak(deck, part, iterations=2, faces=faces)
        with pytest.raises(ValueError):
            run.mean_iteration_time(warmup=2)

    def test_default_cluster_used(self, setup):
        deck, faces, part = setup
        run = run_krak(deck, part, iterations=2, faces=faces)
        assert run.cluster.name == "es45-qsnet-like"

    def test_functional_diagnostics_agree_across_ranks(self, setup):
        """run_krak's functional diagnostics are the lockstep numerics'
        global reductions over every rank: rerunning them on fresh states
        reproduces the diagnostics and every rank's arrays exactly, and the
        reduced mass is the sum of the ranks' own masses."""
        deck, faces, part = setup
        census = build_workload_census(deck, part, faces)
        states = build_rank_states(deck, part)
        diagnostics = run_functional(states, census, iterations=2)
        run = run_krak(deck, part, iterations=2, functional=True, faces=faces)
        assert diagnostics == run.diagnostics
        for mine, theirs in zip(states, run.states, strict=True):
            assert np.array_equal(mine.rho, theirs.rho)
            assert np.array_equal(mine.vx, theirs.vx)
        assert diagnostics["total_mass"] == pytest.approx(
            sum(float(st.cell_mass.sum()) for st in states), rel=1e-12
        )


class TestMeasureIterationTime:
    def test_fields(self, setup):
        deck, faces, part = setup
        m = measure_iteration_time(deck, part, faces=faces)
        assert m.deck_name == "custom"
        assert m.num_ranks == 8
        assert m.seconds > 0
        assert m.compute_by_phase.shape == (NUM_PHASES,)
        assert m.comm_by_phase.shape == (NUM_PHASES,)

    def test_phase_sum_close_to_total(self, setup):
        """Max-over-rank phase times bound the iteration time from above."""
        deck, faces, part = setup
        m = measure_iteration_time(deck, part, faces=faces)
        upper = m.compute_by_phase.sum() + m.comm_by_phase.sum()
        assert m.seconds <= upper * 1.01

    def test_deterministic(self, setup):
        deck, faces, part = setup
        m1 = measure_iteration_time(deck, part, faces=faces)
        m2 = measure_iteration_time(deck, part, faces=faces)
        assert m1.seconds == m2.seconds

    def test_phase_breakdown_skips_warmup(self, setup):
        """Regression: a 10x-cost warm-up iteration must not contaminate the
        steady-state phase breakdowns (they previously averaged it in)."""
        deck, faces, part = setup

        class ColdStartNodeModel(type(es45_like_cluster().node)):
            def phase_times(self, work, rank=0, iteration=0):
                base = super().phase_times(work, rank, iteration)
                return base * 10.0 if iteration == 0 else base

        warm = es45_like_cluster()
        cold_node = ColdStartNodeModel(
            phase_overhead=warm.node.phase_overhead,
            cell_cost=warm.node.cell_cost,
            cache_cells=warm.node.cache_cells,
            cache_penalty=warm.node.cache_penalty,
            jitter_frac=warm.node.jitter_frac,
            seed=warm.node.seed,
        )
        cold = dataclasses.replace(warm, node=cold_node)

        m_warm = measure_iteration_time(deck, part, cluster=warm, faces=faces)
        m_cold = measure_iteration_time(deck, part, cluster=cold, faces=faces)
        # Steady-state iterations are identical, so the measured seconds and
        # the warm-up-aware compute breakdown must agree exactly; only the
        # comm skew inherited from the cold iteration may differ slightly.
        assert m_cold.seconds == pytest.approx(m_warm.seconds, rel=1e-9)
        np.testing.assert_allclose(
            m_cold.compute_by_phase, m_warm.compute_by_phase, rtol=1e-12
        )

    def test_breakdown_consistent_across_window_lengths(self, setup):
        """Steady-state breakdowns no longer dilute with the iteration count
        the way total/iterations did; they stay within jitter of each other."""
        deck, faces, part = setup
        m3 = measure_iteration_time(deck, part, faces=faces, iterations=3)
        m6 = measure_iteration_time(deck, part, faces=faces, iterations=6)
        np.testing.assert_allclose(
            m3.compute_by_phase, m6.compute_by_phase, rtol=0.05
        )

    def test_strong_scaling_census_mode(self):
        """More ranks => faster iterations (well above the knee)."""
        deck = build_deck((64, 32))
        faces = build_face_table(deck.mesh)
        cluster = es45_like_cluster()
        t2 = measure_iteration_time(
            deck, structured_block_partition(deck.mesh, 2), cluster=cluster, faces=faces
        ).seconds
        t8 = measure_iteration_time(
            deck, structured_block_partition(deck.mesh, 8), cluster=cluster, faces=faces
        ).seconds
        assert t8 < t2
