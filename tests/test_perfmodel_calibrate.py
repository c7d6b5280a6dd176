"""Tests for both calibration methods of Section 3.1."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.hydro import run_krak
from repro.machine import NUM_PHASES, es45_like_cluster
from repro.machine.network import QSNET_LIKE
from repro.mesh import build_deck, build_face_table
from repro.mesh.deck import HE_GAS, NUM_MATERIALS, InputDeck
from repro.mesh.grid import structured_quad_mesh
from repro.partition import structured_block_partition
from repro.partition.rcb import rcb_partition
from repro.perfmodel import (
    calibrate_contrived_grid,
    calibrate_linear_system,
    default_sample_sides,
    fit_network,
    fit_phase_costs,
    merge_duplicate_abscissae,
)


@pytest.fixture(scope="module")
def quiet_cluster_module():
    return es45_like_cluster(jitter_frac=0.0)


class TestDefaultSampleSides:
    def test_powers_of_two(self):
        assert default_sample_sides(8) == [1, 2, 4, 8]

    def test_covers_figure3_range(self):
        sides = default_sample_sides()
        assert sides[0] == 1
        assert sides[-1] ** 2 >= 250_000


class TestContrivedGridCalibration:
    def test_table_shape(self, quiet_cluster_module):
        table = calibrate_contrived_grid(quiet_cluster_module, sides=[2, 8])
        assert table.num_phases == NUM_PHASES
        assert table.num_materials == NUM_MATERIALS

    def test_recovers_flat_region_costs(self, quiet_cluster_module):
        """Far above the knee, the calibrated per-cell cost approaches the
        machine's true cell cost (within the cache factor)."""
        cl = quiet_cluster_module
        table = calibrate_contrived_grid(cl, sides=[256])
        n = 256 * 256
        for phase in (0, 5, 13):
            for mat in range(NUM_MATERIALS):
                truth = cl.node.cell_cost[phase, mat] * cl.node.cache_factor(n)
                knee = cl.node.phase_overhead[phase] / n
                got = table.per_cell(phase, mat, n)
                assert got == pytest.approx(truth + knee, rel=0.02)

    def test_captures_knee(self, quiet_cluster_module):
        """Per-cell cost at 1 cell/PE is dominated by the phase overhead."""
        cl = quiet_cluster_module
        table = calibrate_contrived_grid(cl, sides=[1, 64])
        got = table.per_cell(1, 0, 1.0)
        assert got == pytest.approx(
            cl.node.phase_overhead[1] + cl.node.cell_cost[1, 0] * cl.node.cache_factor(1),
            rel=0.01,
        )

    def test_material_distinction(self, quiet_cluster_module):
        """Phase 14's per-cell costs must differ by material (Figure 3)."""
        table = calibrate_contrived_grid(quiet_cluster_module, sides=[64])
        n = 64 * 64
        he = table.per_cell(13, 0, n)
        foam = table.per_cell(13, 2, n)
        assert foam > he

    def test_rejects_bad_sides(self, quiet_cluster_module):
        with pytest.raises(ValueError):
            calibrate_contrived_grid(quiet_cluster_module, sides=[0])

    @pytest.mark.parametrize("smp", [False, True], ids=["flat", "smp"])
    def test_equals_simulated_two_process_deck(self, smp):
        """The paper's method, simulated: a ``2s × s`` deck with the left
        half HE gas, tiled 2×1, sampled from rank 1's steady iteration.
        The table reads the same knots from the node model, bit for bit."""
        cluster = es45_like_cluster()
        if smp:
            cluster = cluster.with_smp()
        sides = [1, 8, 64]
        table = calibrate_contrived_grid(cluster, sides=sides)
        for side in sides:
            for material in range(NUM_MATERIALS):
                mesh = structured_quad_mesh(
                    2 * side, side, width=2.0 * side * 0.0125, height=side * 0.0125
                )
                column = np.arange(mesh.num_cells) % (2 * side)
                deck = InputDeck(
                    name=f"contrived-{side}-{material}",
                    mesh=mesh,
                    cell_material=np.where(column < side, HE_GAS, material),
                    detonator_xy=(0.0, 0.45 * side * 0.0125),
                )
                partition = structured_block_partition(mesh, 2, px=2, py=1)
                run = run_krak(deck, partition, cluster=cluster, iterations=2)
                simulated = run.result.trace.window_compute(1, 2)[1] / (side * side)
                knots = [
                    table.curves[phase][material].per_cell[sides.index(side)]
                    for phase in range(NUM_PHASES)
                ]
                assert [v.hex() for v in knots] == [v.hex() for v in simulated]


class TestLinearSystemCalibration:
    def test_recovers_costs_from_real_deck(self, quiet_cluster_module):
        """NNLS on a heterogeneous partition recovers per-material costs."""
        cl = quiet_cluster_module
        deck = build_deck((64, 32))
        faces = build_face_table(deck.mesh)
        parts = [structured_block_partition(deck.mesh, k) for k in (4, 16)]
        table = calibrate_linear_system(cl, deck, parts)
        n = deck.num_cells / 16
        # Compare against the machine truth at the calibrated abscissa.
        for phase in (2, 13):
            for mat in range(NUM_MATERIALS):
                truth = (
                    cl.node.cell_cost[phase, mat] * cl.node.cache_factor(n)
                    + cl.node.phase_overhead[phase] / n
                )
                got = table.per_cell(phase, mat, n)
                assert got == pytest.approx(truth, rel=0.35)

    def test_sorted_samples(self, quiet_cluster_module):
        deck = build_deck((32, 16))
        parts = [structured_block_partition(deck.mesh, k) for k in (2, 8)]
        table = calibrate_linear_system(quiet_cluster_module, deck, parts)
        curve = table.curves[0][0]
        assert np.all(np.diff(curve.cells) > 0)

    def test_rejects_empty_partitions(self, quiet_cluster_module):
        deck = build_deck((32, 16))
        with pytest.raises(ValueError):
            calibrate_linear_system(quiet_cluster_module, deck, [])

    def test_rejects_mismatched_partition(self, quiet_cluster_module):
        deck = build_deck((32, 16))
        other = build_deck((16, 8))
        parts = [structured_block_partition(other.mesh, 2)]
        with pytest.raises(ValueError):
            calibrate_linear_system(quiet_cluster_module, deck, parts)

    def test_nonnegative_costs(self, quiet_cluster_module):
        deck = build_deck((32, 16))
        parts = [structured_block_partition(deck.mesh, 8)]
        table = calibrate_linear_system(quiet_cluster_module, deck, parts)
        for p in range(table.num_phases):
            for m in range(table.num_materials):
                assert np.all(table.curves[p][m].per_cell >= 0)

    def test_duplicate_abscissae_are_averaged_not_dropped(
        self, quiet_cluster_module
    ):
        """Two partitions at the same rank count land on the same
        cells-per-PE abscissa; both must contribute to the single knot."""
        deck = build_deck((32, 16))
        parts = [
            structured_block_partition(deck.mesh, 4),
            rcb_partition(deck.mesh, 4),
        ]
        table = calibrate_linear_system(quiet_cluster_module, deck, parts)
        only = [
            calibrate_linear_system(quiet_cluster_module, deck, [p])
            for p in parts
        ]
        curve = table.curves[2][0]
        assert curve.cells.shape == (1,)
        mean = np.mean([t.curves[2][0].per_cell[0] for t in only])
        assert curve.per_cell[0] == pytest.approx(mean, rel=1e-12)


class TestWindowValidation:
    def test_linear_system_rejects_single_iteration(self, quiet_cluster_module):
        deck = build_deck((16, 8))
        parts = [structured_block_partition(deck.mesh, 2)]
        with pytest.raises(ValueError, match="iterations >= 2"):
            calibrate_linear_system(
                quiet_cluster_module, deck, parts, iterations=1, warmup=0
            )

    def test_rejects_warmup_outside_window(self, quiet_cluster_module):
        deck = build_deck((16, 8))
        parts = [structured_block_partition(deck.mesh, 2)]
        with pytest.raises(ValueError, match="warmup"):
            calibrate_linear_system(
                quiet_cluster_module, deck, parts, iterations=3, warmup=3
            )


class TestWarmupExclusion:
    """Regression: calibration knots must come from the steady window only.

    The old calibrators divided the run's *total* per-phase compute by the
    iteration count, which averaged the warm-up iteration's jitter into
    every knot.  With per-(rank, phase, iteration) jitter the steady-state
    value is exactly the quiet value scaled by iteration 1's jitter factor,
    so the fixed point is checkable bit-for-bit.
    """

    def test_knot_carries_steady_iteration_jitter_only(self):
        from repro.machine.node import _hash_jitter

        jf = 0.1
        quiet = calibrate_contrived_grid(
            es45_like_cluster(jitter_frac=0.0), sides=[8]
        )
        noisy = calibrate_contrived_grid(
            es45_like_cluster(jitter_frac=jf), sides=[8]
        )
        n = 64.0
        for phase in (0, 2, 13):
            steady = 1.0 + jf * _hash_jitter(1, phase, 1, 0)
            contaminated = 1.0 + jf * 0.5 * (
                _hash_jitter(1, phase, 0, 0) + _hash_jitter(1, phase, 1, 0)
            )
            got = noisy.per_cell(phase, 0, n)
            want = quiet.per_cell(phase, 0, n) * steady
            assert got == pytest.approx(want, rel=1e-12)
            assert got != pytest.approx(
                quiet.per_cell(phase, 0, n) * contaminated, rel=1e-6
            )


class TestMergeDuplicateAbscissae:
    def test_averages_duplicates(self):
        ones = np.full((2, 3), 1.0)
        threes = np.full((2, 3), 3.0)
        uniq, per_cell = merge_duplicate_abscissae([100.0, 100.0], [ones, threes])
        assert uniq.tolist() == [100.0]
        assert per_cell.shape == (2, 3, 1)
        assert np.allclose(per_cell[..., 0], 2.0)

    def test_sorts_distinct_abscissae(self):
        a = np.full((1, 1), 5.0)
        b = np.full((1, 1), 7.0)
        uniq, per_cell = merge_duplicate_abscissae([200.0, 50.0], [a, b])
        assert uniq.tolist() == [50.0, 200.0]
        assert per_cell[0, 0].tolist() == [7.0, 5.0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_duplicate_abscissae([], [])


class TestFitPhaseCosts:
    def test_exact_recovery_with_intercept(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(1, 50, size=(6, 3)).astype(np.float64)
        true_coeffs = np.array([[1e-5, 2e-5, 5e-6], [3e-5, 1e-6, 2e-6]])
        true_overhead = np.array([4e-4, 7e-5])
        times = counts @ true_coeffs.T + true_overhead
        coeffs, overhead = fit_phase_costs(counts, times)
        assert np.allclose(coeffs, true_coeffs, rtol=1e-8)
        assert np.allclose(overhead, true_overhead, rtol=1e-8)

    def test_absent_material_gets_fallback(self):
        counts = np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        times = counts[:, :1] * 2e-5 + 1e-4
        coeffs, _ = fit_phase_costs(counts, times)
        assert coeffs[0, 1] == pytest.approx(coeffs[0, 0])

    def test_rejects_all_empty(self):
        with pytest.raises(ValueError, match="no cells"):
            fit_phase_costs(np.zeros((2, 2)), np.zeros((2, 1)))


class TestFitNetwork:
    def test_recovers_qsnet_parameters_exactly(self):
        sizes = np.array([64.0, 1024.0, 4096.0, 8192.0, 65536.0, 262144.0])
        seconds = QSNET_LIKE.tmsg_many(sizes)
        net = fit_network(
            sizes, seconds, breakpoints=QSNET_LIKE.breakpoints.tolist()
        )
        assert np.allclose(net.latency, QSNET_LIKE.latency, rtol=1e-9)
        assert np.allclose(net.per_byte, QSNET_LIKE.per_byte, rtol=1e-9)

    def test_requires_two_distinct_sizes_per_segment(self):
        with pytest.raises(ValueError, match="segment"):
            fit_network([64.0, 64.0, 8192.0, 65536.0], [1e-5] * 4,
                        breakpoints=[4096.0])

    def test_clamps_negative_parameters(self):
        # Seconds *decreasing* with size would fit a negative per-byte cost.
        net = fit_network([100.0, 200.0], [2e-5, 1e-5])
        assert net.per_byte[0] == 0.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_network([1.0, 2.0], [1e-5])


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter with this tree's ``src`` on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout.strip()


class TestScipyStaysLazy:
    def test_measure_path_imports_no_scipy(self):
        out = _run_fresh(
            """
            import sys
            import repro, repro.core, repro.analysis.store
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        assert out == "[]"

    def test_linear_system_imports_nnls_on_demand(self):
        out = _run_fresh(
            """
            import sys
            import numpy as np
            from repro.machine import es45_like_cluster
            from repro.mesh import build_deck
            from repro.partition import structured_block_partition
            from repro.perfmodel import calibrate_linear_system
            before = "scipy.optimize" in sys.modules
            deck = build_deck((16, 8))
            parts = [structured_block_partition(deck.mesh, k) for k in (2, 4)]
            table = calibrate_linear_system(es45_like_cluster(jitter_frac=0.0), deck, parts)
            ok = all(np.all(np.isfinite(c.per_cell)) for row in table.curves for c in row)
            print(before, "scipy.optimize" in sys.modules, ok)
            """
        )
        assert out == "False True True"
