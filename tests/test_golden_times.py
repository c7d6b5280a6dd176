"""Bitwise goldens for the vectorized hot paths.

``tests/goldens/vectorized_paths.json`` was captured (as exact hex floats)
on the *scalar* implementations of Equation (4) and everything built on it.
These tests recompute every recorded quantity — raw ``Tmsg``, boundary and
ghost exchanges, collectives, model predictions, simulated iteration times,
the Figure-5 subset and the default contrived-grid calibration — and require equality to the last bit: the
batched/memoised paths are pure refactorings of the arithmetic, never
approximations of it.

Regenerate (only after an intentional model change) with::

    PYTHONPATH=src python tests/goldens/capture_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.hydro import build_workload_census, measure_iteration_time
from repro.machine import QSNET_LIKE, es45_like_cluster
from repro.mesh import build_deck, build_face_table
from repro.partition import cached_partition
from repro.perfmodel import (
    GeneralModel,
    MeshSpecificModel,
    allreduce_total_time,
    boundary_exchange_time,
    boundary_message_sizes,
    broadcast_time,
    calibrate_contrived_grid,
    collectives_time,
    default_sample_sides,
    gather_total_time,
)
from repro.perfmodel.ghostmodel import ghost_phase_total, ghost_update_time

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "vectorized_paths.json").read_text()
)


def unhex(value: str) -> float:
    return float.fromhex(value)


@pytest.fixture(scope="module")
def smp_cluster():
    return es45_like_cluster().with_smp()


class TestTmsgGoldens:
    def test_scalar_tmsg_bitwise(self, cluster, smp_cluster):
        nets = {"qsnet": QSNET_LIKE, "smp_intra": smp_cluster.hierarchy.intra}
        for label, net in nets.items():
            for size_str, expected in GOLDEN["tmsg"][label].items():
                assert net.tmsg(int(size_str)) == unhex(expected), (label, size_str)

    def test_array_tmsg_bitwise(self):
        sizes = np.array([int(s) for s in GOLDEN["tmsg"]["qsnet"]], dtype=np.float64)
        out = QSNET_LIKE.tmsg(sizes)
        assert [v.hex() for v in out] == GOLDEN["tmsg_array"]

    def test_tmsg_many_matches_scalar(self):
        sizes = np.array([int(s) for s in GOLDEN["tmsg"]["qsnet"]], dtype=np.float64)
        many = QSNET_LIKE.tmsg_many(sizes)
        assert [v.hex() for v in many] == GOLDEN["tmsg_array"]

    def test_cached_tmsg_matches_scalar(self):
        for size_str, expected in GOLDEN["tmsg"]["qsnet"].items():
            size = int(size_str)
            assert QSNET_LIKE.tmsg_cached(size) == unhex(expected)
            # Twice: the second hit comes from the cache.
            assert QSNET_LIKE.tmsg_cached(size) == unhex(expected)

    def test_send_times_decomposition_bitwise(self):
        keys = list(GOLDEN["bandwidth_time"])
        sizes = np.array([int(k) for k in keys], dtype=np.float64)
        startup, bw = QSNET_LIKE.send_times_many(sizes)
        assert [v.hex() for v in startup] == [GOLDEN["startup_time"][k] for k in keys]
        assert [v.hex() for v in bw] == [GOLDEN["bandwidth_time"][k] for k in keys]


class TestBoundaryGoldens:
    def test_boundary_exchange_bitwise(self):
        for case in GOLDEN["boundary"]:
            multi = None if case["multi"] is None else np.array(case["multi"])
            got = boundary_exchange_time(QSNET_LIKE, np.array(case["faces"]), multi)
            assert got == unhex(case["time"]), case

    def test_table3_rows_bitwise(self):
        rows = boundary_message_sizes(
            np.array([3.0, 4.0, 3.0]), np.array([1.0, 3.0, 2.0])
        )
        expected = [(c, unhex(h)) for c, h in GOLDEN["boundary_rows"]]
        assert rows == expected


class TestGhostGoldens:
    def test_ghost_phase_total_bitwise(self):
        for case in GOLDEN["ghost"]:
            got = ghost_phase_total(QSNET_LIKE, case["n_local"], case["n_remote"])
            assert got == unhex(case["phase_total"]), case

    def test_ghost_update_time_bitwise(self):
        for case in GOLDEN["ghost"]:
            got = ghost_update_time(QSNET_LIKE, case["n_local"], case["n_remote"], 8)
            assert got == unhex(case["update_8"]), case


class TestCollectiveGoldens:
    def test_equations_8_to_10_bitwise(self):
        for p_str, entry in GOLDEN["collectives"].items():
            p = int(p_str)
            assert broadcast_time(QSNET_LIKE, p) == unhex(entry["bcast"])
            assert allreduce_total_time(QSNET_LIKE, p) == unhex(entry["allreduce"])
            assert gather_total_time(QSNET_LIKE, p) == unhex(entry["gather"])
            assert collectives_time(QSNET_LIKE, p) == unhex(entry["total"])


def _assert_predicted(pred, expected: dict) -> None:
    assert pred.computation == unhex(expected["computation"])
    assert pred.boundary_exchange == unhex(expected["boundary_exchange"])
    assert pred.ghost_updates == unhex(expected["ghost_updates"])
    assert pred.collectives == unhex(expected["collectives"])
    assert pred.total == unhex(expected["total"])


class TestModelGoldens:
    def test_mesh_specific_bitwise(self, cluster, coarse_cost_table, small_deck,
                                   small_faces):
        model = MeshSpecificModel(table=coarse_cost_table, network=cluster.network)
        for p_str, expected in GOLDEN["mesh_specific"].items():
            part = cached_partition(small_deck, int(p_str), seed=1, faces=small_faces)
            census = build_workload_census(small_deck, part, small_faces)
            _assert_predicted(model.predict(census), expected)

    def test_general_bitwise(self, cluster, coarse_cost_table):
        for mode, by_ranks in GOLDEN["general"].items():
            model = GeneralModel(
                table=coarse_cost_table, network=cluster.network, mode=mode
            )
            for p_str, expected in by_ranks.items():
                _assert_predicted(model.predict(819200, int(p_str)), expected)


class TestSimulatedGoldens:
    def test_measured_iteration_bitwise(self, cluster, smp_cluster, small_deck,
                                        small_faces):
        configs = {
            "small_16": (16, cluster),
            "small_64": (64, cluster),
            "small_16_smp": (16, smp_cluster),
        }
        for label, (p, clu) in configs.items():
            part = cached_partition(small_deck, p, seed=1, faces=small_faces)
            census = build_workload_census(small_deck, part, small_faces)
            m = measure_iteration_time(
                small_deck, part, cluster=clu, faces=small_faces, census=census
            )
            assert m.seconds == unhex(GOLDEN["measured"][label]), label


class TestFigure5Goldens:
    """The Figure-5 subset: the paper's headline validation curves."""

    @pytest.fixture(scope="class")
    def medium(self):
        deck = build_deck("medium")
        return deck, build_face_table(deck.mesh)

    def test_medium_measured_curve_bitwise(self, cluster, medium):
        deck, faces = medium
        for p_str, expected in GOLDEN["figure5_medium_measured"].items():
            part = cached_partition(deck, int(p_str), seed=1, faces=faces)
            census = build_workload_census(deck, part, faces)
            m = measure_iteration_time(
                deck, part, cluster=cluster, faces=faces, census=census
            )
            assert m.seconds == unhex(expected), p_str

    def test_predicted_curves_bitwise(self, cluster, coarse_cost_table):
        cells = {"medium": build_deck("medium").num_cells,
                 "large": build_deck("large").num_cells}
        for deck_name, by_mode in GOLDEN["figure5_predicted"].items():
            for mode, by_ranks in by_mode.items():
                model = GeneralModel(
                    table=coarse_cost_table, network=cluster.network, mode=mode
                )
                for p_str, expected in by_ranks.items():
                    got = model.predict(cells[deck_name], int(p_str)).total
                    assert got == unhex(expected), (deck_name, mode, p_str)


class TestCalibrationGoldens:
    def test_default_contrived_table_bitwise(self, cluster, smp_cluster):
        """Every knot of the default table on the flat and SMP clusters."""
        for label, clu in (("flat", cluster), ("smp", smp_cluster)):
            table = calibrate_contrived_grid(clu, sides=default_sample_sides(256))
            expected = GOLDEN["calibration"][label]
            for row, expected_row in zip(table.curves, expected["per_cell"]):
                for curve, knots in zip(row, expected_row):
                    assert [v.hex() for v in curve.cells] == expected["cells"]
                    assert [v.hex() for v in curve.per_cell] == knots, label
            assert len(table.curves) == len(expected["per_cell"])
