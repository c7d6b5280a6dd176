"""The scenario generator: validity, determinism, coverage, round-trips."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.verify.scenarios import (
    ARCHETYPES,
    Scenario,
    build_scenario,
    load_scenario,
    random_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


class TestGeneration:
    def test_deterministic(self):
        for seed in range(10):
            assert random_scenario(seed) == random_scenario(seed)

    def test_all_build(self):
        # Every generated scenario must materialise into valid objects.
        for scenario in map(random_scenario, range(40)):
            built = build_scenario(scenario)
            assert built.partition.num_ranks == scenario.num_ranks
            assert built.census.num_ranks == scenario.num_ranks
            assert built.deck.num_cells == scenario.nx * scenario.ny

    def test_archetypes_all_reached(self):
        # One full rotation of seeds touches every edge-case family.
        scenarios = [random_scenario(seed) for seed in range(len(ARCHETYPES))]
        assert any(s.num_ranks == 1 for s in scenarios)
        assert any(s.num_ranks == s.nx * s.ny for s in scenarios)
        assert any(s.smp and s.placement is not None for s in scenarios)
        assert any(s.network is not None and s.network.get("zero") for s in scenarios)
        assert any(s.zero_cost_node for s in scenarios)
        assert any(
            s.dynamic is not None and s.dynamic["burn_multiplier"] >= 8
            for s in scenarios
        )
        assert any(
            s.intra_send_overhead is not None or s.intra_recv_overhead is not None
            for s in scenarios
        )

    def test_capacity_tight_archetype(self):
        # Archetype index 3 is the capacity-tight SMP family.
        scenario = random_scenario(3)
        assert scenario.smp
        built = build_scenario(scenario)
        hierarchy = built.cluster.hierarchy
        assert hierarchy is not None
        assert hierarchy.ranks_per_node == scenario.ranks_per_node


class TestValidation:
    def test_nx_floor(self):
        with pytest.raises(ValueError):
            Scenario(seed=0, nx=3)

    def test_ranks_bounded_by_cells(self):
        with pytest.raises(ValueError):
            Scenario(seed=0, nx=4, ny=1, num_ranks=5)

    def test_placement_requires_smp(self):
        with pytest.raises(ValueError):
            Scenario(seed=0, placement="block", smp=False)

    def test_unknown_partition_method(self):
        with pytest.raises(ValueError):
            Scenario(seed=0, partition_method="metis")


class TestSerialization:
    def test_round_trip_dict(self):
        for seed in range(12):
            scenario = random_scenario(seed)
            assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_round_trip_file(self, tmp_path):
        scenario = random_scenario(6)  # dynamic archetype: nested dict field
        path = save_scenario(scenario, tmp_path / "scenario.json")
        assert load_scenario(path) == scenario

    def test_unknown_keys_rejected(self):
        data = scenario_to_dict(random_scenario(0))
        data["typo_field"] = 1
        with pytest.raises(ValueError, match="typo_field"):
            scenario_from_dict(data)

    def test_legacy_engine_key_dropped(self):
        # Files written when a scenario could pick among engines that all
        # priced identically still load, as the same scenario.
        scenario = random_scenario(3)
        data = dict(scenario_to_dict(scenario), engine="scalar")
        assert scenario_from_dict(data) == scenario

    def test_committed_scenario_file_replays_its_seed(self):
        # The CLI golden carries the legacy key; every seed must still map
        # to the scenario it was saved from.
        path = (
            Path(__file__).resolve().parent / "goldens" / "cli" / "scenario_seed3.json"
        )
        assert "engine" in json.loads(path.read_text())
        assert load_scenario(path) == random_scenario(3)

    def test_label_tolerates_sparse_dynamic_spec(self):
        # A hand-trimmed scenario file may carry only the required policy
        # key; label() (hit by `verify diff` before anything else) must
        # apply the same defaults build_scenario does.
        scenario = Scenario(seed=1, dynamic={"policy": "never"})
        assert "dyn=neverx4" in scenario.label()
        build_scenario(scenario)  # and it builds with the same defaults

    def test_labels_distinguish_axes(self):
        base = random_scenario(0)
        smp = dataclasses.replace(base, smp=True, placement="round-robin")
        assert base.label() != smp.label()
        assert "place=round-robin" in smp.label()


class TestBuildDetails:
    def test_zero_network_prices_free(self):
        scenario = dataclasses.replace(
            random_scenario(0), network={"zero": True}
        )
        built = build_scenario(scenario)
        assert built.cluster.network.tmsg(4096) == 0.0

    def test_zero_node_charges_nothing(self):
        scenario = dataclasses.replace(random_scenario(0), zero_cost_node=True)
        built = build_scenario(scenario)
        import numpy as np

        work = np.array([10.0, 5.0, 3.0, 2.0])
        assert built.cluster.node.phase_time(0, work) == 0.0

    def test_smp_base_tracks_placement(self):
        scenario = random_scenario(3)  # smp_tight
        built = build_scenario(scenario)
        assert built.smp_base is not None
        assert built.smp_base.hierarchy.placement is None
        if scenario.placement is not None:
            assert built.cluster.hierarchy.placement is not None
