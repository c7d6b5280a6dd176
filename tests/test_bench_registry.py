"""The benchmark registry: completeness, naming, and workload wiring."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import (
    SIZES,
    Benchmark,
    all_benchmarks,
    get_benchmark,
    groups,
)
from repro.bench.registry import register

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_SCRIPTS = sorted(
    p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")
)


class TestRegistryCompleteness:
    def test_every_bench_script_has_a_registry_entry(self):
        """Each benchmarks/bench_*.py timed workload is registered."""
        sources = {b.source for b in all_benchmarks().values()}
        covered = {Path(s).name for s in sources if s.startswith("benchmarks/")}
        missing = set(BENCH_SCRIPTS) - covered
        assert not missing, f"bench scripts without registry entries: {missing}"

    def test_registry_sources_exist(self):
        """Every entry points at a real repository file."""
        for bench in all_benchmarks().values():
            assert (REPO_ROOT / bench.source).is_file(), bench.name

    def test_micro_benchmarks_cover_the_hot_paths(self):
        names = [n for n, b in all_benchmarks().items() if b.group == "micro"]
        assert "micro.tmsg_boundary_eval" in names
        assert "micro.engine_event_loop" in names
        assert "micro.mesh_census" in names
        assert "micro.multilevel_partition" in names

    def test_names_are_group_prefixed_and_unique(self):
        benches = all_benchmarks()
        assert len(benches) == len(set(benches))
        for name, bench in benches.items():
            assert name == bench.name
            assert name.startswith(bench.group + ".")

    def test_groups_enumerates_all(self):
        gs = groups()
        assert set(gs) == {b.group for b in all_benchmarks().values()}


class TestRegistryApi:
    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            get_benchmark("nope.nothing")

    def test_duplicate_registration_rejected(self):
        bench = get_benchmark("table4.collectives_model")
        with pytest.raises(ValueError, match="already registered"):
            register(bench)

    def test_malformed_names_rejected(self):
        with pytest.raises(ValueError, match="group"):
            Benchmark(
                name="nodot", group="nodot", description="", source="x",
                setup=lambda s: None, run=lambda c: None,
            )
        with pytest.raises(ValueError, match="must start with its group"):
            Benchmark(
                name="a.b", group="c", description="", source="x",
                setup=lambda s: None, run=lambda c: None,
            )

    def test_sizes_constant(self):
        assert SIZES == ("smoke", "full")


class TestWorkloadWiring:
    def test_cheap_bench_sets_up_and_runs_both_sizes(self):
        bench = get_benchmark("table4.collectives_model")
        for size in SIZES:
            ctx = bench.setup(size)
            result = bench.run(ctx)
            inv = bench.invariants(ctx, result)
            assert inv["total_at_1024_s"] > 0

    def test_invariants_are_deterministic(self):
        """Same code, same inputs → identical invariants run to run."""
        bench = get_benchmark("table3.boundary_exchange_model")
        ctx = bench.setup("smoke")
        first = bench.invariants(ctx, bench.run(ctx))
        second = bench.invariants(ctx, bench.run(ctx))
        assert first == second

    def test_setup_inputs_are_the_core_memos_objects(self):
        """A registry setup's census is the object ``mesh_side`` holds: the
        bench inputs come from the core per-process memos, not a copy."""
        from repro.core import PredictionRequest
        from repro.core.assemble import mesh_side

        ctx = get_benchmark("table5.mesh_specific_predict").setup("smoke")
        *_, census = mesh_side(PredictionRequest(deck="small", ranks=64))
        assert ctx["census"] is census
