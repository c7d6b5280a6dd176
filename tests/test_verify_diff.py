"""The differential runner: agreement, mutation detection, shrinking, CLI.

The mutation tests are the acceptance gate for the whole subsystem: a
deliberately injected engine bug must be *caught* by the differential — if
these tests fail, the oracle has drifted into agreeing with whatever the
production engine does, and the subsystem is decorative.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import repro.simmpi.engine as engine_module
from repro.cli import main
from repro.verify import (
    diff_scenario,
    fuzz,
    random_scenario,
    shrink_scenario,
    verify_scenario,
)
from repro.verify.scenarios import Scenario, save_scenario

#: A handful of seeds covering one archetype rotation.
SMOKE_SEEDS = list(range(8))


class TestAgreement:
    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_seed_agrees_bitwise(self, seed):
        result = diff_scenario(random_scenario(seed))
        assert result.ok, result.describe()
        # The optimized paths are refactorings, not approximations: the
        # observed error is not just within tolerance, it is exactly zero.
        assert result.max_rel_err == 0.0

    def test_fuzz_sweep(self):
        outcome = fuzz(len(SMOKE_SEEDS), shrink=False)
        assert outcome.ok
        assert outcome.max_rel_err == 0.0

    def test_verify_scenario_runs_properties(self):
        outcome = verify_scenario(random_scenario(3))  # smp archetype
        assert outcome.ok, outcome.describe()


def _drop_recv_overhead(monkeypatch):
    """Mutant engine: every receive forgets its host overhead."""
    original = engine_module.Engine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self._recv_overhead = 0.0  # BUG: receives cost no host time

    monkeypatch.setattr(engine_module.Engine, "__init__", init)


def _drop_wait_clamp(monkeypatch):
    """Mutant superstep executor: a receive whose message arrived before the
    receiver got there waits a negative time instead of none."""

    def recv_run(run, clocks, comm_flat, arrival):
        ranks, at, sends, roh = run
        ready = arrival[sends]
        clock = clocks[ranks]
        waits = np.empty_like(ready)
        for a, o, wait in zip(ready, roh, waits):
            np.subtract(a, clock, out=wait)
            # BUG: no max(wait, 0) clamp.  Padding slots (arrival -inf) keep
            # their exact zero so that only real receives are mutated.
            wait[np.isinf(a)] = 0.0
            wait += o
            clock += wait
        clocks[ranks] = clock
        comm_flat[at] = np.add.accumulate(np.vstack((comm_flat[at], waits)), axis=0)[-1]

    monkeypatch.setattr(engine_module, "_recv_run", recv_run)


class TestMutationSmoke:
    """Injected engine bugs must fail the differential."""

    def test_dropped_wait_clamp_in_superstep_receives_caught(self, monkeypatch):
        _drop_wait_clamp(monkeypatch)
        # The fuzz decks are small, so dispatch mostly keeps the per-rank
        # executor; the differential still prices every seed through the
        # superstep one and must see the mutation.
        failures = [seed for seed in SMOKE_SEEDS if not diff_scenario(random_scenario(seed)).ok]
        assert failures, "no scenario caught the dropped clamp"
        result = diff_scenario(random_scenario(2))
        assert not result.ok

    def test_dropped_recv_overhead_caught(self, monkeypatch):
        _drop_recv_overhead(monkeypatch)
        # Seed 2 is the ranks == cells archetype: plenty of receives.
        result = diff_scenario(random_scenario(2))
        assert not result.ok
        assert any(m.field == "comm" for m in result.mismatches)

    def test_wrong_collective_factor_caught(self, monkeypatch):
        original = engine_module.allreduce_time
        monkeypatch.setattr(
            engine_module,
            "allreduce_time",
            lambda net, p, n: 1.5 * original(net, p, n),
        )
        # Seed 2 has several ranks, so the collective tree has depth > 0
        # and the mutated factor actually changes charged time.
        result = diff_scenario(random_scenario(2))
        assert not result.ok

    def test_mutant_also_breaks_multi_rank_scenarios(self, monkeypatch):
        _drop_recv_overhead(monkeypatch)
        failures = [
            seed
            for seed in SMOKE_SEEDS
            if random_scenario(seed).num_ranks > 1
            and not diff_scenario(random_scenario(seed)).ok
        ]
        assert failures, "no multi-rank scenario caught the mutation"


class TestShrinking:
    def test_shrinks_to_smaller_failing_scenario(self, monkeypatch):
        _drop_recv_overhead(monkeypatch)
        original = random_scenario(2)

        def still_fails(scenario):
            return not diff_scenario(scenario).ok

        assert still_fails(original)
        shrunk = shrink_scenario(original, still_fails)
        assert still_fails(shrunk)
        assert shrunk.iterations <= original.iterations
        assert shrunk.num_ranks <= original.num_ranks
        assert shrunk.nx * shrunk.ny <= original.nx * original.ny
        # 1-minimality: no single candidate move still fails.
        from repro.verify.diff import _shrink_candidates

        for candidate in _shrink_candidates(shrunk):
            try:
                assert not still_fails(candidate)
            except Exception:
                pass  # invalid simplifications are fair to skip

    def test_shrink_keeps_original_when_nothing_simplifies(self):
        scenario = Scenario(seed=0, nx=4, ny=1, num_ranks=1, iterations=1,
                            partition_method="block", jitter_frac=0.0,
                            speed=1.0)
        shrunk = shrink_scenario(scenario, lambda s: True)
        assert shrunk.num_ranks == 1
        assert shrunk.iterations == 1


class TestCli:
    def test_fuzz_verb(self, capsys):
        assert main(["verify", "fuzz", "--seeds", "3", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "3 scenarios" in out
        assert "0 failed" in out

    def test_diff_verb(self, tmp_path, capsys):
        path = save_scenario(random_scenario(1), tmp_path / "s.json")
        assert main(["verify", "diff", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_fuzz_verb_saves_failures(self, tmp_path, monkeypatch, capsys):
        _drop_recv_overhead(monkeypatch)
        outdir = tmp_path / "failures"
        rc = main([
            "verify", "fuzz", "--seeds", "3", "--base-seed", "2", "--quiet",
            "--save-failures", str(outdir),
        ])
        assert rc == 1
        saved = sorted(outdir.glob("seed*.json"))
        assert saved
        # Each saved file is a replayable scenario that still fails.
        data = json.loads(saved[0].read_text())
        assert not diff_scenario(Scenario(**data)).ok

    def test_diff_verb_fails_on_mismatch(self, tmp_path, monkeypatch, capsys):
        _drop_recv_overhead(monkeypatch)
        path = save_scenario(random_scenario(2), tmp_path / "s.json")
        assert main(["verify", "diff", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestReporting:
    def test_mismatch_reports_are_bounded_and_descriptive(self, monkeypatch):
        _drop_recv_overhead(monkeypatch)
        result = diff_scenario(random_scenario(2))
        from repro.verify.diff import MAX_MISMATCHES

        assert 0 < len(result.mismatches) <= MAX_MISMATCHES
        text = result.describe()
        assert "FAIL" in text and "rel_err" in text

    def test_dynamic_runs_compare_repartition_counts(self):
        scenario = random_scenario(6)  # burn-burst archetype
        assert scenario.dynamic is not None
        result = diff_scenario(scenario)
        assert result.ok, result.describe()

    def test_rtol_zero_still_passes(self):
        # The agreement really is bitwise: even rtol=0 finds nothing.
        result = diff_scenario(random_scenario(4), rtol=0.0)
        assert result.ok


class TestDefenses:
    """The verifier must catch corruption, not just clean mismatches."""

    def test_nan_reads_as_infinite_error(self):
        from repro.verify.properties import relative_errors

        rel = relative_errors(
            np.array([np.nan, np.inf, 1.0, np.inf]),
            np.array([1e-3, -np.inf, 1.0, np.inf]),
        )
        assert rel[0] == np.inf  # NaN vs finite
        assert rel[1] == np.inf  # opposite infinities
        assert rel[2] == 0.0
        assert rel[3] == np.inf  # agreeing infinities are still corrupt

    def test_nan_compute_caught_end_to_end(self, monkeypatch):
        from repro.simmpi.tracing import PhaseTrace

        original = PhaseTrace.load_batch

        def poisoned(self, compute_rows, comm_rows, marks):
            rows = [list(row) for row in compute_rows]
            for row in rows:
                row[2] = np.nan
            original(self, rows, comm_rows, marks)

        monkeypatch.setattr(PhaseTrace, "load_batch", poisoned)
        outcome = verify_scenario(random_scenario(2))
        assert not outcome.ok

    def test_missing_iteration_mark_is_a_mismatch_not_a_crash(self, monkeypatch):
        from repro.simmpi.tracing import PhaseTrace

        original = PhaseTrace.load_batch

        def dropped(self, compute_rows, comm_rows, marks):
            kept = [mark for mark in marks if mark[1] != 1]
            original(self, compute_rows, comm_rows, kept)

        monkeypatch.setattr(PhaseTrace, "load_batch", dropped)
        result = diff_scenario(random_scenario(2))
        assert not result.ok
        assert any("iteration_start[1]" in m.field for m in result.mismatches)

    def test_crash_contained_as_failure_with_repro(self, monkeypatch):
        import repro.verify.diff as diff_module

        def exploding(*args, **kwargs):
            raise IndexError("vectorization out of bounds")

        monkeypatch.setattr(diff_module, "run_krak", exploding)
        outcome = fuzz(2, base_seed=2, shrink=True)
        assert not outcome.ok
        assert len(outcome.failures) == 2
        for failure in outcome.failures:
            assert failure.outcome is None
            assert "IndexError" in failure.error

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValueError, match="num_seeds"):
            fuzz(0)

    def test_shrink_never_hijacks_mismatch_into_build_crash(self, monkeypatch):
        import repro.verify.diff as diff_module

        # An engine mismatch on a scenario whose nx-halving shrink move
        # yields an *infeasible* structured-block tiling (4x2 into 5):
        # the shrinker must skip that candidate, not adopt its ValueError
        # as "the failure", and the reported repro must still mismatch.
        crafted = Scenario(
            seed=99, nx=8, ny=2, num_ranks=5,
            partition_method="structured-block",
        )
        _drop_recv_overhead(monkeypatch)
        monkeypatch.setattr(diff_module, "random_scenario", lambda seed: crafted)
        outcome = fuzz(1, shrink=True)
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.error is None
        assert failure.outcome is not None and not failure.outcome.ok
        from repro.verify.scenarios import build_scenario

        build_scenario(failure.shrunk)  # the shrunk repro must build
        assert not diff_scenario(failure.shrunk).ok  # and still mismatch


class TestBenchEntry:
    def test_registered_and_runs(self):
        from repro.bench import all_benchmarks
        from repro.bench.runner import run_benchmark

        bench = all_benchmarks()["verify.fuzz_smoke"]
        timing = run_benchmark(bench, "smoke", repeats=1, warmup=0)
        assert timing.invariants["failures"] == 0
        assert timing.invariants["scenarios"] == 6


class TestSuperstepScenario:
    """The committed 64-rank scenario CI replays with ``repro verify diff``:
    wide enough that dispatch picks the superstep executor by itself."""

    PATH = Path(__file__).parent / "scenarios" / "superstep_smp64.json"

    def test_replays_clean(self):
        from repro.verify.scenarios import load_scenario

        outcome = verify_scenario(load_scenario(self.PATH))
        assert outcome.ok, outcome.describe()
        assert outcome.diff.max_rel_err == 0.0

    def test_dispatch_picks_the_superstep_executor(self, monkeypatch):
        from repro.verify.scenarios import load_scenario

        picked = []
        original = engine_module.Engine._dispatch

        def spy(self, job):
            plan = original(self, job)
            picked.append(plan is not None)
            return plan

        monkeypatch.setattr(engine_module.Engine, "_dispatch", spy)
        assert diff_scenario(load_scenario(self.PATH)).ok
        assert picked[0] is True


class TestDynamicChurnScenario:
    """The committed dynamic SMP scenario CI replays with ``repro verify
    diff``: an ``every:2`` policy with churn, so repartitions fire."""

    PATH = Path(__file__).parent / "scenarios" / "dynamic_churn.json"

    def test_replays_clean_with_repartitions(self):
        from repro.hydro import run_krak
        from repro.verify.scenarios import build_scenario, load_scenario

        scenario = load_scenario(self.PATH)
        outcome = verify_scenario(scenario)
        assert outcome.ok, outcome.describe()
        assert outcome.diff.max_rel_err == 0.0
        built = build_scenario(scenario)
        run = run_krak(
            built.deck, built.partition, cluster=built.cluster,
            iterations=built.iterations, faces=built.faces, census=built.census,
            dynamic=built.dynamic, perturb=built.perturb,
        )
        assert run.dynamic.num_repartitions >= 1
