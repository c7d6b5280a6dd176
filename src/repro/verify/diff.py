"""The differential runner: production engine vs reference oracle.

For one scenario, :func:`diff_scenario` executes the production stack
(:func:`repro.hydro.driver.run_krak`) and the naive oracle
(:func:`repro.verify.oracle.oracle_run_krak`) on identical inputs and
compares every observable phase-by-phase: per-(rank, phase) compute and
communication seconds, per-rank iteration marks, and final clocks — all to
a tight relative tolerance (default 1e-12; the optimized paths claim to be
*bitwise* refactorings, so in practice the observed error is exactly zero).
It also prices the production run's table through the engine executor
that dispatch did not pick, wherever that one can run it, and requires the
two to agree exactly.

:func:`fuzz` sweeps seeded random scenarios through the differential *and*
the metamorphic property checks (:mod:`repro.verify.properties`); any
failure is shrunk to a minimal counterexample by
:func:`shrink_scenario` — greedy simplification (drop dynamics, drop
placement, drop SMP, fewer ranks, smaller mesh, …) that keeps only changes
preserving the failure — so the scenario file a failing run reports is the
smallest repro the shrinker could find, ready to commit as a regression
test (see ``docs/testing.md``).
"""

from __future__ import annotations

import dataclasses
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.hydro.driver import krak_job, run_krak
from repro.verify.oracle import oracle_run_krak
from repro.verify.properties import (
    PropertyViolation,
    check_properties,
    relative_errors,
)
from repro.verify.scenarios import (
    BuiltScenario,
    Scenario,
    build_scenario,
    random_scenario,
)

#: Default relative tolerance — tight enough that any semantic drift fails.
DEFAULT_RTOL = 1e-12

#: How many element mismatches a report keeps (the first are the story).
MAX_MISMATCHES = 10


@dataclass(frozen=True)
class Mismatch:
    """One element where optimized and oracle disagree."""

    field: str
    index: tuple
    optimized: float
    oracle: float
    rel_err: float

    def describe(self) -> str:
        """Human-readable one-liner."""
        return (
            f"{self.field}{list(self.index)}: optimized={self.optimized!r} "
            f"oracle={self.oracle!r} rel_err={self.rel_err:.3e}"
        )


@dataclass(frozen=True)
class DiffResult:
    """Outcome of one optimized-vs-oracle comparison."""

    scenario: Scenario
    ok: bool
    max_rel_err: float
    mismatches: tuple
    makespan: float

    def describe(self) -> str:
        """Summary plus the first few mismatches."""
        if self.ok:
            return f"OK (max rel err {self.max_rel_err:.3e})"
        lines = [f"FAIL (max rel err {self.max_rel_err:.3e})"]
        lines += ["  " + m.describe() for m in self.mismatches]
        return "\n".join(lines)


def _compare_field(
    field: str,
    optimized: np.ndarray,
    oracle: np.ndarray,
    rtol: float,
    mismatches: list,
) -> float:
    """Record mismatching elements of one field; returns the max rel error."""
    optimized = np.asarray(optimized, dtype=np.float64)
    oracle = np.asarray(oracle, dtype=np.float64)
    if optimized.shape != oracle.shape:
        raise ValueError(
            f"{field}: shape mismatch {optimized.shape} vs {oracle.shape}"
        )
    rel = relative_errors(optimized, oracle)
    bad = np.argwhere(rel > rtol)
    for index in bad:
        if len(mismatches) >= MAX_MISMATCHES:
            break
        idx = tuple(int(i) for i in index)
        mismatches.append(
            Mismatch(
                field=field,
                index=idx,
                optimized=float(optimized[idx]),
                oracle=float(oracle[idx]),
                rel_err=float(rel[idx]),
            )
        )
    return float(rel.max()) if rel.size else 0.0


def _compare_executors(chosen, other, mismatches: list) -> float:
    """Record where the engine's two executors disagree on one table: final
    clocks, per-(rank, phase) rows, and every mark's clocks and snapshot
    rows, which must be equal exactly.  Returns the max rel error."""
    fields = [
        ("final_clocks", chosen.final_clocks, other.final_clocks),
        ("compute", chosen.trace.compute, other.trace.compute),
        ("comm", chosen.trace.comm, other.trace.comm),
    ]
    # Both executors load the marks the shared structure slotted, so they
    # record the same iteration indices.
    a, b = chosen.trace, other.trace
    for index in sorted(a.iteration_starts):
        fields += [
            (f"iteration_start[{index}]", a.iteration_starts[index],
             b.iteration_starts[index]),
            (f"compute_at_mark[{index}]", a._compute_at_mark[index],
             b._compute_at_mark[index]),
            (f"comm_at_mark[{index}]", a._comm_at_mark[index],
             b._comm_at_mark[index]),
        ]
    return max(
        0.0 if np.array_equal(x, y, equal_nan=True)
        else _compare_field(f"{name} (other executor)", x, y, 0.0, mismatches)
        for name, x, y in fields
    )


def diff_built(
    built: BuiltScenario, rtol: float = DEFAULT_RTOL
) -> DiffResult:
    """Differential comparison on already-built scenario objects."""
    return _diff_built_with_run(built, rtol)[0]


def _diff_built_with_run(built: BuiltScenario, rtol: float):
    """The differential plus its production run (reused by the properties)."""
    run = run_krak(
        built.deck,
        built.partition,
        cluster=built.cluster,
        iterations=built.iterations,
        faces=built.faces,
        census=built.census,
        dynamic=built.dynamic,
        perturb=built.perturb,
    )
    oracle = oracle_run_krak(
        built.deck,
        built.partition,
        cluster=built.cluster,
        iterations=built.iterations,
        faces=built.faces,
        census=built.census,
        dynamic=built.dynamic,
        perturb=built.perturb,
    )

    trace = run.result.trace
    mismatches: list = []
    max_rel = max(
        _compare_field("compute", trace.compute, oracle.result.compute, rtol, mismatches),
        _compare_field("comm", trace.comm, oracle.result.comm, rtol, mismatches),
        _compare_field(
            "final_clocks",
            run.result.final_clocks,
            oracle.result.final_clocks,
            rtol,
            mismatches,
        ),
    )
    opt_marks = trace.iteration_starts
    orc_marks = oracle.result.iteration_starts
    for index in sorted(set(opt_marks) ^ set(orc_marks)):
        # A mark recorded by only one engine is itself the defect — report
        # it as a mismatch instead of crashing on the missing key.
        mismatches.append(
            Mismatch(
                field=f"iteration_start[{index}] recorded (1=yes)",
                index=(),
                optimized=float(index in opt_marks),
                oracle=float(index in orc_marks),
                rel_err=np.inf,
            )
        )
        max_rel = np.inf
    for index in sorted(set(opt_marks) & set(orc_marks)):
        max_rel = max(
            max_rel,
            _compare_field(
                f"iteration_start[{index}]",
                opt_marks[index],
                orc_marks[index],
                rtol,
                mismatches,
            ),
        )
    if built.dynamic is not None:
        # The two independently-built controllers must have made identical
        # repartition decisions, or the runs above were not comparable.
        opt_reparts = run.dynamic.num_repartitions
        orc_reparts = oracle.dynamic.num_repartitions
        if opt_reparts != orc_reparts:
            mismatches.append(
                Mismatch(
                    field="num_repartitions",
                    index=(),
                    optimized=float(opt_reparts),
                    oracle=float(orc_reparts),
                    rel_err=np.inf,
                )
            )
            max_rel = np.inf

    # The executor run_compiled did not pick must agree exactly wherever it
    # can run the table: fuzz decks are small, so the dispatch alone would
    # rarely reach the superstep executor.
    program, engine = krak_job(
        built.deck, built.partition, built.cluster, built.iterations,
        built.faces, built.census, built.dynamic, built.perturb,
    )
    other = engine._run_other(program.lower())
    if other is not None:
        max_rel = max(max_rel, _compare_executors(run.result, other, mismatches))

    result = DiffResult(
        scenario=built.scenario,
        ok=not mismatches,
        max_rel_err=max_rel,
        mismatches=tuple(mismatches),
        makespan=run.result.makespan,
    )
    return result, run


def diff_scenario(scenario: Scenario, rtol: float = DEFAULT_RTOL) -> DiffResult:
    """Build ``scenario`` and run the optimized-vs-oracle comparison."""
    return diff_built(build_scenario(scenario), rtol=rtol)


# ------------------------------------------------------------------ verdicts


@dataclass(frozen=True)
class SeedOutcome:
    """Everything one fuzz seed produced."""

    scenario: Scenario
    diff: DiffResult
    violations: tuple

    @property
    def ok(self) -> bool:
        """No differential mismatch and no property violation."""
        return self.diff.ok and not self.violations

    def describe(self) -> str:
        """Multi-line failure report (or a one-line OK)."""
        if self.ok:
            return self.diff.describe()
        lines = [self.diff.describe()] if not self.diff.ok else []
        lines += [f"  property {v.name}: {v.detail}" for v in self.violations]
        return "\n".join(lines) or "OK"


def verify_scenario(
    scenario: Scenario,
    rtol: float = DEFAULT_RTOL,
    properties: bool = True,
) -> SeedOutcome:
    """Run one scenario through the differential and the property checks."""
    built = build_scenario(scenario)
    diff, run = _diff_built_with_run(built, rtol)
    violations: tuple = ()
    if properties:
        # The differential's production run doubles as the property
        # checks' base run, so the happy path simulates each side once.
        violations = tuple(check_properties(built, rtol=rtol, production_run=run))
    return SeedOutcome(scenario=scenario, diff=diff, violations=violations)


# ------------------------------------------------------------------ shrinking


def _shrink_candidates(scenario: Scenario):
    """Ordered simplification moves, biggest structural cuts first."""
    if scenario.perturb is not None:
        # First move: a perturbed failure that persists on the clean
        # machine is not a perturbation bug — drop the whole axis before
        # touching anything else.
        yield dataclasses.replace(scenario, perturb=None)
    if scenario.dynamic is not None:
        candidate = dataclasses.replace(scenario, dynamic=None)
        if scenario.perturb is not None and scenario.perturb.get("churn_prob"):
            # Churn is meaningless without the repartition machinery.
            perturb = dict(scenario.perturb)
            del perturb["churn_prob"]
            candidate = dataclasses.replace(
                scenario, dynamic=None, perturb=perturb or None
            )
        yield candidate
    if scenario.placement is not None:
        yield dataclasses.replace(scenario, placement=None)
    if scenario.smp:
        yield dataclasses.replace(
            scenario,
            smp=False,
            placement=None,
            intra_send_overhead=None,
            intra_recv_overhead=None,
        )
    if scenario.intra_send_overhead is not None or (
        scenario.intra_recv_overhead is not None
    ):
        yield dataclasses.replace(
            scenario, intra_send_overhead=None, intra_recv_overhead=None
        )
    if scenario.iterations > 1:
        yield dataclasses.replace(scenario, iterations=scenario.iterations - 1)
    if scenario.num_ranks > 1:
        fewer = max(1, scenario.num_ranks // 2)
        perturb = scenario.perturb
        if perturb is not None and perturb.get("fail_rank") is not None:
            # Keep the failing rank inside the shrunk communicator.
            perturb = dict(perturb)
            perturb["fail_rank"] = min(perturb["fail_rank"], fewer - 1)
        yield dataclasses.replace(
            scenario, num_ranks=fewer, placement=None, perturb=perturb
        )
    if scenario.ny > 1:
        ny = max(1, scenario.ny // 2)
        if scenario.num_ranks <= scenario.nx * ny:
            yield dataclasses.replace(scenario, ny=ny)
    if scenario.nx > 4:
        nx = max(4, scenario.nx // 2)
        if scenario.num_ranks <= nx * scenario.ny:
            yield dataclasses.replace(scenario, nx=nx)
    if scenario.partition_method != "block":
        yield dataclasses.replace(scenario, partition_method="block")
    if scenario.jitter_frac != 0.0:
        yield dataclasses.replace(scenario, jitter_frac=0.0)
    if scenario.network is not None:
        yield dataclasses.replace(scenario, network=None)
    if scenario.zero_cost_node:
        yield dataclasses.replace(scenario, zero_cost_node=False)
    if scenario.speed != 1.0:
        yield dataclasses.replace(scenario, speed=1.0)


def shrink_scenario(
    scenario: Scenario,
    still_fails: Callable[[Scenario], bool],
    max_steps: int = 64,
) -> Scenario:
    """Greedily minimise a failing scenario while it keeps failing.

    ``still_fails`` must return True when its argument still exhibits the
    original failure; candidates that fail to *build* (an invalid
    simplification) are simply skipped.  The result is 1-minimal with
    respect to the candidate moves: no single further move preserves the
    failure.
    """
    current = scenario
    for _ in range(max_steps):
        for candidate in _shrink_candidates(current):
            try:
                if still_fails(candidate):
                    break
            except Exception:
                continue  # invalid or crashing simplification — skip it
        else:
            return current
        current = candidate
    return current


# ----------------------------------------------------------------- the fuzzer


@dataclass(frozen=True)
class FuzzFailure:
    """One failing seed, with its shrunk minimal repro.

    ``outcome`` is ``None`` when the verification *crashed* rather than
    reporting a mismatch — ``error`` then carries the traceback; the
    shrunk scenario still replays the crash.
    """

    seed: int
    original: Scenario
    shrunk: Scenario
    outcome: SeedOutcome | None
    error: str | None = None


@dataclass(frozen=True)
class FuzzOutcome:
    """Result of one fuzz sweep."""

    num_seeds: int
    base_seed: int
    rtol: float
    max_rel_err: float
    failures: tuple

    @property
    def ok(self) -> bool:
        """True when every seed passed."""
        return not self.failures


def fuzz(
    num_seeds: int,
    base_seed: int = 0,
    rtol: float = DEFAULT_RTOL,
    properties: bool = True,
    shrink: bool = True,
    progress: Callable[[int, int, SeedOutcome], None] | None = None,
) -> FuzzOutcome:
    """Sweep ``num_seeds`` random scenarios through the full verification.

    Each seed draws one scenario (see
    :func:`repro.verify.scenarios.random_scenario`), runs the differential
    comparison and (optionally) the property checks, and — on failure —
    shrinks the scenario to a minimal counterexample preserving the
    failure.
    """
    if num_seeds < 1:
        # A sweep of nothing must not read as a green verification.
        raise ValueError(f"num_seeds must be >= 1, got {num_seeds}")
    failures = []
    max_rel = 0.0
    for i in range(num_seeds):
        seed = base_seed + i
        scenario = random_scenario(seed)
        error = None
        error_kind = None
        try:
            outcome = verify_scenario(scenario, rtol=rtol, properties=properties)
        except Exception as exc:
            # A crash-type regression is a failure too: keep sweeping the
            # remaining seeds and ship a shrunk repro for this one instead
            # of aborting the lane with a bare traceback.
            outcome = None
            error = traceback.format_exc(limit=8)
            error_kind = type(exc).__name__
        if outcome is not None:
            max_rel = max(max_rel, outcome.diff.max_rel_err)
        if outcome is None or not outcome.ok:
            shrunk, shrunk_outcome = scenario, outcome
            if shrink:
                # The shrinker re-verifies every candidate anyway, so keep
                # the last *failing* outcome instead of re-running the
                # expensive verification once more at the end.  (Scenarios
                # hold dict fields, so match by equality, not hashing.)
                last_failing: list = [outcome]
                crash_error: list = [error]

                def still_fails(candidate):
                    try:
                        result = verify_scenario(
                            candidate, rtol=rtol, properties=properties
                        )
                    except Exception as exc:
                        # A crashing candidate only "preserves the failure"
                        # when the original failure WAS a crash of the same
                        # kind; shrinking a mismatch must never hijack onto
                        # an unrelated build error (an infeasible
                        # simplification is simply skipped).
                        if type(exc).__name__ != error_kind:
                            return False
                        last_failing[0] = None
                        crash_error[0] = traceback.format_exc(limit=8)
                        return True
                    if not result.ok:
                        last_failing[0] = result
                    return not result.ok

                shrunk = shrink_scenario(scenario, still_fails)
                candidate_outcome = last_failing[0]
                if candidate_outcome is None:
                    shrunk_outcome = None
                    error = crash_error[0]
                elif candidate_outcome.scenario == shrunk:
                    shrunk_outcome = candidate_outcome
            failures.append(
                FuzzFailure(
                    seed=seed,
                    original=scenario,
                    shrunk=shrunk,
                    outcome=shrunk_outcome,
                    error=error,
                )
            )
        if progress is not None and outcome is not None:
            progress(i + 1, num_seeds, outcome)
    return FuzzOutcome(
        num_seeds=num_seeds,
        base_seed=base_seed,
        rtol=rtol,
        max_rel_err=max_rel,
        failures=tuple(failures),
    )
