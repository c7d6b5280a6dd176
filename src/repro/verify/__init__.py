"""Differential verification: reference oracle + scenario fuzzing.

The optimized simulator and models promise to be pure refactorings of the
paper's arithmetic — vectorized, memoised, cached, but never *different*.
The hex-float goldens pin that promise on a handful of fixed decks; this
package pins it across the scenario space:

* :mod:`repro.verify.oracle` — a deliberately naive, scalar, loop-based
  re-implementation of message pricing, collectives, boundary/ghost
  exchange, and the per-iteration engine step (no caching, no
  vectorization, no memoisation);
* :mod:`repro.verify.scenarios` — a seeded random generator of valid
  (machine, deck, partition, placement, dynamics) tuples spanning the edge
  cases;
* :mod:`repro.verify.diff` — the differential runner: optimized vs oracle,
  phase-by-phase, at tight relative tolerance, with shrinking-style
  minimal-counterexample reporting;
* :mod:`repro.verify.properties` — metamorphic invariants (non-negativity,
  iteration monotonicity, placement invariance on flat networks,
  block ≡ no-placement, never-policy charges nothing to repartition).

Exposed as ``repro verify fuzz --seeds N`` and
``repro verify diff <scenario.json>``; see ``docs/testing.md``.
"""

from repro.verify.diff import (
    DiffResult,
    FuzzOutcome,
    Mismatch,
    diff_scenario,
    fuzz,
    shrink_scenario,
    verify_scenario,
)
from repro.verify.oracle import (
    OracleDeadlockError,
    OracleEngine,
    OracleResult,
    OracleRun,
    oracle_allreduce_time,
    oracle_bcast_time,
    oracle_boundary_exchange_time,
    oracle_collectives_time,
    oracle_gather_time,
    oracle_ghost_phase_total,
    oracle_hier_allreduce_time,
    oracle_hier_bcast_time,
    oracle_hier_gather_time,
    oracle_phase_time,
    oracle_run_krak,
    oracle_send_times,
    oracle_tmsg,
    oracle_tree_depth,
    oracle_tree_extents,
)
from repro.verify.scenarios import (
    Scenario,
    build_scenario,
    load_scenario,
    random_scenario,
    save_scenario,
)
from repro.verify.properties import PropertyViolation, check_properties

__all__ = [
    "DiffResult",
    "FuzzOutcome",
    "Mismatch",
    "OracleDeadlockError",
    "OracleEngine",
    "OracleResult",
    "OracleRun",
    "PropertyViolation",
    "Scenario",
    "build_scenario",
    "check_properties",
    "diff_scenario",
    "fuzz",
    "load_scenario",
    "oracle_allreduce_time",
    "oracle_bcast_time",
    "oracle_boundary_exchange_time",
    "oracle_collectives_time",
    "oracle_gather_time",
    "oracle_ghost_phase_total",
    "oracle_hier_allreduce_time",
    "oracle_hier_bcast_time",
    "oracle_hier_gather_time",
    "oracle_phase_time",
    "oracle_run_krak",
    "oracle_send_times",
    "oracle_tmsg",
    "oracle_tree_depth",
    "oracle_tree_extents",
    "random_scenario",
    "save_scenario",
    "shrink_scenario",
    "verify_scenario",
]
