"""Metamorphic property checks on the production simulator.

The differential runner asks "does the fast path equal the slow path?";
these checks ask "does *either* path make physical sense?" — invariants
that hold for every valid scenario regardless of implementation:

* **non-negativity** — charged compute/comm time and rank clocks are never
  negative;
* **iteration monotonicity** — each rank's iteration marks are
  non-decreasing and its final clock is not before its last mark;
* **never-policy neutrality** — a dynamic run under the ``never`` policy
  charges exactly nothing to the repartition phase and reports zero
  repartitions;
* **block ≡ no-placement** — an explicit block placement prices every
  message and collective identically to the implicit SMP block map;
* **flat-network placement invariance** — when the intra-node network *is*
  the inter-node network (and no on-node overhead discounts apply), any
  placement with the same node-occupancy multiset is cost-identical, so
  shuffling ranks across nodes must not move a single charged nanosecond;
* **null-perturbation identity** — a perturbation spec with every knob at
  zero is bitwise free: traces and clocks match the unperturbed run
  exactly (checked at rtol 0, not the differential tolerance).

All comparisons reuse the differential tolerance (default 1e-12 relative).
Perturbed scenarios gate two checks: churn exists to force repartitions,
so never-policy neutrality is skipped under ``churn_prob > 0``, and link
degradation scales only the inter-node level, so flat-network placement
invariance is skipped under ``link_degrade > 0``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.hydro.driver import run_krak
from repro.hydro.dynamic import REPARTITION_PHASE

#: Checks only re-run the simulator, so reuse the differential tolerance.
DEFAULT_RTOL = 1e-12


@dataclass(frozen=True)
class PropertyViolation:
    """One failed metamorphic check."""

    name: str
    detail: str


def relative_errors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``|a - b| / max(|a|, |b|)`` (0 where both are zero).

    The one definition of "relative error" shared by the differential
    runner and these checks, so the two layers cannot drift apart.

    Simulated times are finite by construction, so any non-finite value on
    *either* side — NaN from a poisoned vectorized path, an overflowed
    accumulation — reports as infinite error rather than disappearing into
    NaN comparisons (``nan > rtol`` is False, which would read as a pass).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf below is overwritten
        denom = np.maximum(np.abs(a), np.abs(b))
        diff = np.abs(a - b)
        rel = np.divide(diff, denom, out=np.zeros_like(diff), where=denom > 0)
    poisoned = ~(np.isfinite(a) & np.isfinite(b))
    if poisoned.any():
        rel = np.where(poisoned, np.inf, rel)
    return rel


def _rel_close(a: np.ndarray, b: np.ndarray, rtol: float) -> bool:
    return bool((relative_errors(a, b) <= rtol).all())


def _run(built, cluster=None, dynamic="unset", perturb="unset"):
    """One production run of the built scenario, with optional overrides."""
    return run_krak(
        built.deck,
        built.partition,
        cluster=built.cluster if cluster is None else cluster,
        iterations=built.iterations,
        faces=built.faces,
        census=built.census,
        dynamic=built.dynamic if dynamic == "unset" else dynamic,
        perturb=built.perturb if perturb == "unset" else perturb,
    )


def _check_sanity(run, violations: list) -> None:
    """Non-negativity and per-rank iteration monotonicity."""
    trace = run.result.trace
    compute, comm = trace.compute, trace.comm
    clocks = run.result.final_clocks
    for name, values in (
        ("compute", compute), ("comm", comm), ("clocks", clocks)
    ):
        if not np.isfinite(values).all():
            violations.append(
                PropertyViolation(
                    f"finite_{name}",
                    f"{int((~np.isfinite(values)).sum())} non-finite entries",
                )
            )
    if compute.min(initial=0.0) < 0:
        violations.append(
            PropertyViolation("nonnegative_compute", f"min={compute.min()!r}")
        )
    if comm.min(initial=0.0) < 0:
        violations.append(
            PropertyViolation("nonnegative_comm", f"min={comm.min()!r}")
        )
    if clocks.min() < 0:
        violations.append(
            PropertyViolation("nonnegative_clock", f"min={clocks.min()!r}")
        )
    marks = trace.iteration_starts
    previous = None
    for index in sorted(marks):
        current = marks[index]
        if previous is not None and not (current >= previous).all():
            violations.append(
                PropertyViolation(
                    "iteration_monotone",
                    f"marks at iteration {index} precede iteration {index - 1}",
                )
            )
        previous = current
    if previous is not None and not (clocks >= previous).all():
        violations.append(
            PropertyViolation(
                "iteration_monotone", "final clocks precede the last mark"
            )
        )


def _check_never_policy(built, violations: list) -> None:
    """The ``never`` policy must charge nothing to the repartition phase."""
    if built.perturb is not None and built.perturb.has_churn:
        # Churn exists precisely to force repartitions past the policy, so
        # "never is free" does not hold for this scenario.
        return
    never = dataclasses.replace(built.dynamic, policy="never")
    run = _run(built, dynamic=never)
    if run.dynamic.num_repartitions != 0:
        violations.append(
            PropertyViolation(
                "never_policy_free",
                f"{run.dynamic.num_repartitions} repartitions under 'never'",
            )
        )
    trace = run.result.trace
    charged = float(
        trace.compute[:, REPARTITION_PHASE].sum()
        + trace.comm[:, REPARTITION_PHASE].sum()
    )
    if charged != 0.0:
        violations.append(
            PropertyViolation(
                "never_policy_free",
                f"{charged!r} seconds charged to the repartition phase",
            )
        )


def _traces_equal(run_a, run_b, rtol: float) -> bool:
    """Whole-run equality: compute, comm, and final clocks."""
    trace_a, trace_b = run_a.result.trace, run_b.result.trace
    return (
        _rel_close(trace_a.compute, trace_b.compute, rtol)
        and _rel_close(trace_a.comm, trace_b.comm, rtol)
        and _rel_close(run_a.result.final_clocks, run_b.result.final_clocks, rtol)
    )


def _check_block_identity(built, rtol: float, violations: list, base_run=None) -> None:
    """Explicit block placement ≡ the implicit SMP block map."""
    from repro.placement import block_placement

    scenario = built.scenario
    base = built.smp_base
    placed = base.with_placement(
        block_placement(scenario.num_ranks, scenario.ranks_per_node)
    )
    if base_run is None:
        base_run = _run(built, cluster=base)
    if not _traces_equal(base_run, _run(built, cluster=placed), rtol):
        violations.append(
            PropertyViolation(
                "block_placement_identity",
                "explicit block placement diverged from the implicit block map",
            )
        )


def _check_flat_invariance(built, rtol: float, violations: list) -> None:
    """With intra == inter and flat overheads, placements cannot matter.

    ``random_placement`` shuffles exactly the block slot multiset, so its
    node-occupancy profile matches block's and the collective trees span
    identical extents; with one shared network level, every message prices
    identically too — the runs must agree to the bit.
    """
    from repro.placement import block_placement, random_placement

    if built.perturb is not None and built.perturb.link_degrade:
        # degrade_cluster scales only the inter-node level, so a degraded
        # run's intra and inter curves no longer match and placement
        # legitimately moves charged time.
        return

    scenario = built.scenario
    hierarchy = built.smp_base.hierarchy
    flat_hier = dataclasses.replace(
        hierarchy,
        intra=hierarchy.inter,
        intra_send_overhead=None,
        intra_recv_overhead=None,
        placement=None,
    )
    flat = dataclasses.replace(built.smp_base, hierarchy=flat_hier)
    ranks, capacity = scenario.num_ranks, scenario.ranks_per_node
    run_block = _run(
        built, cluster=flat.with_placement(block_placement(ranks, capacity))
    )
    run_shuffled = _run(
        built,
        cluster=flat.with_placement(
            random_placement(ranks, capacity, seed=scenario.seed)
        ),
    )
    if not _traces_equal(run_block, run_shuffled, rtol):
        violations.append(
            PropertyViolation(
                "flat_network_placement_invariance",
                "shuffling ranks across nodes moved charged time on a "
                "flat (intra == inter) network",
            )
        )


def _check_null_perturb_identity(built, violations: list, base_run) -> None:
    """A perturbation spec with every knob at zero must be bitwise free."""
    from repro.perturb import PerturbSpec

    null_run = _run(built, perturb=PerturbSpec())
    # rtol 0: the perturbation layer claims *bitwise* null identity, not
    # merely tolerance-close.
    if not _traces_equal(base_run, null_run, 0.0):
        violations.append(
            PropertyViolation(
                "null_perturb_identity",
                "a zero-amplitude perturbation spec changed charged time",
            )
        )


def check_properties(built, rtol: float = DEFAULT_RTOL, production_run=None) -> list:
    """All metamorphic checks that apply to one built scenario.

    ``production_run`` optionally reuses an existing :func:`run_krak`
    result for the scenario's own configuration (the differential runner
    just produced one) instead of re-simulating it here.
    """
    violations: list = []
    run = production_run if production_run is not None else _run(built)
    _check_sanity(run, violations)
    if built.perturb is None:
        # The production run above is the unperturbed baseline, so the
        # null-spec run must reproduce it bit for bit.
        _check_null_perturb_identity(built, violations, run)
    if built.dynamic is not None:
        _check_never_policy(built, violations)
    if built.smp_base is not None:
        # Without an explicit placement the scenario's own cluster *is*
        # the implicit-map base machine, so the run above is reusable.
        base_run = run if built.cluster is built.smp_base else None
        _check_block_identity(built, rtol, violations, base_run=base_run)
        _check_flat_invariance(built, rtol, violations)
    return violations
