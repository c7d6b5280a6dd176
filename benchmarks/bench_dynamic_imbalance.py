"""Extension: time-evolving workload + dynamic repartitioning scenarios.

The paper's Section 2.1 workload *evolves*: the programmed burn front moves
through the HE material, shifting per-cell cost and degrading any static
partition.  This bench runs the detonation deck under three repartitioning
policies — ``never`` (the static-partition control), ``every_n`` (fixed
cadence), and ``imbalance_threshold`` (repartition when weighted load
imbalance exceeds a bound) — and reports the load-imbalance trajectory and
the steady-state iteration time of each, including the modelled repartition
cost (census allgather + cell-migration messages).
"""

import pytest

from repro.analysis import TextTable, format_series
from repro.hydro import DynamicSpec, run_krak
from repro.mesh import build_face_table
from repro.partition import cached_partition

NUM_RANKS = 16
ITERATIONS = 16
WARMUP = 1
#: Strong burn-cost contrast so partition quality, not noise, dominates.
BURN_MULTIPLIER = 8.0

POLICIES = ("never", "every:4", "imbalance:1.15")


@pytest.fixture(scope="module")
def dynamic_runs(cluster, small_deck):
    """Per policy: the steady-state iteration time and the run's
    :class:`~repro.hydro.dynamic.DynamicRunInfo` (one simulation each)."""
    faces = build_face_table(small_deck.mesh)
    part = cached_partition(small_deck, NUM_RANKS, seed=1, faces=faces)
    runs = {}
    for policy in POLICIES:
        run = run_krak(
            small_deck,
            part,
            cluster=cluster,
            iterations=ITERATIONS,
            faces=faces,
            dynamic=DynamicSpec(policy=policy, burn_multiplier=BURN_MULTIPLIER),
        )
        runs[run.dynamic.policy] = (run.mean_iteration_time(WARMUP), run.dynamic)
    return runs


def test_dynamic_imbalance_report(dynamic_runs, report_writer):
    lines = [
        "Extension: burn-front workload evolution vs repartitioning policy "
        f"(small deck, {NUM_RANKS} PEs, burning cells x{BURN_MULTIPLIER:g})"
    ]
    table = TextTable(
        "steady-state iteration time by policy",
        ["policy", "iter (ms)", "repartitions", "cells moved", "peak imbalance"],
    )
    for name, (seconds, info) in dynamic_runs.items():
        table.add_row(
            name,
            seconds * 1e3,
            info.num_repartitions,
            info.cells_moved,
            max(r.imbalance for r in info.records),
        )
    lines.append(table.render())
    for name, (_, info) in dynamic_runs.items():
        times, imbalances = info.imbalance_series()
        lines.append("")
        lines.append(
            format_series(f"imbalance vs time [{name}]", times, imbalances, "s", "")
        )
    report_writer("dynamic_imbalance", "\n".join(lines))


def test_static_partition_degrades_as_front_moves(dynamic_runs):
    """Under ``never`` the burn front drives weighted imbalance well above
    its initial (cell-balanced) value — the paper's motivating observation."""
    _, info = dynamic_runs["never"]
    assert info.num_repartitions == 0
    first = info.records[0].imbalance
    peak = max(r.imbalance for r in info.records)
    assert peak > 1.5 * first


def test_threshold_policy_clamps_imbalance(dynamic_runs):
    """The imbalance_threshold policy keeps the charged imbalance near its
    bound while the control's trajectory escapes it."""
    _, never = dynamic_runs["never"]
    _, clamped = dynamic_runs["imbalance_threshold"]
    assert clamped.num_repartitions >= 1
    assert max(r.imbalance for r in clamped.records) < max(
        r.imbalance for r in never.records
    )


def test_threshold_repartitioning_beats_never(dynamic_runs):
    """The acceptance bar: repartitioning on imbalance measurably reduces
    steady-state iteration time versus the static partition, even after
    paying the modelled repartition cost."""
    t_never = dynamic_runs["never"][0]
    t_thresh = dynamic_runs["imbalance_threshold"][0]
    assert t_thresh < 0.95 * t_never  # >= 5% faster


def test_cadence_policy_sits_between(dynamic_runs):
    """A fixed cadence repartitions too (cells move, time improves or at
    least does not regress past the control)."""
    _, every = dynamic_runs["every_n"]
    assert every.num_repartitions >= 2
    assert every.cells_moved > 0
    t_never = dynamic_runs["never"][0]
    t_every = dynamic_runs["every_n"][0]
    assert t_every < 1.02 * t_never


@pytest.mark.benchmark(group="dynamic-imbalance")
def test_bench_dynamic_run(benchmark, registry_bench):
    """Cost of one fully dynamic simulated run (threshold policy)."""
    run = registry_bench(benchmark, "dynamic.imbalance_run", rounds=1)[2]
    assert run.dynamic.num_repartitions >= 1
