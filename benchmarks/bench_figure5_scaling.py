"""Figure 5: general-model validation across processor counts.

Measured vs homogeneous vs heterogeneous iteration times, medium and large
decks, P = 1 … 1024 in powers of two — the log-log scaling curves of the
paper's Figure 5, including the heterogeneous variant's over-prediction at
scale (per-material boundary messages whose latency dominates).
"""

import os

import numpy as np
import pytest

from repro.analysis import SweepSpec, format_series, prediction_store, run_sweep

MAX_RANKS = 1024


@pytest.fixture(scope="module")
def figure5_sweeps():
    """Both decks' scaling sweeps, parallel and resumable.

    The dominant cost of this module is the 22 simulated points; they run
    on the sweep engine so repeat benchmark sessions replay them from the
    result store, and ``REPRO_SWEEP_JOBS=N`` fans fresh points out to N
    worker processes (results are identical to serial by construction).
    """
    jobs = int(os.environ.get("REPRO_SWEEP_JOBS", "1"))
    sweeps = {}
    for deck in ("medium", "large"):
        spec = SweepSpec.figure5(decks=(deck,), max_ranks=MAX_RANKS, max_side=512)
        outcomes = run_sweep(spec, jobs=jobs, store=prediction_store())
        sweeps[deck] = [outcome.point for outcome in outcomes]
    return sweeps


def test_figure5_report(figure5_sweeps, report_writer):
    lines = [
        "Figure 5 (reproduced): general model validation, iteration time [s] "
        "vs processor count"
    ]
    for name, points in figure5_sweeps.items():
        ranks = [p.num_ranks for p in points]
        lines.append("")
        lines.append(f"=== {name} problem ===")
        lines.append(
            format_series(
                "Measured", ranks, [p.measured for p in points], "PEs", "s"
            )
        )
        lines.append(
            format_series(
                "Homogeneous",
                ranks,
                [p.predicted["homogeneous"] for p in points],
                "PEs",
                "s",
            )
        )
        lines.append(
            format_series(
                "Heterogeneous",
                ranks,
                [p.predicted["heterogeneous"] for p in points],
                "PEs",
                "s",
            )
        )
    report_writer("figure5_scaling", "\n".join(lines))


def test_measured_curve_strong_scales_then_flattens(figure5_sweeps):
    """Iteration time drops with P but departs from ideal scaling at large
    P (overhead + collectives floor) — the Figure 5 shape.  The large deck
    flattens later (more cells per PE), so the late-speedup bound is
    per-deck."""
    for name, points in figure5_sweeps.items():
        times = np.array([p.measured for p in points])
        # Overall downward from 1 to max ranks:
        assert times[0] > times[-1]
        # Early speedup near-ideal:
        early = times[0] / times[2]  # P=1 -> 4
        assert early > 2.5
        # Late speedup far from the ideal 4x (the flattening):
        late = times[-3] / times[-1]  # max/4 -> max
        assert late < 3.0 if name == "large" else late < 2.0


def test_homogeneous_tracks_measured(figure5_sweeps):
    """Homogeneous predictions stay within 25 % at P ≥ 64 (paper: within
    8 % at the Table 6 points; the sweep includes untuned P values)."""
    for points in figure5_sweeps.values():
        for p in points:
            if p.num_ranks >= 64:
                assert abs(p.error("homogeneous")) < 0.25, p


def test_heterogeneous_overpredicts_at_scale(figure5_sweeps):
    """Section 5.2: at large P the heterogeneous variant's per-material
    boundary messages overtake its smaller compute mix, so it crosses above
    the homogeneous variant and the measured curve.  The crossover depends
    on cells/PE: the medium deck (200 cells/PE at 1024) is past it; the
    large deck (800 cells/PE) is approaching it, so we assert the trend."""
    medium_last = figure5_sweeps["medium"][-1]  # P = 1024
    assert medium_last.predicted["heterogeneous"] > medium_last.predicted["homogeneous"]
    assert medium_last.predicted["heterogeneous"] > medium_last.measured

    for name, points in figure5_sweeps.items():
        # The het/homo ratio rises monotonically over the last decade of P.
        tail = points[-4:]
        ratios = [
            p.predicted["heterogeneous"] / p.predicted["homogeneous"] for p in tail
        ]
        assert ratios == sorted(ratios), name


def test_heterogeneous_exact_serially(figure5_sweeps):
    """At P = 1 the subgrid really has the global material ratios, so the
    heterogeneous variant is near-exact while homogeneous (worst material
    everywhere) over-predicts."""
    for name, points in figure5_sweeps.items():
        first = points[0]
        assert first.num_ranks == 1
        assert abs(first.error("heterogeneous")) < 0.05, name
        assert first.predicted["homogeneous"] > first.predicted["heterogeneous"], name


@pytest.mark.benchmark(group="figure5")
def test_bench_scaling_sweep_models_only(benchmark, registry_bench):
    """Model-side sweep cost (what the paper calls 'rapid model evaluation'):
    both general variants across 11 processor counts."""
    result = registry_bench(benchmark, "figure5.scaling_models_only")[2]
    assert len(result) == 11
