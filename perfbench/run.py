"""End-to-end benchmark of the reproduction: one workload per run.

    python3 perfbench/run.py --workload warm_measure --seed 1 --seconds 10 --trace 0

Runs the named workload through the public API, checks every answer, and
prints a report followed by one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured with no instrumentation installed.  With
``--trace 1`` the timed phase runs once untraced and once with every
layer wrapped (see ``spans.py``), and the metrics are the per-layer ones.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import answers
import checkout
import spans
import speed

#: End-to-end metrics: name → unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer self time per timed operation: metric → span name.
LAYER_TIMES = {
    "python.imports_s": "python.imports",
    "mesh.build_deck_s": "mesh.build_deck",
    "mesh.faces_s": "mesh.faces",
    "partition.partition_s": "partition.partition",
    "partition.repartition_s": "partition.repartition",
    "perfmodel.calibrate.table_s": "perfmodel.calibrate.table",
    "core.assemble_s": "core.assemble",
    "hydro.workload.census_s": "hydro.workload.census",
    "hydro.driver_s": "hydro.driver",
    "hydro.phases.lower_s": "hydro.phases.lower",
    "simmpi.engine.run_s": "simmpi.engine.run",
    "placement.place_s": "placement.place",
    "perfmodel.general_s": "perfmodel.general",
    "perfmodel.mesh_specific_s": "perfmodel.mesh_specific",
    "analysis.runner.tasks_s": "analysis.runner.tasks",
    "analysis.runner.evaluate_s": "analysis.runner.evaluate",
    "analysis.store.get_s": "analysis.store.get",
    "analysis.store.put_s": "analysis.store.put",
    "core.pipeline_s": "core.pipeline",
}

#: Per-layer counts per timed operation: metric → (count name, unit).
LAYER_COUNTS = {
    "partition.repartitions": ("partition.repartitions", "count/op"),
    "hydro.workload.links": ("hydro.workload.links", "count/op"),
    "hydro.phases.ops": ("hydro.phases.ops", "count/op"),
    "simmpi.engine.scalar_runs": ("simmpi.engine.scalar_runs", "count/op"),
    "analysis.store.bytes_written": ("analysis.store.bytes_written", "B/op"),
}

#: Hit ratios: metric → (lookup count, miss count).
LAYER_RATIOS = {
    "partition.cache_hit_ratio": ("partition.lookups", "partition.computed"),
    "perfmodel.calibrate.memo_hit_ratio": (
        "perfmodel.calibrate.lookups", "perfmodel.calibrate.computed"),
}

#: Values a workload measures itself (zero where it has no such layer).
LAYER_EXTRA = {
    "analysis.resume_s": "s",
    "core.cache.hit_ratio": "ratio",
    "service.coalesced": "count",
    "service.computed": "count",
    "service.queue_wait_s": "s",
    "service.gen_lag_p90_s": "s",
}

TRACE_SUMMARY = {
    "trace.coverage": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
}


def per_layer_units() -> dict:
    units = {name: "s" for name in LAYER_TIMES}
    units.update({name: unit for name, (_, unit) in LAYER_COUNTS.items()})
    units.update({name: "ratio" for name in LAYER_RATIOS})
    units.update(LAYER_EXTRA)
    units.update(TRACE_SUMMARY)
    return units


def quantile(values: list, q: float) -> float:
    """Inclusive (linear) quantile of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def fingerprint() -> dict:
    """What the numbers depend on besides the code under test."""
    import numpy

    from repro.simmpi import _kernels

    commit = None
    if (checkout.ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout.ROOT,
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(checkout.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(checkout.SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "jit_enabled": bool(_kernels.JIT_ENABLED),
    }


def mix_latencies(phase) -> list:
    """One pass over the phase's mix, each operation at the median scaled
    latency of its class in the run (see ``speed.py``)."""
    repeats: dict = {}
    for key, latency, scale in zip(phase.keys, phase.latencies, phase.scales):
        repeats.setdefault(key, []).append(latency * scale)
    return [statistics.median(repeats[key]) for key in phase.mix]


def end_to_end_metrics(phase, setup_times: list, rss_mb: float) -> dict:
    """Latency and throughput of the timed phase.

    A closed loop over a fixed mix takes its percentiles over one pass of
    the mix (:func:`mix_latencies`), so a quantile falls at the same place
    in the mix in every run, and its throughput is the pass's operations
    over the pass's time.  The open loop takes its percentiles over every
    request, and its throughput is what it completed per second.
    """
    lat = phase.latencies
    if phase.mix:
        cycle = mix_latencies(phase)
        p50, p90, rate = statistics.median(cycle), quantile(cycle, 0.9), len(cycle) / sum(cycle)
    else:
        p50, p90, rate = statistics.median(lat), quantile(lat, 0.9), len(lat) / phase.wall
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "throughput_per_s": rate,
        "peak_rss_mb": rss_mb,
    }


def layer_table(records, counts, window, ops: int, span_wall: float, out) -> tuple:
    """Print the self-time table of ``window``; return its summaries."""
    self_time, calls, totals = spans.summarize(records, counts, *window)
    out(f"  {'layer':<28}{'calls':>8}{'self s':>11}{'s/op':>11}{'share':>8}")
    for name in sorted(self_time, key=self_time.get, reverse=True):
        out(
            f"  {name:<28}{calls[name]:>8}{self_time[name]:>11.4f}"
            f"{self_time[name] / ops:>11.5f}{self_time[name] / span_wall:>8.1%}"
        )
    return self_time, totals


def per_layer_metrics(tracer, traced, untraced, out) -> dict:
    ops = len(traced.latencies)
    out(f"per-layer self time, traced timed phase ({ops} operations):")
    self_time, totals = layer_table(
        tracer.spans + traced.spans, tracer.counts + traced.counts,
        traced.window, ops, traced.span_wall, out,
    )
    covered = sum(self_time.values())
    if untraced.mix:
        overhead = statistics.median(mix_latencies(traced)) / statistics.median(
            mix_latencies(untraced)
        ) - 1.0
    else:
        overhead = statistics.median(traced.latencies) / statistics.median(
            untraced.latencies
        ) - 1.0
    out(
        f"spans cover {covered / traced.span_wall:.1%} of {traced.span_wall:.3f} s; "
        f"unattributed {max(0.0, traced.span_wall - covered):.4f} s; "
        f"tracing overhead {overhead:+.1%} (traced vs untraced latency_p50_s)"
    )
    metrics = {m: self_time.get(s, 0.0) / ops for m, s in LAYER_TIMES.items()}
    metrics.update({m: totals.get(c, 0) / ops for m, (c, _) in LAYER_COUNTS.items()})
    for metric, (lookups, misses) in LAYER_RATIOS.items():
        looked = totals.get(lookups, 0)
        metrics[metric] = 1.0 - totals.get(misses, 0) / looked if looked else 0.0
    metrics.update({m: traced.extra.get(m, 0.0) for m in LAYER_EXTRA})
    metrics["trace.coverage"] = covered / traced.span_wall
    metrics["trace.unattributed_s"] = max(0.0, traced.span_wall - covered) / ops
    metrics["trace.overhead"] = overhead
    return metrics


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  book: answers.AnswerBook, out=print) -> dict:
    """Run one workload; print its report and return the result object.

    ``book`` checks the answers (and keeps them, for re-capturing the
    reference).
    """
    import workloads

    out(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    out("env " + json.dumps(fingerprint(), sort_keys=True))
    work = checkout.fresh_dir(checkout.WORK, "run-")
    saved_env = {k: os.environ.get(k) for k in ("TMPDIR", "REPRO_CACHE_DIR")}
    saved_tempdir = tempfile.tempdir
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    workload = workloads.WORKLOADS[name](seed, book, work)
    tracer = spans.Tracer() if trace else None
    clocks, setup_windows = [], []
    try:
        for _ in range(workload.setup_repeats):
            start = time.perf_counter()
            clocks.append(speed.Clock())
            workload.setup(tracer, clocks[-1].lap)
            clocks[-1].lap()
            setup_windows.append((start, time.perf_counter()))
        phases = [workload.run(seconds, None)]
        if trace:
            phases.append(workload.run(seconds, tracer))
        workload.finish(phases)
        rss_mb = workload.peak_rss_mb()
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            checkout.WORK.rmdir()
        except OSError:
            pass
        tempfile.tempdir = saved_tempdir
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    attempted = sum(p.attempted for p in phases)
    failed = min(attempted, sum(p.failed for p in phases))
    timed = phases[-1]
    lat = sorted(timed.latencies)
    p90 = quantile(lat, 0.9)
    setup_times = [clock.scaled for clock in clocks]
    out(
        f"setup: median {statistics.median(setup_times):.4f} s of "
        f"{len(setup_times)}: " + ", ".join(f"{t:.4f}" for t in setup_times)
        + "; measured " + ", ".join(f"{clock.measured:.4f}" for clock in clocks)
    )
    out(
        f"operations: {attempted} attempted, {failed} failed, "
        f"error_frac {failed / attempted:.4f}"
    )
    out(
        f"latency, every operation: {len(lat)} samples, p50 {statistics.median(lat):.5f} s, "
        f"p90 {p90:.5f} s ({sum(x > p90 for x in lat)} beyond), "
        f"max {lat[-1]:.5f} s; peak RSS {rss_mb:.1f} MB"
    )
    if timed.mix:
        mix = mix_latencies(timed)
        out(
            f"latency, one pass over the mix of {len(mix)}, each class at its median: "
            f"p50 {statistics.median(mix):.5f} s, p90 {quantile(mix, 0.9):.5f} s, "
            f"pass {sum(mix):.4f} s against {sum(lat) * len(mix) / len(lat):.4f} s "
            f"measured; host speed factor {min(timed.scales):.3f}-{max(timed.scales):.3f}"
        )
    for phase in phases:
        for note in phase.notes:
            out(note)
    for failure in book.failures[:20]:
        out(f"FAILED {failure}")
    if trace:
        metrics = per_layer_metrics(tracer, phases[1], phases[0], out)
        units = per_layer_units()
        start, end = setup_windows[-1]
        if any(start <= record[1] <= end for record in tracer.spans):
            out("per-layer self time, last set-up (in-process spans):")
            layer_table(tracer.spans, tracer.counts, (start, end), 1, end - start, out)
        for target in sorted(tracer.missing):
            out(f"layer not found, not traced: {target}")
    else:
        metrics = end_to_end_metrics(phases[0], setup_times, rss_mb)
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=answers.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    checkout.import_repro()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    book = answers.AnswerBook(answers.load_reference(args.workload, args.seed))
    result = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), book
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
