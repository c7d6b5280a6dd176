"""``repro.bench`` — the machine-readable benchmark subsystem.

A declarative registry of named benchmarks (``repro.bench.workloads``)
wrapping the repository's table/figure workloads and hot-path
micro-benchmarks, a runner with warm-up/repeats/robust stats, JSON report
emission (``BENCH_<suite>.json``), and a comparer that gates regressions
against per-bench thresholds.  Driven by ``repro bench run|list|compare``.
"""

from repro.bench.compare import (
    FAIL,
    PASS,
    WARN,
    CompareEntry,
    CompareResult,
    compare_reports,
    environments_match,
)
from repro.bench.registry import (
    SIZES,
    Benchmark,
    all_benchmarks,
    get_benchmark,
    groups,
    register,
)
from repro.bench.report import (
    SCHEMA,
    build_report,
    environment_fingerprint,
    load_report,
    validate_report,
    write_report,
)
from repro.bench.runner import BenchTiming, robust_stats, run_benchmark, run_suite

__all__ = [
    "SIZES",
    "Benchmark",
    "all_benchmarks",
    "get_benchmark",
    "groups",
    "register",
    "BenchTiming",
    "robust_stats",
    "run_benchmark",
    "run_suite",
    "SCHEMA",
    "build_report",
    "environment_fingerprint",
    "load_report",
    "validate_report",
    "write_report",
    "PASS",
    "WARN",
    "FAIL",
    "CompareEntry",
    "CompareResult",
    "compare_reports",
    "environments_match",
]
