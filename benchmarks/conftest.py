"""Shared benchmark fixtures.

Every bench regenerates one of the paper's tables or figures: the fixture
layer builds the inputs (decks, cached partitions, calibrated cost tables)
and each bench times a representative kernel while writing the reproduced
table/figure to ``benchmarks/reports/`` for EXPERIMENTS.md.

The timed workloads themselves live in the :mod:`repro.bench` registry
(``repro bench list``); the ``registry_bench`` fixture is how a script
times one of them, and when pytest-benchmark is unavailable a minimal
stand-in fixture keeps the whole suite runnable under plain pytest (the
workload executes once, untimed).
"""

from __future__ import annotations

from pathlib import Path

import pytest

# The fixtures and the registry's setups read the same core per-process
# memos, so one pytest session never builds the same deck or calibration
# table twice (once for a report test's fixture, once for a registry
# bench's setup).
from repro.core import ClusterSpec, calibration_table, deck_for
from repro.perfmodel import default_sample_sides

try:  # pragma: no cover - exercised via the no-plugin CI lane
    import pytest_benchmark  # noqa: F401

    HAVE_PYTEST_BENCHMARK = True
except ImportError:
    HAVE_PYTEST_BENCHMARK = False

REPORTS_DIR = Path(__file__).resolve().parent / "reports"


def pytest_configure(config):
    """Keep ``@pytest.mark.benchmark`` valid without the plugin."""
    if not HAVE_PYTEST_BENCHMARK:
        config.addinivalue_line(
            "markers", "benchmark(group): pytest-benchmark timing group (plugin absent)"
        )


if not HAVE_PYTEST_BENCHMARK:

    class _FallbackBenchmark:
        """Plugin-free ``benchmark`` stand-in: run once, no timing."""

        def __call__(self, fn, *args, **kwargs):
            return fn(*args, **kwargs)

        def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
            return fn(*args, **(kwargs or {}))

    @pytest.fixture()
    def benchmark():
        return _FallbackBenchmark()


@pytest.fixture(scope="session")
def registry_bench():
    """Time a :mod:`repro.bench` registry entry with pytest-benchmark.

    Returns ``(bench, context, result)`` so callers can assert on the
    workload's invariants.  This is the thin-client path: the script names
    the registry entry; setup, run, and invariants all come from there.
    """
    from repro.bench import SIZES, get_benchmark

    def run(benchmark, name, size="full", rounds=None):
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}, got {size!r}")
        bench = get_benchmark(name)
        context = bench.setup(size)
        if rounds is not None:
            result = benchmark.pedantic(
                bench.run, args=(context,), rounds=rounds, iterations=1
            )
        else:
            result = benchmark(bench.run, context)
        return bench, context, result

    return run


@pytest.fixture(scope="session")
def cluster():
    """The simulated ES-45/QsNet-like validation machine."""
    return ClusterSpec().build()


@pytest.fixture(scope="session")
def fine_cost_table(cluster):
    """Contrived-grid cost table over the full Figure 3 range."""
    return calibration_table(cluster, default_sample_sides(512))


@pytest.fixture(scope="session")
def small_deck():
    return deck_for("small")


@pytest.fixture(scope="session")
def medium_deck():
    return deck_for("medium")


@pytest.fixture(scope="session")
def large_deck():
    return deck_for("large")


@pytest.fixture(scope="session")
def report_writer():
    """Write a named report file and echo it to stdout."""
    REPORTS_DIR.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        path = REPORTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[report written to {path}]")

    return write
