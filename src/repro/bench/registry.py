"""Declarative benchmark registry.

Every performance-relevant workload in the repository — the table/figure
regeneration benches under ``benchmarks/`` plus the hot-path
micro-benchmarks — is registered here as a named :class:`Benchmark` with
sized variants, so one runner can time any subset reproducibly and the
``benchmarks/bench_*.py`` scripts stay thin clients of the same entries.

Names are ``<group>.<bench>`` (``table3.boundary_exchange_model``,
``micro.engine_event_loop``).  Sizes are ``smoke`` (seconds-scale, run in
CI on every push) and ``full`` (the fidelity-grade variant the pytest
benches use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

#: The two standard variants every benchmark provides.
SIZES = ("smoke", "full")


@dataclass(frozen=True)
class Benchmark:
    """One registered workload.

    Attributes
    ----------
    name:
        Unique ``<group>.<bench>`` identifier.
    group:
        Grouping key (``table3``, ``figure5``, ``micro``, …).
    description:
        One-line summary shown by ``repro bench list``.
    source:
        Repository-relative path of the file this workload mirrors or
        exercises (a ``benchmarks/bench_*.py`` script or a hot-path
        module).
    setup:
        ``setup(size)`` builds the timed workload's inputs; its cost is
        *excluded* from timing.
    run:
        ``run(context)`` executes the timed workload once.
    invariants:
        Optional ``invariants(context, result)`` returning a JSON-able
        mapping of simulated/predicted quantities that must not drift
        between runs — ``repro bench compare`` fails when they change.
    warmup, repeats:
        Default repetition counts for the runner.
    threshold:
        Per-bench relative regression threshold for ``compare`` (0.30 =
        fail when more than 30 % slower than baseline; more than 30 %
        *faster* only warns, flagging a stale baseline).
    """

    name: str
    group: str
    description: str
    source: str
    setup: Callable[[str], Any]
    run: Callable[[Any], Any]
    invariants: Callable[[Any, Any], Mapping] | None = None
    warmup: int = 1
    repeats: int = 5
    threshold: float = 0.30

    def __post_init__(self) -> None:
        if "." not in self.name:
            raise ValueError(f"benchmark name must be <group>.<bench>: {self.name!r}")
        if not self.name.startswith(self.group + "."):
            raise ValueError(f"{self.name!r} must start with its group {self.group!r}")
        if self.warmup < 0 or self.repeats < 1:
            raise ValueError("need warmup >= 0 and repeats >= 1")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")


_REGISTRY: dict[str, Benchmark] = {}
_LOADED = False


def register(bench: Benchmark) -> Benchmark:
    """Add ``bench`` to the registry (name must be unused)."""
    if bench.name in _REGISTRY:
        raise ValueError(f"benchmark {bench.name!r} already registered")
    _REGISTRY[bench.name] = bench
    return bench


def _ensure_loaded() -> None:
    """Import the workload definitions exactly once.

    ``_LOADED`` flips only after the import *succeeds*; a failed import
    rolls back any partial registrations so the next call retries cleanly
    instead of silently serving a truncated registry.
    """
    global _LOADED
    if not _LOADED:
        try:
            from repro.bench import workloads  # noqa: F401  (registers on import)
        except BaseException:
            _REGISTRY.clear()
            raise
        _LOADED = True


def all_benchmarks() -> dict[str, Benchmark]:
    """Name → benchmark, in registration order."""
    _ensure_loaded()
    return dict(_REGISTRY)


def get_benchmark(name: str) -> Benchmark:
    """Look up one benchmark by name."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown benchmark {name!r}; registered: {known}") from None


def groups() -> list[str]:
    """Distinct groups, in first-registration order."""
    _ensure_loaded()
    seen: dict[str, None] = {}
    for bench in _REGISTRY.values():
        seen.setdefault(bench.group, None)
    return list(seen)
