"""Concurrent query-storm load driver for the prediction service.

Fires N concurrent HTTP queries (threads, one connection each — the
sharpest concurrency the stdlib offers against an asyncio server) and
checks the service's two load-bearing guarantees:

* **Exactly-one-simulation** — a storm of identical queries must execute
  the core pipeline once; every other answer is a cache hit or an
  in-flight coalesce.
* **Answer fidelity** — every served payload is byte-identical across
  the storm (same key → same JSON), so a cached answer can never drift
  from the computed one.

Used by the ``service.query_storm`` benchmark, the CI service-smoke
lane, and ``repro serve --check``.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.service.client import ServiceClient

__all__ = ["StormResult", "run_storm"]


@dataclass(frozen=True)
class StormResult:
    """Outcome of one storm: answers plus the server's own accounting."""

    #: One result per query, in submission order.
    results: tuple
    #: Parallel tuple of the server's ``cached`` flag per query.
    cached_flags: tuple
    #: Server counter delta across the storm (``requests``, ``computed``, …).
    counters: dict
    #: Cache-tier delta across the storm (memory/store hits, misses).
    cache: dict = field(default_factory=dict)

    @property
    def num_computed(self) -> int:
        """Simulations the storm actually triggered server-side."""
        return self.counters["computed"]

    @property
    def num_cached(self) -> int:
        """Queries answered without entering the pipeline."""
        return sum(1 for flag in self.cached_flags if flag)

    def distinct_payloads(self) -> int:
        """Number of distinct answers (canonical-JSON identity)."""
        return len(
            {json.dumps(r.to_payload(), sort_keys=True) for r in self.results}
        )


def _delta(before: dict, after: dict) -> dict:
    return {
        name: after[name] - before[name]
        for name in after
        if isinstance(after[name], (int, float)) and name in before
    }


def run_storm(
    client: ServiceClient,
    requests,
    mode: str = "measure",
    concurrency: int = 8,
) -> StormResult:
    """Fire every request concurrently against ``client``'s server.

    ``requests`` may repeat — that is the point: repeats exercise the
    coalescing/caching layers.  Returns the per-query results plus the
    server-side counter deltas, which is what the invariant checks gate.
    """
    requests = list(requests)
    if not requests:
        raise ValueError("a storm needs at least one request")
    if mode not in ("predict", "measure"):
        raise ValueError(f"unknown storm mode {mode!r}")
    query = client.measure_detailed if mode == "measure" else client.predict_detailed
    before = client.stats()
    with ThreadPoolExecutor(max_workers=min(concurrency, len(requests))) as pool:
        answers = list(pool.map(query, requests))
    after = client.stats()
    return StormResult(
        results=tuple(result for result, _ in answers),
        cached_flags=tuple(cached for _, cached in answers),
        counters=_delta(before["service"], after["service"]),
        cache=_delta(before["cache"], after["cache"]),
    )
