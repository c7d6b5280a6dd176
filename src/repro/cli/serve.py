"""``serve`` — run (or query) the prediction service.

``repro serve`` binds the asyncio HTTP/JSON server and blocks until a
``POST /shutdown`` (or Ctrl-C).  ``--stats`` instead queries a running
server and prints its counters; ``--check`` runs the self-test: start an
ephemeral server, fire a concurrent storm of identical queries, and
assert the exactly-one-simulation and answer-fidelity guarantees.
"""

from __future__ import annotations

import asyncio

from repro.analysis import TextTable, calibration_store, prediction_store
from repro.core import LRUResultCache, PredictionRequest

__all__ = ["cmd_serve", "register"]


def _make_server(args):
    from repro.service import PredictionServer

    cache = LRUResultCache(
        store=None if args.no_cache else prediction_store(),
        max_entries=args.cache_entries,
    )
    return PredictionServer(
        host=args.host,
        port=args.port,
        cache=cache,
        calibration_store=None if args.no_cache else calibration_store(),
    )


def _print_stats(stats: dict) -> None:
    out = TextTable("prediction service counters", ["counter", "value"])
    for name, value in sorted(stats["service"].items()):
        out.add_row(f"service.{name}", value)
    for name, value in sorted(stats["cache"].items()):
        out.add_row(f"cache.{name}", value)
    out.add_row("inflight", stats["inflight"])
    print(out.render())


def _run_server(args) -> int:
    server = _make_server(args)

    async def main() -> None:
        await server.start()
        print(
            f"serving on http://{server.host}:{server.port} "
            f"(POST /predict, POST /measure, GET /stats; "
            f"POST /shutdown to exit)",
            flush=True,
        )
        await server.serve_until_shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("interrupted", flush=True)
    if args.stats:
        _print_stats(server.stats())
    return 0


def _run_check(args) -> int:
    """Self-test: storm an ephemeral in-process server, verify guarantees."""
    from repro.service import PredictionServer, ServiceClient, run_storm

    server = PredictionServer(
        host=args.host, port=0, cache=LRUResultCache(store=None)
    )
    try:
        thread = server.serve_in_thread()
    except RuntimeError:
        print("check FAILED: server did not start")
        return 1

    client = ServiceClient(host=args.host, port=server.port)
    request = PredictionRequest(deck="16x8", ranks=4, max_side=16)
    storm = run_storm(client, [request] * args.check_queries, mode="measure")
    client.shutdown()
    thread.join(timeout=30)

    ok = (
        storm.num_computed == 1
        and storm.distinct_payloads() == 1
        and storm.num_cached == args.check_queries - 1
        and not thread.is_alive()
    )
    print(
        f"storm of {args.check_queries} identical queries: "
        f"{storm.num_computed} simulated, {storm.num_cached} cached, "
        f"{storm.distinct_payloads()} distinct payload(s); "
        f"shutdown {'clean' if not thread.is_alive() else 'HUNG'}"
    )
    if args.stats:
        _print_stats({**{"inflight": 0}, "service": storm.counters,
                      "cache": storm.cache})
    print("check OK" if ok else "check FAILED")
    return 0 if ok else 1


def cmd_serve(args) -> int:
    """Serve predictions over HTTP/JSON (or query/self-test a server)."""
    if args.check:
        return _run_check(args)
    if args.stats and not args.check:
        # --stats alone queries a running server; with the blocking server
        # it prints the final counters after shutdown (handled below).
        try:
            from repro.service import ServiceClient

            client = ServiceClient(host=args.host, port=args.port, timeout=10.0)
            _print_stats(client.stats())
            return 0
        except OSError:
            print(
                f"no server answering on http://{args.host}:{args.port}; "
                "starting one (counters will print on shutdown)"
            )
    return _run_server(args)


def register(sub) -> None:
    """Attach the ``serve`` subparser."""
    p_serve = sub.add_parser(
        "serve",
        help="HTTP/JSON prediction service over the model core",
        description=(
            "Serve PredictionRequest JSON over HTTP: POST /predict and "
            "POST /measure answer with PredictionResult payloads, "
            "coalescing identical concurrent queries onto one computation "
            "and caching results in an in-process LRU over the "
            "content-addressed result store.  GET /stats reports counters; "
            "POST /shutdown exits cleanly."
        ),
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8177, help="TCP port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--cache-entries", type=int, default=256,
        help="in-memory LRU capacity (result payloads)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result/calibration stores (LRU only)",
    )
    p_serve.add_argument(
        "--stats", action="store_true",
        help="query a running server's counters (or print them on shutdown)",
    )
    p_serve.add_argument(
        "--check", action="store_true",
        help="self-test: storm an ephemeral server, verify exactly-one-"
             "simulation and clean shutdown",
    )
    p_serve.add_argument(
        "--check-queries", type=int, default=8,
        help="storm size for --check",
    )
    p_serve.set_defaults(func=cmd_serve)
