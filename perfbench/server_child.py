"""The prediction service under test, in its own process.

Serves on an ephemeral port with a store-backed ``LRUResultCache`` and a
calibration store, both under ``REPRO_CACHE_DIR``.  Prints the port as one
JSON line once it listens; after ``POST /shutdown`` prints one more JSON
line with its peak memory and, with ``--trace 1``, its spans and counts.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource

import checkout


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    checkout.import_repro()
    from repro.analysis.store import calibration_store, prediction_store
    from repro.core.cache import LRUResultCache
    from repro.service.server import PredictionServer

    import spans

    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer)
    server = PredictionServer(
        host="127.0.0.1",
        port=0,
        cache=LRUResultCache(store=prediction_store()),
        calibration_store=calibration_store(),
    )

    async def serve() -> None:
        await server.start()
        print(json.dumps({"port": server.port}), flush=True)
        await server.serve_until_shutdown()

    asyncio.run(serve())
    print(json.dumps({
        "spans": tracer.spans,
        "counts": tracer.counts,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }), flush=True)


if __name__ == "__main__":
    main()
