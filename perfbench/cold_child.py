"""One cold request: a fresh interpreter answers one ``measure`` request.

Run by the ``cold_measure`` workload with ``REPRO_CACHE_DIR`` set to an
empty directory.  Prints one JSON line: the answer, the moment the script
started and the span of its imports (``time.perf_counter`` stamps), and,
with ``--trace 1``, the recorded spans and counts.  ``--imports-only``
stops after the imports; the workload times that as its set-up.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import checkout  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--request", help="PredictionRequest JSON")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--imports-only", action="store_true")
    args = parser.parse_args()

    imports_start = time.perf_counter()
    checkout.import_repro()
    from repro.analysis.store import calibration_store
    from repro.core import PredictionRequest, measure

    import spans

    out = {"start": START, "imports": [imports_start, time.perf_counter()]}
    if not args.imports_only:
        tracer = spans.Tracer()
        if args.trace:
            spans.install(tracer)
        request = PredictionRequest.from_json(args.request)
        result = measure(request, store=calibration_store())
        out["payload"] = result.to_payload()
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main()
