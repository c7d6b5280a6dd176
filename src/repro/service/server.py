"""Asyncio prediction service: ``repro serve``.

A small stdlib-only HTTP/JSON server over the model core.  Concurrent
clients POST :class:`~repro.core.request.PredictionRequest` JSON to
``/predict`` or ``/measure``; the server answers with
:meth:`~repro.core.request.PredictionResult.to_payload` dicts.
``/calibrate`` accepts a ``repro-trace`` phase-log document, fits model
parameters to it (:func:`repro.trace.replay.fit_calibration`), stores
the artifact in the calibrations store, and returns its key — which
follow-up requests reference via their ``calibration`` field.

Three rules keep a query storm cheap and bounded:

* **Result caching** — every request is content-hashed
  (:func:`repro.core.pipeline.request_key`) and answered through an
  in-process :class:`~repro.core.cache.LRUResultCache`, optionally
  write-through to the on-disk ``predictions`` namespace of the result
  store, so identical questions across connections and server restarts
  are never re-simulated.  That namespace is the one ``repro sweep``
  stores its points in, so a finished sweep point is a cache hit here.
* **In-flight coalescing** — identical requests that arrive while the
  first one is still computing await the same future; a storm of N equal
  queries executes exactly one simulation.
* **Bounded misses** — each distinct miss is one task running the core
  pipeline on the default executor; past :data:`_MAX_INFLIGHT` of them,
  the next distinct miss is answered ``503`` with ``Retry-After: 1``.
  Calibration tables are memoised process-wide, so concurrent misses
  over one machine calibrate once.

The wire format is deliberately minimal HTTP/1.1 (one request per
connection, ``Connection: close``) so the stdlib is enough on both ends;
see ``docs/service.md`` for the schema and a curl cookbook.
"""

from __future__ import annotations

import asyncio
import json
import threading

from repro.core.cache import LRUResultCache
from repro.core.pipeline import measure, predict, request_key
from repro.core.request import PredictionRequest
from repro.partition.cache import unreadable_count
from repro.trace.replay import fit_calibration
from repro.trace.schema import TraceDoc, TraceFormatError

__all__ = ["PredictionServer"]

_MAX_BODY_BYTES = 1 << 20

#: Distinct cache misses computing at once.  One more distinct miss is
#: answered 503 with ``Retry-After``; cache hits and requests coalescing
#: onto a miss in flight are not counted against it.
_MAX_INFLIGHT = 64

#: Seconds a client has to deliver its request line, headers and body.  A
#: client that stalls past it is answered 408 and disconnected; evaluating
#: the request is not part of the deadline.
_READ_DEADLINE_S = 30.0


class _MalformedRequest(ValueError):
    """A request that cannot be parsed off the wire (answered 400)."""


class _Overloaded(RuntimeError):
    """A distinct miss over the in-flight bound (answered 503)."""


class PredictionServer:
    """The serving loop: HTTP front end, coalescing cache, bounded misses.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`port` after :meth:`start`).
    cache:
        The result cache (defaults to a fresh in-memory
        :class:`~repro.core.cache.LRUResultCache`; give it a ``store`` to
        persist results server-side).
    calibration_store:
        Optional ``get``/``put`` store for trace-fitted calibrations,
        shared with the CLI's ``calibrations`` namespace.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8177,
                 cache: LRUResultCache | None = None,
                 calibration_store=None) -> None:
        self.host = host
        self.port = port
        self.cache = cache if cache is not None else LRUResultCache()
        self.calibration_store = calibration_store
        self._server: asyncio.AbstractServer | None = None
        #: key → the task computing that miss (itself the shared future).
        self._inflight: dict = {}
        self._shutdown = None
        self.counters = {
            "requests": 0,
            "predictions": 0,
            "measurements": 0,
            "calibrations": 0,
            "computed": 0,
            "coalesced": 0,
            "overloaded": 0,
            "errors": 0,
        }

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind the listener."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Serve until ``POST /shutdown`` (or :meth:`request_shutdown`)."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    def serve_in_thread(self) -> threading.Thread:
        """Serve on a daemon thread with its own event loop.

        Returns the thread once the listener is bound, so :attr:`port` is
        final.  ``POST /shutdown`` ends it; join the thread after that.
        """
        started = threading.Event()

        async def main() -> None:
            try:
                await self.start()
            finally:
                started.set()
            await self.serve_until_shutdown()

        thread = threading.Thread(target=asyncio.run, args=(main(),), daemon=True)
        thread.start()
        if not started.wait(timeout=30) or self._server is None:
            raise RuntimeError("prediction server did not start")
        return thread

    def request_shutdown(self) -> None:
        self._shutdown.set()

    # ------------------------------------------------------------ evaluation

    async def _compute(self, key: str, mode: str, request) -> dict:
        """One miss: evaluate on the executor, write through the cache,
        leave the in-flight map; the task's result is the payload."""
        run = measure if mode == "measure" else predict
        try:
            result = await asyncio.get_running_loop().run_in_executor(
                None, run, request, self.calibration_store
            )
            payload = result.to_payload()
            self.counters["computed"] += 1
            self.cache.put(key, payload)
            return payload
        finally:
            del self._inflight[key]

    async def answer(self, mode: str, request: PredictionRequest) -> tuple:
        """Resolve one request; returns ``(payload, cached, key)``.

        The cache answers repeats; an in-flight task coalesces identical
        concurrent requests onto one computation; any other miss starts
        its own task, unless :data:`_MAX_INFLIGHT` misses are already
        computing (then :class:`_Overloaded`).
        """
        key = request_key(request, mode)
        payload = self.cache.get(key)
        if payload is not None:
            return payload, True, key
        task = self._inflight.get(key)
        if task is not None:
            self.counters["coalesced"] += 1
            return await asyncio.shield(task), True, key
        if len(self._inflight) >= _MAX_INFLIGHT:
            self.counters["overloaded"] += 1
            raise _Overloaded(
                f"{len(self._inflight)} distinct requests already computing"
            )
        task = asyncio.create_task(self._compute(key, mode, request))
        self._inflight[key] = task
        return await asyncio.shield(task), False, key

    def stats(self) -> dict:
        """Counter snapshot: service counters, cache tiers, and the
        process's count of unusable partition cache files."""
        return {
            "service": dict(self.counters),
            "cache": self.cache.stats(),
            "inflight": len(self._inflight),
            "partition_unreadable": unreadable_count(),
        }

    # ------------------------------------------------------------ HTTP layer

    async def _handle_connection(self, reader, writer) -> None:
        try:
            status, payload = await self._handle_request(reader)
        except Exception as exc:
            self.counters["errors"] += 1
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(payload, sort_keys=True).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  408: "Request Timeout", 500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "OK")
        retry = "Retry-After: 1\r\n" if status == 503 else ""
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n{retry}"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body
        )
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass

    async def _handle_request(self, reader) -> tuple:
        try:
            async with asyncio.timeout(_READ_DEADLINE_S):
                method, path, body = await self._read_request(reader)
        except TimeoutError:
            return 408, {
                "error": f"request not received within {_READ_DEADLINE_S:g} s"
            }
        except _MalformedRequest as exc:
            return 400, {"error": str(exc)}
        return await self._dispatch(method, path, body)

    async def _read_request(self, reader) -> tuple:
        """``(method, path, body)`` of one request off the wire."""
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _MalformedRequest("empty request")
        try:
            method, path, _ = request_line.split(" ", 2)
        except ValueError:
            raise _MalformedRequest(
                f"malformed request line {request_line!r}"
            ) from None
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                text = value.strip()
                if not (text.isascii() and text.isdigit()):
                    raise _MalformedRequest(f"invalid Content-Length {text!r}")
                content_length = int(text)
        if content_length > _MAX_BODY_BYTES:
            raise _MalformedRequest("request body too large")
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError as exc:
            raise _MalformedRequest(
                f"request body ended after {len(exc.partial)} of "
                f"{content_length} bytes"
            ) from None
        return method, path, body

    async def _dispatch(self, method: str, path: str, body: bytes) -> tuple:
        self.counters["requests"] += 1
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True}
        if method == "GET" and path == "/stats":
            return 200, self.stats()
        if method == "POST" and path == "/shutdown":
            self.request_shutdown()
            return 200, {"ok": True, "shutting_down": True}
        if method == "POST" and path == "/calibrate":
            # Trace ingestion: fit the posted repro-trace document and
            # persist the artifact so follow-up /predict requests can
            # reference it via their ``calibration`` field.
            self.counters["calibrations"] += 1
            try:
                doc = TraceDoc.from_payload(json.loads(body or b"{}"))
            except (TraceFormatError, ValueError, TypeError, KeyError) as exc:
                return 400, {"error": f"invalid trace: {exc}"}
            loop = asyncio.get_running_loop()
            try:
                calibration = await loop.run_in_executor(
                    None, fit_calibration, doc
                )
            except ValueError as exc:
                return 400, {"error": f"invalid trace: {exc}"}
            key = calibration.store_key()
            if self.calibration_store is not None:
                self.calibration_store.put(key, calibration.to_payload())
            return 200, {
                "key": key,
                "stored": self.calibration_store is not None,
                "meta": dict(calibration.meta),
            }
        if method == "POST" and path in ("/predict", "/measure"):
            mode = path.lstrip("/")
            self.counters[
                "measurements" if mode == "measure" else "predictions"
            ] += 1
            try:
                request = PredictionRequest.from_dict(json.loads(body or b"{}"))
            except (ValueError, TypeError, KeyError) as exc:
                return 400, {"error": f"invalid request: {exc}"}
            try:
                payload, cached, key = await self.answer(mode, request)
            except (ValueError, TypeError) as exc:
                return 400, {"error": f"{exc}"}
            except _Overloaded as exc:
                return 503, {"error": f"server busy: {exc}"}
            return 200, {"result": payload, "cached": cached, "key": key}
        return 404, {"error": f"no route for {method} {path}"}
