"""Asyncio prediction service: ``repro serve``.

A small stdlib-only HTTP/JSON server over the model core.  Concurrent
clients POST :class:`~repro.core.request.PredictionRequest` JSON to
``/predict`` or ``/measure``; the server answers with
:meth:`~repro.core.request.PredictionResult.to_payload` dicts.
``/calibrate`` accepts a ``repro-trace`` phase-log document, fits model
parameters to it (:func:`repro.trace.replay.fit_calibration`), stores
the artifact in the calibrations store, and returns its key — which
follow-up requests reference via their ``calibration`` field.

Three layers keep a query storm cheap:

* **Result caching** — every request is content-hashed
  (:func:`repro.core.pipeline.request_key`) and answered through an
  in-process :class:`~repro.core.cache.LRUResultCache`, optionally
  write-through to the on-disk ``predictions`` namespace of the result
  store, so identical questions across batches, connections, and server
  restarts are never re-simulated.
* **In-flight coalescing** — identical requests that arrive while the
  first one is still computing await the same future; a storm of N equal
  queries executes exactly one simulation.
* **Batched single-worker execution** — distinct misses are drained from
  a queue in batches by one worker task and evaluated together on the
  executor; each evaluation runs the core pipeline's vectorized
  ``tmsg_many`` pricing paths, and calibration tables are memoised
  process-wide (:func:`repro.core.assemble.calibration_table`), so a
  batch over one machine calibrates once.

The wire format is deliberately minimal HTTP/1.1 (one request per
connection, ``Connection: close``) so the stdlib is enough on both ends;
see ``docs/service.md`` for the schema and a curl cookbook.
"""

from __future__ import annotations

import asyncio
import json

from repro.core.cache import LRUResultCache
from repro.core.pipeline import measure, predict, request_key
from repro.core.request import PredictionRequest
from repro.partition.cache import unreadable_count
from repro.trace.replay import fit_calibration
from repro.trace.schema import TraceDoc, TraceFormatError

__all__ = ["PredictionServer"]

_MAX_BODY_BYTES = 1 << 20

#: Seconds a client has to deliver its request line, headers and body.  A
#: client that stalls past it is answered 408 and disconnected; evaluating
#: the request is not part of the deadline.
_READ_DEADLINE_S = 30.0


class _MalformedRequest(ValueError):
    """A request that cannot be parsed off the wire (answered 400)."""


class _Job:
    """One queued cache miss: a key, its request, and the shared future."""

    __slots__ = ("key", "mode", "request", "future")

    def __init__(self, key, mode, request, future):
        self.key = key
        self.mode = mode
        self.request = request
        self.future = future


class PredictionServer:
    """The serving loop: HTTP front end, coalescing cache, batch worker.

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
        Optional ``get``/``put`` store for calibrated cost tables, shared
        with the CLI's ``calibrations`` namespace.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8177,
                 cache: LRUResultCache | None = None,
                 calibration_store=None) -> None:
        self.host = host
        self.port = port
        self.cache = cache if cache is not None else LRUResultCache()
        self.calibration_store = calibration_store
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._worker_task: asyncio.Task | None = None
        self._inflight: dict = {}
        self._shutdown = None
        self.counters = {
            "requests": 0,
            "predictions": 0,
            "measurements": 0,
            "calibrations": 0,
            "computed": 0,
            "coalesced": 0,
            "batches": 0,
            "largest_batch": 0,
            "errors": 0,
        }

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind the listener and launch the batch worker."""
        self._queue = asyncio.Queue()
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._worker_task = asyncio.create_task(self._worker())

    async def serve_until_shutdown(self) -> None:
        """Serve until ``POST /shutdown`` (or :meth:`request_shutdown`)."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def stop(self) -> None:
        """Close the listener and drain the worker cleanly."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._worker_task is not None:
            self._worker_task.cancel()
            try:
                await self._worker_task
            except asyncio.CancelledError:
                pass
            self._worker_task = None

    # ------------------------------------------------------------ evaluation

    def _evaluate(self, job: _Job):
        """Run one request through the core pipeline (executor thread)."""
        run = measure if job.mode == "measure" else predict
        return run(job.request, store=self.calibration_store)

    async def _worker(self) -> None:
        """Single-worker batch loop: drain every queued miss, evaluate the
        batch concurrently on the executor, resolve the shared futures."""
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            while not self._queue.empty():
                batch.append(self._queue.get_nowait())
            self.counters["batches"] += 1
            self.counters["largest_batch"] = max(
                self.counters["largest_batch"], len(batch)
            )

            async def run_job(job: _Job) -> None:
                try:
                    result = await loop.run_in_executor(None, self._evaluate, job)
                except Exception as exc:  # surface, don't kill the worker
                    if not job.future.done():
                        job.future.set_exception(exc)
                else:
                    self.counters["computed"] += 1
                    self.cache.put(job.key, result.to_payload())
                    if not job.future.done():
                        job.future.set_result(result.to_payload())
                finally:
                    self._inflight.pop(job.key, None)

            await asyncio.gather(*(run_job(job) for job in batch))

    async def answer(self, mode: str, request: PredictionRequest) -> tuple:
        """Resolve one request; returns ``(payload, cached, key)``.

        The cache answers repeats; an in-flight future coalesces identical
        concurrent requests onto one computation; everything else queues
        for the batch worker.
        """
        key = request_key(request, mode)
        payload = self.cache.get(key)
        if payload is not None:
            return payload, True, key
        future = self._inflight.get(key)
        if future is not None:
            self.counters["coalesced"] += 1
            return await asyncio.shield(future), True, key
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        await self._queue.put(_Job(key, mode, request, future))
        return await asyncio.shield(future), False, key

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
                  408: "Request Timeout",
                  500: "Internal Server Error"}.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
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
            calibration = await loop.run_in_executor(None, fit_calibration, doc)
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
            return 200, {"result": payload, "cached": cached, "key": key}
        return 404, {"error": f"no route for {method} {path}"}
