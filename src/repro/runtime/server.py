"""Async serving front: request coalescing over :class:`DiagnosisService`.

The paper's end goal is an online diagnoser: measured frequency
responses arrive concurrently and must be classified against the
fault-trajectory dictionary at interactive latency. Classification is
throughput-bound (the trajectory classifier amortises its fixed NumPy
cost over rows), so the win is *micro-batching*: concurrent requests for
the same circuit and diagnosis mode are coalesced into one
:meth:`~repro.diagnosis.classifier.TrajectoryClassifier.classify_points`
call (or,
in ``"posterior"`` mode, one
:meth:`~repro.diagnosis.posterior.PosteriorDiagnoser.diagnose_points`
call) and the results sliced back per request.

Equivalence guarantee
---------------------
A coalesced flush converts every request to signature points with the
same code path a lone ``submit`` uses
(:meth:`TrajectoryClassifier.signatures`), concatenates the points, and
diagnoses them in one call. Both modes are row-independent, so each
request's answers are **bitwise-identical** to what a sequential
:meth:`DiagnosisService.submit` (or
:meth:`~DiagnosisService.diagnose_posterior`) would have returned --
the property tests in ``tests/test_serving.py`` pin this down across
modes, circuits, batch sizes and arrival interleavings.

Knobs
-----
``window_seconds``
    Micro-batching window: the longest the first request of a batch
    waits for company. The flush fires as soon as one event-loop pass
    brings no new arrival for the queue, or when the window expires.
``max_batch``
    Row budget per coalesced batch: reaching it flushes immediately
    (no window wait).
``max_pending`` / ``overflow``
    Backpressure: with more than ``max_pending`` requests queued or in
    flight, new submits either wait for capacity (``"wait"``, default)
    or fail fast with :class:`ServiceOverloadedError` (``"reject"``).

A minimal stdlib HTTP front (:class:`DiagnosisHTTPServer`, asyncio
streams -- no new runtime dependencies) exposes the service over the
JSON codec in :mod:`repro.runtime.codec`.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..diagnosis.classifier import ResponseBatch
from ..errors import (ClusterError, CodecError, ServiceError,
                      ServiceOverloadedError)
from . import codec, telemetry
from .service import DiagnosisService

__all__ = ["AsyncDiagnosisService", "DiagnosisHTTPServer", "ROUTES",
           "route_for", "serve"]

_OVERFLOW_KINDS = ("wait", "reject")

#: Diagnosis routes: path -> (mode, accepted body shape), with the
#: shapes of :func:`~repro.runtime.codec.decode_requests`.
ROUTES: Dict[str, Tuple[str, str]] = {
    "/v1/diagnose": ("hard", "single"),
    "/v1/diagnose-many": ("hard", "burst"),
    "/v1/diagnose-posterior": ("posterior", "either"),
}


def route_for(mode: str, shape: str) -> str:
    """The diagnosis route serving ``mode`` requests of body ``shape``
    (``"single"`` or ``"burst"``)."""
    for path, (route_mode, route_shape) in ROUTES.items():
        if route_mode == mode and route_shape in (shape, "either"):
            return path
    raise ServiceError(f"no route for mode {mode!r} with a {shape} body")


def _count_rows(responses: ResponseBatch) -> int:
    """Rows a request contributes to a batch, without converting it."""
    if isinstance(responses, np.ndarray):
        if responses.ndim != 2:
            raise ServiceError(
                f"expected an (N, F) magnitude matrix, got shape "
                f"{responses.shape}")
        return int(responses.shape[0])
    try:
        return len(responses)                      # type: ignore[arg-type]
    except TypeError as exc:
        raise ServiceError(
            "responses must be an (N, F) array or a sequence of "
            "FrequencyResponse objects") from exc


class _Pending:
    """One queued request: its raw responses and the result future."""

    __slots__ = ("responses", "rows", "future", "enqueued_at")

    def __init__(self, responses: ResponseBatch, rows: int,
                 future: "asyncio.Future[list]") -> None:
        self.responses = responses
        self.rows = rows
        self.future = future
        self.enqueued_at = time.perf_counter()


class _CircuitQueue:
    """Pending requests for one (mode, circuit) plus the window timer."""

    __slots__ = ("items", "rows", "timer")

    def __init__(self) -> None:
        self.items: List[_Pending] = []
        self.rows = 0
        self.timer: Optional["asyncio.Task[None]"] = None


class AsyncDiagnosisService:
    """Awaitable, coalescing front over a :class:`DiagnosisService`.

    Single-loop object: construct and use it from one running asyncio
    event loop. The wrapped :class:`DiagnosisService` stays fully usable
    from other threads (its engine cache and stats are thread-safe);
    engine warm-ups triggered by async requests run on the loop's
    default thread pool so the loop never blocks on a pipeline build.

    Parameters
    ----------
    service:
        The synchronous service to front. Built from
        ``service_kwargs`` (forwarded to :class:`DiagnosisService`)
        when omitted.
    window_seconds:
        Micro-batching window (seconds): the upper bound on a batch's
        wait, which ends as soon as one event-loop pass brings no new
        arrival. ``0.0`` still coalesces whatever arrives within one
        loop iteration.
    max_batch:
        Flush as soon as a circuit's queued rows reach this budget.
    max_pending:
        Backpressure bound on requests queued or in flight.
    overflow:
        ``"wait"`` parks new submits until capacity frees;
        ``"reject"`` raises :class:`ServiceOverloadedError` instead.

    Coalesced batches are diagnosed inline on the loop (a classify call
    is microseconds-scale); engine warm-ups and posterior builds run on
    the loop's default executor.
    """

    def __init__(self, service: Optional[DiagnosisService] = None, *,
                 window_seconds: float = 0.002, max_batch: int = 64,
                 max_pending: int = 1024, overflow: str = "wait",
                 **service_kwargs) -> None:
        if service is None:
            service = DiagnosisService(**service_kwargs)
        elif service_kwargs:
            raise ServiceError(
                "pass either a prebuilt service or DiagnosisService "
                "kwargs, not both")
        if window_seconds < 0.0:
            raise ServiceError("window_seconds must be >= 0")
        if max_batch < 1:
            raise ServiceError("max_batch must be >= 1")
        if max_pending < 1:
            raise ServiceError("max_pending must be >= 1")
        if overflow not in _OVERFLOW_KINDS:
            raise ServiceError(
                f"overflow must be one of {_OVERFLOW_KINDS}, "
                f"got {overflow!r}")
        self.service = service
        self.window_seconds = window_seconds
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.overflow = overflow
        self._queues: Dict[Tuple[str, str], _CircuitQueue] = {}
        self._inflight: Set["asyncio.Task[None]"] = set()
        self._pending = 0
        self._waiters = 0        # submits parked on backpressure
        self._capacity = asyncio.Condition()
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection / passthrough
    # ------------------------------------------------------------------
    @property
    def stats(self):
        return self.service.stats

    @property
    def queue_depth(self) -> int:
        """Requests currently queued or in flight."""
        return self._pending

    def register(self, name: str, info) -> None:
        self.service.register(name, info)

    # The serving-front surface the HTTP layer programs against --
    # identical on :class:`~repro.runtime.cluster.ClusterService`, so
    # one :class:`DiagnosisHTTPServer` can front either. (Async where
    # a cluster must gather from remote replicas.)
    async def stats_snapshot(self) -> Dict[str, object]:
        return self.service.stats.snapshot()

    async def metrics_text(self) -> str:
        """Prometheus exposition text for ``GET /v1/metrics``."""
        return self.service.metrics_text()

    def known_circuits(self) -> Dict[str, Tuple[str, ...]]:
        return self.service.known_circuits()

    def warmed_circuits(self) -> Tuple[str, ...]:
        return self.service.warmed_circuits

    # Both hops run on the default executor under a copy of the
    # caller's context (asyncio.to_thread), so a cold build nests under
    # the request's span and carries its request id.
    async def warm(self, circuit_name: str):
        """Warm a circuit without blocking the event loop."""
        return await asyncio.to_thread(self.service.warm, circuit_name)

    async def test_vector_hz(self, circuit_name: str) -> Tuple[float, ...]:
        return await asyncio.to_thread(self.service.test_vector_hz,
                                       circuit_name)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, circuit_name: str, responses: ResponseBatch,
                     mode: str = "hard") -> list:
        """Diagnose a batch of measured responses (awaitable).

        ``mode`` (one of :data:`~repro.runtime.codec.MODES`) picks the
        hard classifier or the posterior tier. Concurrent submits of the
        same mode and circuit are coalesced into one batched call;
        results are bitwise-identical to sequential
        :meth:`DiagnosisService.submit` (or
        :meth:`~DiagnosisService.diagnose_posterior`) calls.
        """
        if self._closed:
            raise ServiceError("service is closed")
        if mode not in codec.MODES:
            raise ServiceError(
                f"unknown mode {mode!r}; expected one of {codec.MODES}")
        if not self.service.has_circuit(circuit_name):
            # Fail before any per-circuit queue state is allocated, so
            # a stream of bogus names cannot grow _queues unboundedly.
            raise ServiceError(
                f"unknown circuit {circuit_name!r}; register() it "
                f"first")
        rows = _count_rows(responses)
        with telemetry.TRACER.span("service.submit", circuit=circuit_name,
                                   rows=rows, mode=mode):
            return await self._enqueue((mode, circuit_name), responses,
                                       rows)

    async def submit_many(self, requests: Sequence[Tuple[str,
                                                         ResponseBatch]],
                          mode: str = "hard") -> List[list]:
        """Submit a mixed-circuit burst; one answer list per request.

        Every ``(circuit_name, responses)`` pair is enqueued in the
        same event-loop pass, so the coalescer groups the burst into
        (at most) one call per distinct circuit. Failures stay
        per-request internally (a bad entry never poisons its peers'
        answers); the call then re-raises the first failure, after
        every request has settled so no result future is left
        unretrieved.
        """
        outcomes = await asyncio.gather(
            *(self.submit(circuit_name, responses, mode)
              for circuit_name, responses in requests),
            return_exceptions=True)
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return list(outcomes)

    async def _enqueue(self, queue_key: Tuple[str, str],
                       responses: ResponseBatch, rows: int) -> list:
        """Admit one request into a coalescing queue; await its result."""
        await self._admit()
        loop = asyncio.get_running_loop()
        item = _Pending(responses, rows, loop.create_future())
        queue = self._queues.get(queue_key)
        if queue is None:
            queue = self._queues.setdefault(queue_key, _CircuitQueue())
        queue.items.append(item)
        queue.rows += rows
        self.service.stats.observe_queue_depth(self._pending)
        if queue.rows >= self.max_batch:
            self._start_flush(queue_key)
        elif queue.timer is None:
            queue.timer = loop.create_task(
                self._window_timer(queue_key))
        return await item.future

    async def _admit(self) -> None:
        if self._pending < self.max_pending:
            self._pending += 1
            return
        if self.overflow == "reject":
            self.service.stats.record_rejection()
            raise ServiceOverloadedError(
                f"{self._pending} requests pending "
                f"(max_pending={self.max_pending})")
        self._waiters += 1
        try:
            async with self._capacity:
                while self._pending >= self.max_pending:
                    await self._capacity.wait()
                self._pending += 1
        finally:
            self._waiters -= 1

    async def _settle(self, count: int) -> None:
        self._pending -= count
        self.service.stats.observe_queue_depth(self._pending)
        async with self._capacity:
            self._capacity.notify_all()

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    async def _window_timer(self, queue_key: Tuple[str, str]) -> None:
        queue = self._queues.get(queue_key)
        if queue is None:
            return
        # Adaptive window: give every ready task one full loop pass to
        # enqueue; flush as soon as arrivals go quiet (or the window
        # expires). Closed-loop clients thus never stall on the timer,
        # while a burst still coalesces completely.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.window_seconds
        seen = queue.rows
        try:
            while True:
                await asyncio.sleep(0)
                if queue.rows == seen or loop.time() >= deadline:
                    break
                seen = queue.rows
        except asyncio.CancelledError:
            return
        self._start_flush(queue_key, from_timer=True)

    def _start_flush(self, queue_key: Tuple[str, str], *,
                     from_timer: bool = False) -> None:
        queue = self._queues.get(queue_key)
        if queue is None:
            return
        timer, queue.timer = queue.timer, None
        if timer is not None and not from_timer:
            timer.cancel()
        if not queue.items:
            return
        items, queue.items, queue.rows = queue.items, [], 0
        task = asyncio.get_running_loop().create_task(
            self._run_batch(*queue_key, items))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _stack_signatures(self, classifier, items: Sequence[_Pending]
                          ) -> Tuple[List[_Pending], Optional[np.ndarray]]:
        """Convert each live request to signature points and stack them.

        Conversion failures (wrong width, missing golden, ...) fail only
        the offending request's future, never its batch peers.
        """
        live = [item for item in items
                if not item.future.done()]   # skip cancelled requests
        if not live:
            return live, None
        # Fast path: every request is already a float64 (n, F) matrix of
        # the right width -- concatenate the raw rows and convert once.
        # signatures() is elementwise/row-independent, so this is
        # bitwise-identical to converting per request.
        dimension = classifier.dimension
        if len(live) > 1 and all(
                isinstance(item.responses, np.ndarray)
                and item.responses.dtype == np.float64
                and item.responses.ndim == 2
                and item.responses.shape[1] == dimension
                for item in live):
            raw = np.concatenate([item.responses for item in live],
                                 axis=0)
            try:
                return live, classifier.signatures(raw)
            except Exception as exc:     # noqa: BLE001 -- shared fault
                # e.g. missing golden response: every request is
                # equally affected.
                for item in live:
                    item.future.set_exception(exc)
                return [], None
        points: List[np.ndarray] = []
        converted_live: List[_Pending] = []
        for item in live:
            try:
                converted = classifier.signatures(item.responses)
            except Exception as exc:     # noqa: BLE001 -- per-request fault
                item.future.set_exception(exc)
                continue
            converted_live.append(item)
            points.append(converted)
        if not converted_live:
            return converted_live, None
        if len(points) == 1:
            return converted_live, points[0]
        return converted_live, np.concatenate(points, axis=0)

    async def _run_batch(self, mode: str, circuit_name: str,
                         items: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        try:
            try:
                kernel = self.service._kernel(circuit_name, mode,
                                              build=False)
                if kernel is None:
                    # Cold miss on the engine or its posterior tier: the
                    # pipeline build / Monte-Carlo sweep must not block
                    # the loop. The per-circuit build lock dedupes
                    # racing warm-ups.
                    kernel = await loop.run_in_executor(
                        None, self.service._kernel, circuit_name, mode)
            except Exception as exc:     # noqa: BLE001 -- shared fault
                for item in items:
                    if not item.future.done():
                        item.future.set_exception(exc)
                return
            classifier, answer = kernel
            live, stacked = self._stack_signatures(classifier, items)
            if not live:
                return
            try:
                answers = answer(stacked)
            except Exception as exc:     # noqa: BLE001 -- shared fault
                for item in live:
                    if not item.future.done():
                        item.future.set_exception(exc)
                return
            finished = time.perf_counter()
            offset = 0
            records: List[Tuple[int, float]] = []
            for item in live:
                part = answers[offset:offset + item.rows]
                offset += item.rows
                if not item.future.done():
                    item.future.set_result(part)
                records.append((item.rows, finished - item.enqueued_at))
            self.service.stats.record_answers(
                circuit_name, mode, records, answers, coalesced=True)
        finally:
            await self._settle(len(items))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self, circuit_name: Optional[str] = None) -> None:
        """Force pending batches out immediately (skip the window).

        A circuit name flushes its queues of every mode.
        """
        keys = [(mode, circuit_name) for mode in codec.MODES] \
            if circuit_name is not None else list(self._queues)
        for key in keys:
            self._start_flush(key)

    async def drain(self) -> None:
        """Flush everything and wait until no request is in flight.

        Covers submits parked on backpressure too: drain only returns
        once they have been admitted, flushed and answered.
        """
        while True:
            self.flush()
            tasks = list(self._inflight)
            if not tasks and self._waiters == 0 and \
                    not any(q.items for q in self._queues.values()):
                return
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            else:
                await asyncio.sleep(0)

    async def aclose(self) -> None:
        """Refuse new submits, then drain in-flight work."""
        self._closed = True
        await self.drain()


# ----------------------------------------------------------------------
# Minimal stdlib HTTP front
# ----------------------------------------------------------------------
_HTTP_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                 405: "Method Not Allowed", 413: "Payload Too Large",
                 431: "Request Header Fields Too Large",
                 500: "Internal Server Error",
                 503: "Service Unavailable"}

#: Upper bound on an accepted request body (a diagnosis batch is a few
#: KiB of JSON; anything near this is abuse, not traffic).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Upper bound on the total bytes of one request's header block: real
#: requests carry a handful of short headers, so anything near this is
#: abuse -- without the cap a client could stream header lines at
#: network speed for the whole idle window.
MAX_HEAD_BYTES = 64 * 1024


class _BadRequest(Exception):
    """A request that cannot be served while keeping the connection's
    byte stream synchronised; carries the ready error response."""

    def __init__(self, status: int, payload: bytes) -> None:
        super().__init__(status)
        self.status = status
        self.payload = payload


class _Exchange:
    """One served request/response pair, ready to write and log."""

    __slots__ = ("status", "body", "keep_alive", "content_type",
                 "request_id", "method", "path", "duration_ms")

    def __init__(self, status: int, body: bytes, keep_alive: bool,
                 content_type: str = "application/json",
                 request_id: str = "", method: str = "-",
                 path: str = "-", duration_ms: float = 0.0) -> None:
        self.status = status
        self.body = body
        self.keep_alive = keep_alive
        self.content_type = content_type
        self.request_id = request_id
        self.method = method
        self.path = path
        self.duration_ms = duration_ms


class DiagnosisHTTPServer:
    """JSON-over-HTTP front for an :class:`AsyncDiagnosisService` (or
    anything exposing the same serving-front surface, e.g.
    :class:`~repro.runtime.cluster.ClusterService`).

    Pure stdlib (asyncio streams) with HTTP/1.1 persistent
    connections: requests are served back-to-back (pipelining
    included) on one connection until the client sends
    ``Connection: close``, the peer disconnects, or a parse error
    leaves the stream unsynchronised. Routes:

    * the diagnosis routes of :data:`ROUTES`, one handler for all:
      ``POST /v1/diagnose`` (hard mode, single body
      ``{"circuit": ..., "magnitudes_db": [[...], ...]}``),
      ``POST /v1/diagnose-many`` (hard mode, burst body
      ``{"requests": [...]}``, coalesced per circuit) and
      ``POST /v1/diagnose-posterior`` (posterior mode, either body:
      calibrated fault probabilities plus an information-gain ranking
      of candidate measurement frequencies per row). A single body is
      answered with one answer list, a burst with one list per request.
    * ``GET /v1/stats`` -- :meth:`ServiceStats.snapshot`.
    * ``GET /v1/metrics`` -- Prometheus text exposition 0.0.4 (see
      :mod:`repro.runtime.telemetry`).
    * ``GET /v1/circuits`` -- registered/benchmark/warmed names.
    * ``GET /v1/test-vector/<circuit>`` -- the measurement frequencies
      (warms the circuit when cold).
    * ``GET /v1/healthz`` -- liveness.

    Observability: every request gets (or propagates) an
    ``X-Request-Id`` -- echoed on the response and carried through
    :class:`~repro.runtime.cluster.HTTPReplica` hops -- and is traced
    as an ``http.request`` span. Sending ``X-Repro-Debug: trace``
    embeds the request's span tree in a JSON response under a
    ``"trace"`` key. Access logs go to the ``repro.access`` logger
    (one line per request; JSON lines with ``log_json=True``).
    """

    def __init__(self, service: AsyncDiagnosisService,
                 host: str = "127.0.0.1", port: int = 0,
                 idle_timeout: float = 60.0,
                 shutdown_grace: float = 5.0,
                 access_log: bool = True,
                 log_json: bool = False) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: Emit one ``repro.access`` log line per served request.
        self.access_log = access_log
        #: Structured JSON access-log lines instead of plain text.
        self.log_json = log_json
        self._access_logger = logging.getLogger("repro.access")
        #: Seconds a persistent connection may sit without making
        #: progress (no next request line, stalled headers, or a body
        #: upload with no bytes arriving) before the server reclaims
        #: it -- bounds parked handler tasks and open sockets. Body
        #: reads reset the clock per received chunk, so slow-but-live
        #: uploads survive. <= 0 disables.
        self.idle_timeout = idle_timeout
        #: Seconds aclose() waits for in-flight exchanges to finish
        #: writing their response before cancelling them.
        self.shutdown_grace = shutdown_grace
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing = False
        # Keep-alive leaves one handler task parked per idle
        # connection; aclose() must reap them or they die noisily at
        # loop teardown. Tasks currently *serving* a request (routing,
        # not reading) are tracked separately so shutdown can drain
        # them instead of dropping a client mid-response.
        self._connections: Set["asyncio.Task[None]"] = set()
        self._serving: Set["asyncio.Task[None]"] = set()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) -- useful with ``port=0``."""
        if self._server is None:
            raise ServiceError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> "DiagnosisHTTPServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        self._closing = True           # served exchanges stop looping
        if self._server is not None:
            self._server.close()       # stop accepting new connections
        # Reap persistent connections BEFORE wait_closed(): on Python
        # >= 3.12.1 Server.wait_closed() waits for every connection
        # handler, so a client idling on a keep-alive connection would
        # deadlock shutdown until its idle timeout (or forever).
        # Connections parked between requests are cancelled outright;
        # exchanges being served get shutdown_grace to finish writing
        # their response first.
        for task in list(self._connections):
            if task not in self._serving:
                task.cancel()
        remaining = set(self._connections)
        if remaining:
            _, pending = await asyncio.wait(
                remaining, timeout=self.shutdown_grace)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        await self.service.aclose()

    # ------------------------------------------------------------------
    async def _timed(self, awaitable):
        """Await under the idle/stall timeout (disabled when <= 0)."""
        if self.idle_timeout > 0:
            return await asyncio.wait_for(awaitable,
                                          timeout=self.idle_timeout)
        return await awaitable

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if self._closing:
            # Accepted in the shutdown window before aclose()'s task
            # snapshot could see us: bail out instead of parking (on
            # >= 3.12.1 wait_closed() would wait for this handler).
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
            return
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                exchange = await self._respond(reader)
                if exchange is None:        # clean EOF between requests
                    break
                # The write rides inside the _serving window too (set
                # in _respond before routing): shutdown must not
                # cancel an exchange mid-response-body.
                if task is not None:
                    self._serving.add(task)
                try:
                    status = exchange.status
                    reason = _HTTP_REASONS.get(status, "Unknown")
                    connection = "keep-alive" if exchange.keep_alive \
                        else "close"
                    request_id_line = (
                        f"X-Request-Id: {exchange.request_id}\r\n"
                        if exchange.request_id else "")
                    head = (f"HTTP/1.1 {status} {reason}\r\n"
                            f"Content-Type: {exchange.content_type}\r\n"
                            f"Content-Length: {len(exchange.body)}\r\n"
                            f"{request_id_line}"
                            f"Connection: {connection}\r\n\r\n"
                            ).encode("latin1")
                    writer.write(head + exchange.body)
                    try:
                        await self._timed(writer.drain())
                    except asyncio.TimeoutError:
                        # Client is not reading its response: reclaim
                        # the connection instead of parking forever.
                        return
                finally:
                    if task is not None:
                        self._serving.discard(task)
                if self.access_log:
                    self._log_access(exchange)
                if not exchange.keep_alive or self._closing:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown while this connection idled between
            # keep-alive requests: drop it quietly. Returning (instead
            # of re-raising) lets the task finish cleanly, so nothing
            # is logged at event-loop teardown.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _respond(self, reader: asyncio.StreamReader
                       ) -> Optional[_Exchange]:
        """One request -> a ready-to-write :class:`_Exchange`.

        ``None`` means the client closed cleanly before sending another
        request, or idled/stalled past ``idle_timeout``: the request
        line + headers run under one timeout, and the body read times
        out per chunk (progress resets the clock, so slow-but-live
        uploads survive while a half-sent request cannot park the
        handler forever). Any error that leaves the byte stream
        unsynchronised (bad request line, bad/oversized length) forces
        a close: the unread remainder cannot be framed as a next
        request.
        """
        try:
            head = await self._timed(self._read_head(reader))
        except asyncio.TimeoutError:
            return None         # idle or stalled connection: reclaim
        except _BadRequest as exc:
            return _Exchange(exc.status, exc.payload, False)
        except ValueError:
            # StreamReader raises ValueError past its line limit
            # (oversized request line or header).
            return _Exchange(400, codec.encode_error(
                "request line/header too long"), False)
        if head is None:
            return None
        method, path, length, keep_alive, headers = head
        try:
            body = await self._read_body(reader, length)
        except asyncio.TimeoutError:
            return None         # body upload stalled: reclaim
        # Adopt the client's X-Request-Id (or mint one): it rides the
        # task context from here, so spans, access logs and outbound
        # HTTPReplica hops all carry the same id.
        request_id = telemetry.ensure_request_id(
            headers.get("x-request-id"))
        want_trace = "trace" in headers.get("x-repro-debug", "").lower()
        started = time.perf_counter()
        task = asyncio.current_task()
        if task is not None:
            self._serving.add(task)
        content_type = "application/json"
        try:
            with telemetry.TRACER.span("http.request", method=method,
                                       path=path) as span:
                try:
                    routed = await self._route(method, path, body)
                    if len(routed) == 3:
                        status, payload, content_type = routed
                    else:
                        status, payload = routed
                except ServiceOverloadedError as exc:
                    status, payload = 503, codec.encode_error(
                        str(exc), kind=type(exc).__name__)
                except ClusterError as exc:
                    # A routing failure (every owning replica down) is
                    # an outage, not a bad request: retryable 503,
                    # never 404.
                    status, payload = 503, codec.encode_error(
                        str(exc), kind=type(exc).__name__)
                except CodecError as exc:
                    status, payload = 400, codec.encode_error(
                        str(exc), kind=type(exc).__name__)
                except ServiceError as exc:
                    status, payload = 404, codec.encode_error(
                        str(exc), kind=type(exc).__name__)
                except Exception as exc:  # noqa: BLE001 -- server boundary
                    status, payload = 500, codec.encode_error(
                        str(exc), kind=type(exc).__name__)
                span.attrs["status"] = status
        finally:
            if task is not None:
                self._serving.discard(task)
        if want_trace and content_type == "application/json":
            payload = codec.embed_trace(payload, span.to_dict())
        return _Exchange(status, payload, keep_alive, content_type,
                         request_id, method, path,
                         (time.perf_counter() - started) * 1e3)

    def _log_access(self, exchange: _Exchange) -> None:
        if self.log_json:
            self._access_logger.info(json.dumps({
                "method": exchange.method,
                "path": exchange.path,
                "status": exchange.status,
                "duration_ms": round(exchange.duration_ms, 3),
                "bytes": len(exchange.body),
                "request_id": exchange.request_id,
            }, sort_keys=True))
        else:
            self._access_logger.info(
                "%s %s %d %dB %.2fms %s", exchange.method,
                exchange.path, exchange.status, len(exchange.body),
                exchange.duration_ms, exchange.request_id or "-")

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader
                         ) -> Optional[Tuple[str, str, int, bool,
                                             Dict[str, str]]]:
        """Read and frame one request head: (method, path, body
        length, keep, headers).

        ``None`` on clean EOF; :class:`_BadRequest` for anything that
        cannot be answered while keeping the stream synchronised.
        """
        request_line = await reader.readline()
        if request_line == b"":
            return None
        parts = request_line.decode("latin1").split()
        if len(parts) < 2:
            raise _BadRequest(
                400, codec.encode_error("malformed request line"))
        method, path = parts[0].upper(), parts[1]
        version = parts[2].upper() if len(parts) >= 3 else "HTTP/1.0"
        headers: Dict[str, str] = {}
        head_bytes = len(request_line)
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            head_bytes += len(line)
            if head_bytes > MAX_HEAD_BYTES:
                raise _BadRequest(431, codec.encode_error(
                    f"request head exceeds {MAX_HEAD_BYTES} bytes"))
            name, _, value = line.decode("latin1").partition(":")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and \
                    headers.get(name, value) != value:
                # Conflicting lengths are request-smuggling shaped: an
                # intermediary framing on the other copy would
                # desynchronise the stream, so refuse and close.
                raise _BadRequest(400, codec.encode_error(
                    "conflicting Content-Length headers"))
            headers[name] = value
        # HTTP/1.1 persists by default; 1.0 only on explicit opt-in.
        # A "close" token always wins.
        connection = headers.get("connection", "").lower()
        keep_alive = connection != "close" if version == "HTTP/1.1" \
            else connection == "keep-alive"
        if "transfer-encoding" in headers:
            # Bodies are framed by Content-Length only; chunked
            # framing we did not read would desynchronise the
            # persistent stream (request-smuggling shaped), so refuse
            # and close.
            raise _BadRequest(400, codec.encode_error(
                "Transfer-Encoding is not supported; frame the body "
                "with Content-Length"))
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _BadRequest(
                400, codec.encode_error("bad Content-Length")) from None
        if length < 0:
            raise _BadRequest(
                400, codec.encode_error("bad Content-Length"))
        if length > MAX_BODY_BYTES:
            raise _BadRequest(413, codec.encode_error(
                f"body exceeds {MAX_BODY_BYTES} bytes"))
        return method, path, length, keep_alive, headers

    async def _read_body(self, reader: asyncio.StreamReader,
                         length: int) -> bytes:
        """Read a Content-Length body, timing out per chunk.

        Each received chunk resets the idle clock, so a slow-but-live
        upload completes while a stalled one raises
        :class:`asyncio.TimeoutError`.
        """
        if length <= 0:
            return b""
        chunks = []
        remaining = length
        while remaining:
            chunk = await self._timed(reader.read(min(65536,
                                                      remaining)))
            if chunk == b"":
                raise asyncio.IncompleteReadError(b"".join(chunks),
                                                  length)
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    async def _route(self, method: str, path: str, body: bytes):
        """One routed request -> ``(status, payload)`` or
        ``(status, payload, content_type)`` (JSON by default)."""
        if path in ROUTES:
            if method != "POST":
                return 405, codec.encode_error("use POST")
            mode, shape = ROUTES[path]
            requests, is_burst = codec.decode_requests(body, shape)
            if is_burst:
                batches = await self.service.submit_many(
                    [(request.circuit, request.magnitudes_db)
                     for request in requests], mode)
                return 200, codec.encode_response_many(batches, mode)
            answers = await self.service.submit(
                requests[0].circuit, requests[0].magnitudes_db, mode)
            return 200, codec.encode_answers(answers, mode)
        if path == "/v1/stats" and method == "GET":
            return 200, codec.encode_stats(
                await self.service.stats_snapshot())
        if path == "/v1/metrics" and method == "GET":
            text = await self.service.metrics_text()
            return 200, text.encode("utf-8"), telemetry.CONTENT_TYPE
        if path == "/v1/circuits" and method == "GET":
            known = self.service.known_circuits()
            return 200, codec.encode_stats(
                {origin: list(names) for origin, names in known.items()})
        if path.startswith("/v1/test-vector/") and method == "GET":
            circuit = path[len("/v1/test-vector/"):]
            freqs = await self.service.test_vector_hz(circuit)
            return 200, codec.encode_stats(
                {"circuit": circuit,
                 "test_vector_hz": sorted(freqs)})
        if path == "/v1/healthz" and method == "GET":
            # warmed/registered ride along so cluster health probes
            # can feed their sync introspection caches in one request.
            known = self.service.known_circuits()
            return 200, codec.encode_stats(
                {"status": "ok",
                 "queue_depth": self.service.queue_depth,
                 "warmed": list(self.service.warmed_circuits()),
                 "registered": list(known["registered"])})
        return 404, codec.encode_error(f"no route for {method} {path}")


async def serve(service: Optional[AsyncDiagnosisService] = None,
                host: str = "127.0.0.1", port: int = 8080,
                **async_kwargs) -> DiagnosisHTTPServer:
    """Start an HTTP diagnosis server; returns it already listening.

    ``async_kwargs`` are forwarded to :class:`AsyncDiagnosisService`
    when no prebuilt service is given.
    """
    if service is None:
        service = AsyncDiagnosisService(**async_kwargs)
    server = DiagnosisHTTPServer(service, host=host, port=port)
    await server.start()
    return server
