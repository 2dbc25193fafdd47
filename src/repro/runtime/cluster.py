"""Consistent-hash diagnosis cluster: circuit -> replica routing.

One :class:`~repro.runtime.server.AsyncDiagnosisService` process tops
out at one box's cores and one engine cache. This module scales the
same ``submit`` surface across N replicas:

* :class:`CircuitRouter` consistent-hashes *circuit names* onto
  replicas (same :class:`~repro.runtime.backends.HashRing` that shards
  artifact keys), so every circuit's requests land on the replica that
  holds its warmed engine -- the cluster's aggregate engine cache is
  the *sum* of the replicas' caches instead of N copies of one;
* :class:`ClusterService` fronts the replicas with the same awaitable
  ``submit`` / ``submit_many`` / ``warm`` / ``stats_snapshot`` surface
  as ``AsyncDiagnosisService`` (so :class:`DiagnosisHTTPServer` can
  serve either), with health-checks and re-route-on-death failover:
  a dead replica is marked down and its circuits walk to the next
  replica on the ring -- nothing else remaps.

Replicas come in two shapes:

* :class:`InProcessReplica` -- an ``AsyncDiagnosisService`` on this
  event loop. Deterministic and dependency-free: the equivalence
  property tests drive these.
* :class:`SpawnedReplica` -- a worker *process* started through the
  ``repro-serve`` CLI, spoken to over the existing
  :mod:`repro.runtime.codec` wire format on keep-alive HTTP
  connections (:class:`HTTPReplica` is the transport; point it at any
  already-running server to join it to a cluster).

Because every replica warms engines from the same deterministic
pipeline (same config, same seed) -- ideally through a shared
:class:`~repro.runtime.store.ArtifactStore` -- a request's diagnoses
are **bitwise-identical** no matter which replica answers. The
property tests in ``tests/test_cluster.py`` pin this: a 2- or
3-replica cluster equals a single service for any interleaving.
"""

from __future__ import annotations

import abc
import asyncio
import json
import os
import sys
import time
from pathlib import Path
from typing import (Awaitable, Callable, Dict, FrozenSet, List,
                    Optional, Sequence, Set, Tuple, TypeVar)

from ..circuits.library import BENCHMARK_CIRCUITS
from ..errors import (ClusterError, ReplicaTimeoutError,
                      ReplicaUnavailableError, ServiceError, StoreError)
from . import codec, telemetry
from .backends import HashRing
from .batch import ResponseBatch
from .server import AsyncDiagnosisService, route_for

__all__ = ["CircuitRouter", "Replica", "InProcessReplica",
           "HTTPReplica", "SpawnedReplica", "ClusterService"]

T = TypeVar("T")

#: How the ``repro-serve`` worker announces its bound address on
#: stdout (port 0 binds ephemerally; the parent parses this line).
LISTENING_PREFIX = "REPRO-SERVE LISTENING"

#: Worker-knob defaults shared by :meth:`SpawnedReplica.spawn`,
#: :meth:`ClusterService.spawn` and the ``repro-serve`` argparse
#: defaults -- one source, so a directly spawned cluster and a
#: CLI-launched one run with identical settings.
WORKER_DEFAULTS = {
    "max_engines": 4,
    "window_ms": 2.0,
    "max_batch": 64,
    "max_pending": 1024,
    "overflow": "wait",
    "shards": 2,
    "posterior_samples": 64,
    "posterior_tolerance": 0.05,
}


class CircuitRouter:
    """Consistent-hash placement of circuit names onto replica names.

    Thin domain wrapper over :class:`HashRing`: stable placement, and
    on replica loss only the lost replica's circuits remap (each to
    the next live replica in its deterministic ring-walk order).
    """

    def __init__(self, replica_names: Sequence[str],
                 vnodes: int = 64) -> None:
        try:
            self.ring = HashRing(replica_names, vnodes=vnodes)
        except StoreError as exc:
            raise ClusterError(str(exc)) from exc

    @property
    def replica_names(self) -> Tuple[str, ...]:
        return self.ring.nodes

    def replica_for(self, circuit_name: str,
                    exclude: FrozenSet[str] = frozenset()) -> str:
        """The replica owning ``circuit_name``, skipping ``exclude``."""
        try:
            return self.ring.node_for(circuit_name, exclude=exclude)
        except StoreError as exc:
            raise ClusterError(
                f"no live replica for circuit {circuit_name!r} "
                f"(down: {sorted(exclude)})") from exc

    def failover_order(self, circuit_name: str) -> Tuple[str, ...]:
        """Owner first, then the deterministic re-route order."""
        return tuple(self.ring.nodes_for(circuit_name))


# ----------------------------------------------------------------------
# Replica handles
# ----------------------------------------------------------------------
class Replica(abc.ABC):
    """One cluster member, whatever its transport.

    Transport-level failures (process gone, connection refused, closed
    front) surface as :class:`ReplicaUnavailableError`; the cluster
    catches exactly that to fail over. Request-level errors (unknown
    circuit, malformed rows, backpressure) propagate to the caller
    unchanged -- another replica would refuse them identically.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    @abc.abstractmethod
    async def submit(self, circuit_name: str, responses: ResponseBatch,
                     mode: str = "hard") -> list: ...

    @abc.abstractmethod
    async def submit_many(self, requests: Sequence[Tuple[str,
                                                         ResponseBatch]],
                          mode: str = "hard") -> List[list]: ...

    @abc.abstractmethod
    async def warm(self, circuit_name: str) -> None: ...

    @abc.abstractmethod
    async def test_vector_hz(self, circuit_name: str
                             ) -> Tuple[float, ...]: ...

    @abc.abstractmethod
    async def healthy(self) -> bool: ...

    @abc.abstractmethod
    async def stats_snapshot(self) -> Dict[str, object]: ...

    @abc.abstractmethod
    async def aclose(self) -> None: ...

    # Optional surface, used for best-effort introspection only.
    async def metrics_text(self) -> str:
        """The replica's Prometheus exposition text (empty when the
        transport does not expose metrics)."""
        return ""

    @property
    def queue_depth(self) -> int:
        return 0

    def warmed_circuits(self) -> Tuple[str, ...]:
        return ()

    def registered_circuits(self) -> Tuple[str, ...]:
        return ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class InProcessReplica(Replica):
    """An :class:`AsyncDiagnosisService` living on this event loop."""

    def __init__(self, name: str,
                 front: AsyncDiagnosisService) -> None:
        super().__init__(name)
        self.front = front

    def _check_alive(self) -> None:
        if self.front._closed:
            raise ReplicaUnavailableError(f"replica {self.name} is "
                                          f"closed")

    async def submit(self, circuit_name: str, responses: ResponseBatch,
                     mode: str = "hard") -> list:
        self._check_alive()
        return await self.front.submit(circuit_name, responses, mode)

    async def submit_many(self, requests: Sequence[Tuple[str,
                                                         ResponseBatch]],
                          mode: str = "hard") -> List[list]:
        self._check_alive()
        return await self.front.submit_many(requests, mode)

    async def warm(self, circuit_name: str) -> None:
        self._check_alive()
        await self.front.warm(circuit_name)

    async def test_vector_hz(self, circuit_name: str
                             ) -> Tuple[float, ...]:
        self._check_alive()
        return await self.front.test_vector_hz(circuit_name)

    async def healthy(self) -> bool:
        return not self.front._closed

    async def stats_snapshot(self) -> Dict[str, object]:
        return await self.front.stats_snapshot()

    async def metrics_text(self) -> str:
        return await self.front.metrics_text()

    async def aclose(self) -> None:
        await self.front.aclose()

    @property
    def queue_depth(self) -> int:
        return self.front.queue_depth

    def warmed_circuits(self) -> Tuple[str, ...]:
        return self.front.warmed_circuits()

    def registered_circuits(self) -> Tuple[str, ...]:
        return tuple(self.front.known_circuits()["registered"])


def _wire_error_type(kind: Optional[str]) -> type:
    """The exception class to re-raise for a wire error ``kind``.

    Any class from :mod:`repro.errors` resolves by name, so a
    request-level error crosses the HTTP boundary as the same type the
    in-process replica would raise (e.g. ``DiagnosisError`` for wrong
    signature width); anything else degrades to ``ServiceError``.
    """
    from .. import errors as _errors
    exc_type = getattr(_errors, kind or "", None)
    if isinstance(exc_type, type) and \
            issubclass(exc_type, ReplicaUnavailableError):
        # Never resurrect a *remote* replica failure (or timeout) as
        # our own transport failure: the server we just spoke to is
        # alive (it answered); marking it down/slow would be wrong.
        return ClusterError
    if isinstance(exc_type, type) and \
            issubclass(exc_type, _errors.ReproError):
        return exc_type
    return ServiceError


class HTTPReplica(Replica):
    """A replica spoken to over the stdlib HTTP front.

    Maintains a small pool of keep-alive connections (one request in
    flight per connection; the server pipelines strictly in order, so
    pooling -- not pipelining -- is what buys client concurrency).
    Requests must carry numeric ``(N, F)`` dB matrices --
    ``FrequencyResponse`` objects cannot ride the wire
    (:class:`~repro.errors.CodecError`); sample them at the circuit's
    test vector first.
    Requests are pure functions of their payload, so a request that
    died with a stale keep-alive connection is retried once on a fresh
    one; a replica that cannot be reached at all raises
    :class:`ReplicaUnavailableError` for the cluster to fail over.
    """

    def __init__(self, name: str, host: str, port: int, *,
                 pool_size: int = 8,
                 request_timeout: float = 600.0,
                 health_timeout: float = 2.0) -> None:
        super().__init__(name)
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.request_timeout = request_timeout
        self.health_timeout = health_timeout
        self._idle: List[Tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []
        self._slots = asyncio.Semaphore(pool_size)
        # Introspection as of the last health probe (the transport is
        # async; warmed_circuits()/queue_depth/registered_circuits()
        # are sync best-effort).
        self._warmed: Tuple[str, ...] = ()
        self._registered: Tuple[str, ...] = ()
        self._queue_depth = 0

    # -- transport -----------------------------------------------------
    async def _connect(self) -> Tuple[asyncio.StreamReader,
                                      asyncio.StreamWriter]:
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                timeout=self.health_timeout)
        except (OSError, asyncio.TimeoutError) as exc:
            raise ReplicaUnavailableError(
                f"replica {self.name} unreachable at "
                f"{self.host}:{self.port}: {exc}") from exc

    @staticmethod
    def _close(conn: Tuple[asyncio.StreamReader,
                           asyncio.StreamWriter]) -> None:
        conn[1].close()

    @staticmethod
    async def _read_response(reader: asyncio.StreamReader
                             ) -> Tuple[int, bytes, bool]:
        status_line = await reader.readline()
        parts = status_line.split()
        # A truncated status line (replica died mid-write) must read
        # as a transport failure so the caller's failover kicks in.
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(
                f"malformed response status line {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line == b"":
                # EOF before the blank line: the replica died between
                # status line and headers -- a transport failure, not
                # a complete zero-length response.
                raise ConnectionError("connection closed mid-headers")
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as exc:
            # Whatever answered is not a repro replica (stale port
            # takeover): a transport failure, so failover applies.
            raise ConnectionError(
                f"malformed Content-Length in response: {exc}") from exc
        payload = await reader.readexactly(length) if length else b""
        keep = headers.get("connection", "keep-alive").lower() != "close"
        return status, payload, keep

    #: Transport failures that mark a connection (and possibly its
    #: keep-alive siblings) stale.
    _CONN_ERRORS = (ConnectionError, OSError,
                    asyncio.IncompleteReadError)

    async def _attempt(self, conn, head: bytes, body: bytes,
                       timeout: float) -> Tuple[int, bytes]:
        """One exchange on one connection. Connection errors propagate
        raw (the caller decides stale-retry vs replica-dead); the
        connection is closed on any failure, repooled on success."""
        reader, writer = conn
        try:
            writer.write(head + body)

            async def exchange():
                # drain + read together under one timeout: a frozen
                # replica must not hang us in drain().
                await writer.drain()
                return await self._read_response(reader)

            status, payload, keep = await asyncio.wait_for(
                exchange(), timeout=timeout)
        except asyncio.TimeoutError as exc:
            # Distinct from transport death: the replica may be alive
            # but saturated -- the cluster re-routes this request
            # without marking it down.
            self._close(conn)
            raise ReplicaTimeoutError(
                f"replica {self.name} did not answer within "
                f"{timeout}s") from exc
        except BaseException:
            # Connection error, cancellation (caller-side timeout) or
            # anything unexpected: the connection is mid-exchange and
            # unusable -- close it rather than leak the socket.
            self._close(conn)
            raise
        if keep and len(self._idle) < self.pool_size:
            self._idle.append(conn)
        else:
            self._close(conn)
        return status, payload

    async def _request(self, method: str, path: str, body: bytes = b"",
                       timeout: Optional[float] = None
                       ) -> Tuple[int, bytes]:
        timeout = timeout if timeout is not None else self.request_timeout
        # Propagate the caller's request id so a hop through the
        # cluster front keeps one id across every access log and span.
        request_id = telemetry.current_request_id()
        id_line = f"X-Request-Id: {request_id}\r\n" if request_id else ""
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}\r\n{id_line}"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin1")
        async with self._slots:
            if self._idle:
                try:
                    return await self._attempt(self._idle.pop(), head,
                                               body, timeout)
                except self._CONN_ERRORS:
                    # Stale keep-alive connection: its pool siblings
                    # are from the same dead server epoch, drop them
                    # all, then retry once on a fresh connection
                    # (requests are pure functions of their payload,
                    # so the retry is safe).
                    while self._idle:
                        self._close(self._idle.pop())
            conn = await self._connect()
            try:
                return await self._attempt(conn, head, body, timeout)
            except self._CONN_ERRORS as exc:
                raise ReplicaUnavailableError(
                    f"replica {self.name} failed mid-request: "
                    f"{exc!r}") from exc

    def _raise_for_error(self, status: int, payload: bytes) -> None:
        try:
            info = json.loads(payload)["error"]
            kind, message = info.get("kind"), info.get("message", "")
        except (ValueError, KeyError, TypeError):
            kind, message = None, payload[:200].decode("utf-8",
                                                       "replace")
        raise _wire_error_type(kind)(
            f"replica {self.name} answered {status}: {message}")

    # -- the replica surface -------------------------------------------
    async def _fetch(self, method: str, path: str,
                     body: bytes = b"") -> bytes:
        """One exchange's 200 payload; other statuses raise."""
        status, payload = await self._request(method, path, body)
        if status != 200:
            self._raise_for_error(status, payload)
        return payload

    async def submit(self, circuit_name: str, responses: ResponseBatch,
                     mode: str = "hard") -> list:
        payload = await self._fetch(
            "POST", route_for(mode, "single"),
            codec.encode_request(circuit_name, responses))
        return codec.decode_answers(payload, mode)

    async def submit_many(self, requests: Sequence[Tuple[str,
                                                         ResponseBatch]],
                          mode: str = "hard") -> List[list]:
        payload = await self._fetch("POST", route_for(mode, "burst"),
                                    codec.encode_request_many(requests))
        return codec.decode_response_many(payload, mode)

    async def warm(self, circuit_name: str) -> None:
        await self.test_vector_hz(circuit_name)

    async def test_vector_hz(self, circuit_name: str
                             ) -> Tuple[float, ...]:
        payload = await self._fetch("GET",
                                    f"/v1/test-vector/{circuit_name}")
        return tuple(json.loads(payload)["test_vector_hz"])

    async def healthy(self) -> bool:
        # Deliberately outside the request pool: probes must stay
        # bounded by health_timeout even when a wedged replica has
        # every pool slot occupied by 10-minute diagnose requests --
        # that saturation is exactly what the probe needs to detect.
        try:
            conn = await self._connect()
            reader, writer = conn
            try:
                writer.write((f"GET /v1/healthz HTTP/1.1\r\n"
                              f"Host: {self.host}\r\n"
                              f"Content-Length: 0\r\n\r\n"
                              ).encode("latin1"))

                async def exchange():
                    await writer.drain()
                    return await self._read_response(reader)

                status, payload, _ = await asyncio.wait_for(
                    exchange(), timeout=self.health_timeout)
            finally:
                self._close(conn)
        except (ReplicaUnavailableError, ConnectionError, OSError,
                asyncio.IncompleteReadError, asyncio.TimeoutError):
            return False
        if status == 200:
            try:                 # refresh the sync introspection cache
                health = json.loads(payload)
                self._warmed = tuple(health.get("warmed", ()))
                self._registered = tuple(health.get("registered", ()))
                self._queue_depth = int(health.get("queue_depth", 0))
            except (ValueError, TypeError):
                pass
        return status == 200

    async def stats_snapshot(self) -> Dict[str, object]:
        return json.loads(await self._fetch("GET", "/v1/stats"))

    async def metrics_text(self) -> str:
        payload = await self._fetch("GET", "/v1/metrics")
        return payload.decode("utf-8", "replace")

    @property
    def queue_depth(self) -> int:
        return self._queue_depth

    def warmed_circuits(self) -> Tuple[str, ...]:
        return self._warmed

    def registered_circuits(self) -> Tuple[str, ...]:
        return self._registered

    async def aclose(self) -> None:
        while self._idle:
            self._close(self._idle.pop())


class SpawnedReplica(HTTPReplica):
    """A worker process started through the ``repro-serve`` CLI.

    The worker binds an ephemeral port, announces it on stdout
    (``REPRO-SERVE LISTENING <host> <port>``) and then serves the
    standard HTTP front; this handle owns the process and terminates
    it on :meth:`aclose`.
    """

    def __init__(self, name: str, host: str, port: int,
                 process: "asyncio.subprocess.Process",
                 **kwargs) -> None:
        super().__init__(name, host, port, **kwargs)
        self.process = process

    @staticmethod
    async def _reap(process: "asyncio.subprocess.Process") -> None:
        """Terminate and wait; escalate to kill on a hung worker."""
        if process.returncode is not None:
            return
        process.terminate()
        try:
            await asyncio.wait_for(process.wait(), timeout=10.0)
        except asyncio.TimeoutError:
            process.kill()
            await process.wait()

    @classmethod
    async def spawn(cls, name: str, *,
                    store_root: Optional[Path] = None,
                    backend: str = "local",
                    shards: int = WORKER_DEFAULTS["shards"],
                    config: Optional[object] = None, seed: int = 0,
                    max_engines: int = WORKER_DEFAULTS["max_engines"],
                    window_ms: float = WORKER_DEFAULTS["window_ms"],
                    max_batch: int = WORKER_DEFAULTS["max_batch"],
                    max_pending: int = WORKER_DEFAULTS["max_pending"],
                    overflow: str = WORKER_DEFAULTS["overflow"],
                    posterior_samples: int =
                    WORKER_DEFAULTS["posterior_samples"],
                    posterior_tolerance: float =
                    WORKER_DEFAULTS["posterior_tolerance"],
                    start_timeout: float = 120.0,
                    **kwargs) -> "SpawnedReplica":
        """Start one worker and wait for its listening announcement.

        ``config`` is a :class:`~repro.core.config.PipelineConfig`
        (serialised to the worker over ``--config-json``); the other
        knobs mirror the CLI flags. Workers always bind loopback: only
        the local router talks to them, and an unauthenticated worker
        port must never ride a public interface.
        """
        import repro

        argv = [sys.executable, "-m", "repro.runtime.cli",
                "--host", "127.0.0.1", "--port", "0",
                "--seed", str(seed),
                "--max-engines", str(max_engines),
                "--window-ms", str(window_ms),
                "--max-batch", str(max_batch),
                "--max-pending", str(max_pending),
                "--overflow", overflow,
                "--backend", backend, "--shards", str(shards),
                "--posterior-samples", str(posterior_samples),
                "--posterior-tolerance", str(posterior_tolerance)]
        if store_root is not None:
            argv += ["--store-root", str(store_root)]
        if config is not None:
            argv += ["--config-json", json.dumps(config.to_json_dict())]
        # The worker must import this very source tree even when the
        # package is not installed.
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + \
            env.get("PYTHONPATH", "")
        process = await asyncio.create_subprocess_exec(
            *argv, stdout=asyncio.subprocess.PIPE, env=env)
        try:
            while True:
                line = await asyncio.wait_for(
                    process.stdout.readline(), timeout=start_timeout)
                if not line:
                    raise ClusterError(
                        f"worker {name} exited before announcing "
                        f"its address (rc={process.returncode})")
                text = line.decode("utf-8", "replace").strip()
                if text.startswith(LISTENING_PREFIX):
                    _, _, address = text.partition(LISTENING_PREFIX)
                    bound_host, port_text = address.split()
                    return cls(name, bound_host, int(port_text),
                               process=process, **kwargs)
        except BaseException:
            # Covers cancellation and unexpected parse errors too:
            # whatever aborts the spawn must not orphan the worker.
            await cls._reap(process)
            raise

    async def healthy(self) -> bool:
        if self.process.returncode is not None:
            return False
        return await super().healthy()

    async def aclose(self) -> None:
        await super().aclose()
        await self._reap(self.process)


# ----------------------------------------------------------------------
# The cluster front
# ----------------------------------------------------------------------
class ClusterService:
    """Awaitable diagnosis front over N consistent-hash replicas.

    Exposes the same serving surface as
    :class:`~repro.runtime.server.AsyncDiagnosisService` (``submit``
    and ``submit_many``, each taking a diagnosis ``mode``; ``warm``,
    ``test_vector_hz``, ``stats_snapshot``, ``metrics_text``,
    ``known_circuits``, ``warmed_circuits``, ``queue_depth``,
    ``aclose``), so :class:`~repro.runtime.server.DiagnosisHTTPServer`
    can front a whole cluster unchanged.

    Routing: every circuit name hashes to one owning replica; all of a
    circuit's traffic lands there, so its warmed engine (and its
    coalescing queue) lives exactly once in the cluster. On a replica
    failure (:class:`ReplicaUnavailableError` from the transport) the
    replica is marked down and the request retries on the next replica
    of the ring -- only the dead replica's circuits move.
    :meth:`check_health` (or the :meth:`run_health_loop` background
    task) probes replicas and brings revived ones back into the ring.
    """

    def __init__(self, replicas: Sequence[Replica],
                 vnodes: int = 64) -> None:
        if not replicas:
            raise ClusterError("cluster needs at least one replica")
        names = [replica.name for replica in replicas]
        if len(set(names)) != len(names):
            raise ClusterError(f"duplicate replica names: {names}")
        self.replicas: Dict[str, Replica] = {
            replica.name: replica for replica in replicas}
        self.router = CircuitRouter(names, vnodes=vnodes)
        self.down: Set[str] = set()
        self.requests = 0
        self.bursts = 0
        self.failovers = 0
        self._closed = False
        # Cluster-level metrics live on their own registry (the plain
        # int counters above stay -- tests and stats_snapshot read
        # them); /v1/metrics renders it ahead of the replica scrapes.
        self.registry = telemetry.MetricsRegistry()
        self._m_requests = self.registry.counter(
            "repro_cluster_requests_total",
            "Diagnosis requests accepted by the cluster front.")
        self._m_bursts = self.registry.counter(
            "repro_cluster_bursts_total",
            "Mixed-circuit bursts accepted by the cluster front.")
        self._m_failovers = self.registry.counter(
            "repro_cluster_failovers_total",
            "Request shares re-routed off their owning replica.",
            labelnames=("reason",))
        self._m_timeouts = self.registry.counter(
            "repro_cluster_replica_timeouts_total",
            "Replica calls that exceeded the request timeout.",
            labelnames=("replica",))
        self._m_up = self.registry.gauge(
            "repro_cluster_replica_up",
            "1 while the replica is in the ring, 0 once marked down.",
            labelnames=("replica",))
        self._m_latency = self.registry.histogram(
            "repro_cluster_replica_call_seconds",
            "Wall time of one replica call as seen by the router.",
            labelnames=("replica",))
        for name in self.replicas:
            self._m_up.labels(name).set(1.0)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def in_process(cls, n_replicas: int, *,
                   services: Optional[Sequence] = None,
                   vnodes: int = 64,
                   **async_kwargs) -> "ClusterService":
        """A cluster of in-process replicas on the current loop.

        ``services`` may be one prebuilt
        :class:`~repro.runtime.service.DiagnosisService` shared by all
        replicas (cheap deterministic tests: one engine cache, N
        routing queues) or one per replica; omitted, every replica
        builds its own from ``async_kwargs``.
        """
        if n_replicas < 1:
            raise ClusterError("n_replicas must be >= 1")
        from .service import DiagnosisService
        if services is None:
            shared: Sequence = [None] * n_replicas
        elif isinstance(services, DiagnosisService):
            shared = [services] * n_replicas
        else:
            shared = list(services)
            if len(shared) != n_replicas:
                raise ClusterError(
                    f"{len(shared)} services for {n_replicas} replicas")
        replicas = []
        for index, service in enumerate(shared):
            front = AsyncDiagnosisService(service, **async_kwargs) \
                if service is not None \
                else AsyncDiagnosisService(**async_kwargs)
            replicas.append(InProcessReplica(f"replica-{index}", front))
        return cls(replicas, vnodes=vnodes)

    @classmethod
    async def spawn(cls, n_replicas: int, *,
                    store_root: Optional[Path] = None,
                    backend: str = "local",
                    shards: int = WORKER_DEFAULTS["shards"],
                    config: Optional[object] = None, seed: int = 0,
                    max_engines: int = WORKER_DEFAULTS["max_engines"],
                    window_ms: float = WORKER_DEFAULTS["window_ms"],
                    max_batch: int = WORKER_DEFAULTS["max_batch"],
                    max_pending: int = WORKER_DEFAULTS["max_pending"],
                    overflow: str = WORKER_DEFAULTS["overflow"],
                    posterior_samples: int =
                    WORKER_DEFAULTS["posterior_samples"],
                    posterior_tolerance: float =
                    WORKER_DEFAULTS["posterior_tolerance"],
                    warm: Sequence[str] = (),
                    vnodes: int = 64, **kwargs) -> "ClusterService":
        """Spawn N ``repro-serve`` worker processes and front them.

        Workers share ``store_root`` (when given), so each replica's
        cold warm-ups load cached artifacts instead of re-simulating;
        they bind loopback only (the fronting router is the public
        surface). ``warm`` circuits are pre-warmed on their owning
        replica.
        """
        if n_replicas < 1:
            raise ClusterError("n_replicas must be >= 1")
        outcomes = await asyncio.gather(
            *(SpawnedReplica.spawn(
                f"replica-{index}", store_root=store_root,
                backend=backend, shards=shards, config=config,
                seed=seed, max_engines=max_engines,
                window_ms=window_ms, max_batch=max_batch,
                max_pending=max_pending, overflow=overflow,
                posterior_samples=posterior_samples,
                posterior_tolerance=posterior_tolerance, **kwargs)
              for index in range(n_replicas)),
            return_exceptions=True)
        failures = [o for o in outcomes if isinstance(o, BaseException)]
        if failures:
            # Don't orphan the siblings that did come up.
            await asyncio.gather(
                *(replica.aclose() for replica in outcomes
                  if isinstance(replica, Replica)),
                return_exceptions=True)
            raise failures[0]
        cluster = cls(outcomes, vnodes=vnodes)
        try:
            for circuit_name in warm:
                await cluster.warm(circuit_name)
            # Seed the workers' sync introspection caches (warmed
            # circuits, queue depth) with a first health probe.
            await cluster.check_health()
        except BaseException:
            # A failed post-spawn step (bad warm name, ...) must not
            # orphan the worker processes we just started.
            await cluster.aclose()
            raise
        return cluster

    # ------------------------------------------------------------------
    # Routing + failover
    # ------------------------------------------------------------------
    def replica_for(self, circuit_name: str) -> Replica:
        """The live replica currently owning ``circuit_name``."""
        name = self.router.replica_for(circuit_name,
                                       exclude=frozenset(self.down))
        return self.replicas[name]

    def _mark_down(self, name: str) -> None:
        self.down.add(name)
        self.failovers += 1
        self._m_failovers.labels("unavailable").inc()
        self._m_up.labels(name).set(0.0)

    def _mark_slow(self, name: str, slow: Set[str]) -> None:
        slow.add(name)
        self.failovers += 1
        self._m_failovers.labels("timeout").inc()
        self._m_timeouts.labels(name).inc()

    async def _timed(self, name: str, awaitable: Awaitable[T]) -> T:
        started = time.perf_counter()
        try:
            return await awaitable
        finally:
            self._m_latency.labels(name).observe(
                time.perf_counter() - started)

    async def _call(self, circuit_name: str,
                    op: Callable[[Replica], Awaitable[T]]) -> T:
        """Run ``op`` on the owning replica, failing over along the
        ring when the transport reports the replica dead.

        A *timeout* (saturated-but-alive replica) re-routes only this
        request; the replica stays in the ring -- the health loop, not
        a slow response, decides whether it is dead.
        """
        if self._closed:
            raise ServiceError("cluster is closed")
        slow: Set[str] = set()
        for name in self.router.failover_order(circuit_name):
            if name in self.down or name in slow:
                continue
            try:
                return await self._timed(name, op(self.replicas[name]))
            except ReplicaTimeoutError:
                self._mark_slow(name, slow)
            except ReplicaUnavailableError:
                self._mark_down(name)
        raise ClusterError(
            f"no live replica for circuit {circuit_name!r} "
            f"(down: {sorted(self.down)}, timed out: {sorted(slow)})")

    async def submit(self, circuit_name: str, responses: ResponseBatch,
                     mode: str = "hard") -> list:
        """Diagnose one request on the circuit's owning replica."""
        self.requests += 1
        self._m_requests.inc()
        return await self._call(
            circuit_name,
            lambda replica: replica.submit(circuit_name, responses, mode))

    async def submit_many(self, requests: Sequence[Tuple[str,
                                                         ResponseBatch]],
                          mode: str = "hard") -> List[list]:
        """Diagnose a mixed-circuit burst: one wire call per replica.

        The burst is grouped by owning replica and forwarded as one
        ``submit_many`` each (which the replica serves with one
        call per circuit); answers come back in input order. A
        replica dying mid-burst re-routes only its share.
        """
        if self._closed:
            raise ServiceError("cluster is closed")
        if not requests:
            return []
        self.requests += len(requests)
        self.bursts += 1
        self._m_requests.inc(len(requests))
        self._m_bursts.inc()
        results: List[Optional[List]] = [None] * len(requests)
        pending: List[Tuple[int, Tuple[str, ResponseBatch]]] = \
            list(enumerate(requests))
        slow: Set[str] = set()   # timed out: reroute burst-locally only
        while pending:
            groups: Dict[str, List[Tuple[int, Tuple[str,
                                                    ResponseBatch]]]] = {}
            for index, request in pending:
                name = self.router.replica_for(
                    request[0], exclude=frozenset(self.down | slow))
                groups.setdefault(name, []).append((index, request))
            pending = []
            outcomes = await asyncio.gather(
                *(self._timed(name, self.replicas[name].submit_many(
                    [request for _, request in items], mode))
                  for name, items in groups.items()),
                return_exceptions=True)
            for (name, items), outcome in zip(groups.items(), outcomes):
                if isinstance(outcome, ReplicaTimeoutError):
                    self._mark_slow(name, slow)
                    pending.extend(items)
                elif isinstance(outcome, ReplicaUnavailableError):
                    self._mark_down(name)
                    pending.extend(items)
                elif isinstance(outcome, BaseException):
                    raise outcome
                elif len(outcome) != len(items):
                    # A version-skewed/impostor server answered with
                    # the wrong batch count; treat as replica failure
                    # so the burst share fails over instead of
                    # silently returning None entries.
                    self._mark_down(name)
                    pending.extend(items)
                else:
                    for (index, _), batch in zip(items, outcome):
                        results[index] = batch
        return results                           # type: ignore[return-value]

    async def warm(self, circuit_name: str) -> None:
        """Warm a circuit's engine on its owning replica."""
        await self._call(circuit_name,
                         lambda replica: replica.warm(circuit_name))

    async def test_vector_hz(self, circuit_name: str
                             ) -> Tuple[float, ...]:
        return await self._call(
            circuit_name,
            lambda replica: replica.test_vector_hz(circuit_name))

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    async def check_health(self) -> Dict[str, bool]:
        """Probe every replica; update the down-set both ways.

        A revived replica rejoins the ring (its circuits route home
        again -- deterministic engines make that transparent); a dead
        one is marked down before it ever fails a live request.
        """
        names = list(self.replicas)
        verdicts = await asyncio.gather(
            *(self.replicas[name].healthy() for name in names),
            return_exceptions=True)
        # A probe that *raises* (rather than answering False) is a
        # sick replica too -- and must never abort the other probes.
        health = {name: verdict is True
                  for name, verdict in zip(names, verdicts)}
        for name, alive in health.items():
            if alive:
                self.down.discard(name)
            else:
                self.down.add(name)
            self._m_up.labels(name).set(1.0 if alive else 0.0)
        return health

    async def run_health_loop(self, interval: float = 5.0) -> None:
        """Probe forever (cancel to stop); the CLI runs this as a
        background task next to ``serve_forever``."""
        while True:
            await asyncio.sleep(interval)
            try:
                await self.check_health()
            except Exception:    # noqa: BLE001 -- monitoring must survive
                continue

    # ------------------------------------------------------------------
    # Introspection (the HTTP front surface)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return sum(replica.queue_depth
                   for replica in self.replicas.values())

    def warmed_circuits(self) -> Tuple[str, ...]:
        warmed: Set[str] = set()
        for replica in self.replicas.values():
            warmed.update(replica.warmed_circuits())
        return tuple(sorted(warmed))

    def known_circuits(self) -> Dict[str, Tuple[str, ...]]:
        registered: Set[str] = set()
        for replica in self.replicas.values():
            registered.update(replica.registered_circuits())
        return {"registered": tuple(sorted(registered)),
                "benchmarks": tuple(sorted(BENCHMARK_CIRCUITS)),
                "warmed": self.warmed_circuits()}

    @staticmethod
    def _merge_snapshots(snapshots: Sequence[Dict[str, object]]
                         ) -> Dict[str, object]:
        """Sum reachable replica snapshots into one service-shaped view.

        Every numeric top-level counter adds; ``peak_queue_depth``
        takes the max (peaks do not sum across independent queues); the
        batch-size histogram and the per-circuit breakdown merge
        bucket- and circuit-wise. Latency quantiles are per-replica
        statistics and deliberately stay out of the merged view.
        """
        merged: Dict[str, object] = {}
        histogram: Dict[str, int] = {}
        per_circuit: Dict[str, Dict[str, float]] = {}
        for snapshot in snapshots:
            for key, value in snapshot.items():
                if key == "peak_queue_depth":
                    merged[key] = max(merged.get(key, 0), value)
                elif isinstance(value, (int, float)) and \
                        not isinstance(value, bool) and \
                        not key.startswith("latency_"):
                    merged[key] = merged.get(key, 0) + value
            for bucket, count in snapshot.get(
                    "batch_size_histogram", {}).items():
                # In-process snapshots carry int bucket keys, wire
                # snapshots str ones (JSON); normalise to str.
                histogram[str(bucket)] = \
                    histogram.get(str(bucket), 0) + count
            for circuit, stats in snapshot.get("per_circuit",
                                               {}).items():
                into = per_circuit.setdefault(circuit, {})
                for key, value in stats.items():
                    if key == "mean_latency_seconds":
                        continue     # recomputed below, means don't sum
                    into[key] = into.get(key, 0) + value
        for stats in per_circuit.values():
            requests = stats.get("requests", 0)
            stats["mean_latency_seconds"] = \
                stats.get("total_latency_seconds", 0.0) / requests \
                if requests else 0.0
        merged["batch_size_histogram"] = dict(sorted(
            histogram.items(), key=lambda item: int(item[0])))
        merged["per_circuit"] = per_circuit
        return merged

    async def stats_snapshot(self) -> Dict[str, object]:
        """Cluster counters, a merged service view, and every
        replica's own snapshot keyed by replica id."""
        names = list(self.replicas)
        snapshots = await asyncio.gather(
            *(self.replicas[name].stats_snapshot() for name in names),
            return_exceptions=True)
        per_replica: Dict[str, object] = {}
        for name, snapshot in zip(names, snapshots):
            per_replica[name] = {"unreachable": True} \
                if isinstance(snapshot, BaseException) else snapshot
        return {
            "cluster": {
                "replicas": len(self.replicas),
                "down": sorted(self.down),
                "requests": self.requests,
                "bursts": self.bursts,
                "failovers": self.failovers,
            },
            "merged": self._merge_snapshots(
                [snapshot for snapshot in snapshots
                 if not isinstance(snapshot, BaseException)]),
            "per_replica": per_replica,
        }

    async def metrics_text(self) -> str:
        """Cluster metrics plus every replica's scrape, merged.

        Each reachable replica's ``/v1/metrics`` text is parsed, every
        sample is tagged with a ``replica`` label, and the result is
        re-rendered after the cluster's own registry. Unreachable
        replicas are skipped -- their ``repro_cluster_replica_up``
        gauge already reports the outage.
        """
        names = list(self.replicas)
        scrapes = await asyncio.gather(
            *(self.replicas[name].metrics_text() for name in names),
            return_exceptions=True)
        merged: Dict[str, Dict[str, object]] = {}
        for name, scrape in zip(names, scrapes):
            if isinstance(scrape, BaseException) or not scrape:
                continue
            try:
                families = telemetry.parse_exposition(scrape)
            except ValueError:
                continue          # malformed scrape: skip, don't 500
            for family_name, family in families.items():
                entry = merged.setdefault(
                    family_name, {"type": family["type"],
                                  "help": family["help"],
                                  "samples": []})
                for sample_name, labels, value in family["samples"]:
                    tagged = dict(labels)
                    tagged["replica"] = name
                    entry["samples"].append(
                        (sample_name, tagged, value))
        return self.registry.render() + telemetry.render_families(merged)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Refuse new requests, then close every replica."""
        self._closed = True
        await asyncio.gather(
            *(replica.aclose() for replica in self.replicas.values()),
            return_exceptions=True)
