"""Serving facade: warmed diagnosis engines behind one submit() seam.

:class:`DiagnosisService` is the shape the async/HTTP layer
(:mod:`repro.runtime.server`) plugs into: it owns an LRU cache of warmed
per-circuit engines (an ATPG run plus its batch diagnoser), loads
artifacts through an optional :class:`~repro.runtime.store.ArtifactStore`
so cold starts skip simulation, and answers
``submit(circuit_name, responses)`` requests with batched classification
while keeping request/latency counters.

Thread-safety contract:

* engine-cache mutation holds the service lock; warm-up builds run
  outside it behind a *per-circuit* build lock, so a cold circuit is
  built exactly once no matter how many threads race on it, and other
  circuits' requests never stall behind the build;
* every :class:`ServiceStats` mutation goes through ``record_*`` methods
  that hold the stats object's own lock, so counters stay exact under
  concurrent ``submit`` from any number of threads;
* classification itself runs with no lock held (the batch diagnoser is
  read-only after construction).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque

import numpy as np
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..circuits.library import BENCHMARK_CIRCUITS, CircuitInfo, \
    get_benchmark
from ..core.atpg import ATPGResult, FaultTrajectoryATPG
from ..core.config import PipelineConfig
from ..diagnosis.classifier import Diagnosis
from ..diagnosis.posterior import (PosteriorConfig, PosteriorDiagnoser,
                                   PosteriorDiagnosis)
from ..errors import ServiceError
from . import telemetry
from .batch import BatchDiagnoser, ResponseBatch
from .store import ArtifactStore, as_store

#: Anything ``DiagnosisService(store=...)`` accepts.
StoreLike = Union[ArtifactStore, str, Path, None]

__all__ = ["DiagnosisService", "CircuitStats", "ServiceStats"]

#: How many recent request latencies the percentile reservoir keeps.
LATENCY_WINDOW = 4096


def _batch_bucket(n_rows: int) -> int:
    """Histogram bucket for a coalesced batch: rows rounded up to the
    next power of two (1, 2, 4, 8, ...)."""
    if n_rows <= 1:
        return 1
    return 1 << (n_rows - 1).bit_length()


@dataclass
class CircuitStats:
    """Counters for one named circuit."""

    requests: int = 0
    responses_diagnosed: int = 0
    total_latency_seconds: float = 0.0
    warm_loads: int = 0

    @property
    def mean_latency_seconds(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.total_latency_seconds / self.requests

    def as_dict(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "responses_diagnosed": self.responses_diagnosed,
            "total_latency_seconds": self.total_latency_seconds,
            "mean_latency_seconds": self.mean_latency_seconds,
            "warm_loads": self.warm_loads,
        }


@dataclass
class ServiceStats:
    """Aggregate counters plus the per-circuit breakdown.

    All mutation goes through the ``record_*`` / ``observe_*`` methods,
    which hold an internal lock -- callers may hammer one stats object
    from any number of threads and every counter stays exact. Plain
    attribute reads are lock-free (ints/floats are torn-write safe under
    the GIL); use :meth:`snapshot` for a consistent multi-field view.

    Every record also lands in the attached
    :class:`~repro.runtime.telemetry.MetricsRegistry` (the Prometheus
    view served by ``GET /v1/metrics``): the ``record_*`` seam writes
    both books, so the JSON :meth:`snapshot` surface stays exactly as
    it always was while the registry carries labelled counters, the
    request-latency histogram and the live/peak queue-depth gauges.
    Each stats object gets its own registry by default so concurrent
    services never share counters.
    """

    requests: int = 0
    responses_diagnosed: int = 0
    total_latency_seconds: float = 0.0
    evictions: int = 0
    #: Number of coalesced classify calls the async front issued.
    coalesced_batches: int = 0
    #: Client requests that were answered from a coalesced batch.
    coalesced_requests: int = 0
    #: Requests refused by backpressure (``overflow="reject"``).
    rejections: int = 0
    #: Completed posterior (probabilistic) diagnosis requests.
    posterior_requests: int = 0
    #: Response rows answered with posterior probabilities.
    posterior_rows: int = 0
    #: Posterior diagnoser builds (Monte-Carlo sweeps).
    posterior_builds: int = 0
    #: Engine variants simulated across all posterior builds.
    posterior_samples: int = 0
    #: Highest queued-request count the async front ever observed.
    peak_queue_depth: int = 0
    #: Coalesced batch sizes (rows), bucketed to powers of two.
    batch_size_histogram: Dict[int, int] = field(default_factory=dict)
    #: Simulation engine kind the owning service warms circuits with
    #: (``PipelineConfig.engine``); surfaced through ``/v1/stats``.
    engine_kind: str = "batched"
    per_circuit: Dict[str, CircuitStats] = field(default_factory=dict)
    registry: Optional[telemetry.MetricsRegistry] = field(
        default=None, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)
    _latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW),
        repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.registry is None:
            self.registry = telemetry.MetricsRegistry()
        reg = self.registry
        self._m_requests = reg.counter(
            "repro_service_requests_total",
            "Completed diagnosis requests.", ("circuit",))
        self._m_responses = reg.counter(
            "repro_service_responses_total",
            "Response rows diagnosed.", ("circuit",))
        self._m_warm_loads = reg.counter(
            "repro_service_warm_loads_total",
            "Engine warm-ups (pipeline builds or store loads).",
            ("circuit",))
        self._m_latency = reg.histogram(
            "repro_service_request_latency_seconds",
            "End-to-end request latency inside the service.")
        self._m_evictions = reg.counter(
            "repro_service_engine_evictions_total",
            "Warm engines evicted by the LRU.")
        self._m_coalesced_batches = reg.counter(
            "repro_service_coalesced_batches_total",
            "Coalesced classify calls issued by the async front.")
        self._m_coalesced_requests = reg.counter(
            "repro_service_coalesced_requests_total",
            "Client requests answered from a coalesced batch.")
        self._m_rejections = reg.counter(
            "repro_service_rejections_total",
            "Requests refused by backpressure.")
        self._m_batch_rows = reg.histogram(
            "repro_service_coalesce_batch_rows",
            "Rows per coalesced classify call.",
            buckets=telemetry.POWER_OF_TWO_BUCKETS)
        self._m_queue_depth = reg.gauge(
            "repro_service_queue_depth",
            "Requests currently queued in the async front.")
        self._m_peak_queue_depth = reg.gauge(
            "repro_service_peak_queue_depth",
            "Highest queued-request count ever observed.")
        self._m_posterior_requests = reg.counter(
            "repro_posterior_requests_total",
            "Completed probabilistic-diagnosis requests.", ("circuit",))
        self._m_posterior_rows = reg.counter(
            "repro_posterior_rows_total",
            "Response rows answered with posterior probabilities.",
            ("circuit",))
        self._m_posterior_samples = reg.counter(
            "repro_posterior_samples_total",
            "Monte-Carlo engine variants simulated by posterior builds.",
            ("circuit",))
        self._m_posterior_build = reg.histogram(
            "repro_posterior_build_seconds",
            "Posterior diagnoser build time (Monte-Carlo sweep).")
        self._m_posterior_latency = reg.histogram(
            "repro_posterior_request_seconds",
            "End-to-end posterior request latency inside the service.")
        self._m_posterior_entropy = reg.histogram(
            "repro_posterior_entropy_bits",
            "Posterior entropy per diagnosed row (bits).",
            buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5,
                     2.0, 3.0, 4.0, 6.0))

    def for_circuit(self, name: str) -> CircuitStats:
        return self.per_circuit.setdefault(name, CircuitStats())

    # ------------------------------------------------------------------
    # Recording (thread-safe)
    # ------------------------------------------------------------------
    def _record_one(self, circuit_name: str, n_responses: int,
                    latency_seconds: float) -> None:
        per = self.for_circuit(circuit_name)
        for scope in (self, per):
            scope.requests += 1
            scope.responses_diagnosed += n_responses
            scope.total_latency_seconds += latency_seconds
        self._latencies.append(latency_seconds)
        self._m_requests.labels(circuit_name).inc()
        self._m_responses.labels(circuit_name).inc(n_responses)
        self._m_latency.observe(latency_seconds)

    def record_request(self, circuit_name: str, n_responses: int,
                       latency_seconds: float) -> None:
        """Record one completed ``submit`` request."""
        with self._lock:
            self._record_one(circuit_name, n_responses, latency_seconds)

    def record_coalesced(self, circuit_name: str,
                         request_latencies: Sequence[Tuple[int, float]],
                         n_rows: int) -> None:
        """Record one coalesced flush answering several requests.

        ``request_latencies`` holds ``(n_responses, latency_seconds)``
        per client request; ``n_rows`` is the size of the single
        classify call that answered them all.
        """
        with self._lock:
            self.coalesced_batches += 1
            self.coalesced_requests += len(request_latencies)
            bucket = _batch_bucket(n_rows)
            self.batch_size_histogram[bucket] = \
                self.batch_size_histogram.get(bucket, 0) + 1
            self._m_coalesced_batches.inc()
            self._m_coalesced_requests.inc(len(request_latencies))
            self._m_batch_rows.observe(n_rows)
            for n_responses, latency in request_latencies:
                self._record_one(circuit_name, n_responses, latency)

    def record_posterior(self, circuit_name: str,
                         request_latencies: Sequence[Tuple[int, float]],
                         entropies: Sequence[float]) -> None:
        """Record posterior requests answered by one diagnose call.

        ``request_latencies`` holds ``(n_rows, latency_seconds)`` per
        client request; ``entropies`` the per-row posterior entropies
        (bits) of the whole call.
        """
        with self._lock:
            for n_rows, latency in request_latencies:
                self.posterior_requests += 1
                self.posterior_rows += n_rows
                self._m_posterior_requests.labels(circuit_name).inc()
                self._m_posterior_rows.labels(circuit_name).inc(n_rows)
                self._m_posterior_latency.observe(latency)
            for entropy in entropies:
                self._m_posterior_entropy.observe(entropy)

    def record_posterior_build(self, circuit_name: str,
                               n_samples: int,
                               build_seconds: float) -> None:
        """Record one posterior diagnoser build (Monte-Carlo sweep)."""
        with self._lock:
            self.posterior_builds += 1
            self.posterior_samples += n_samples
            self._m_posterior_samples.labels(circuit_name).inc(n_samples)
            self._m_posterior_build.observe(build_seconds)

    def record_warm_load(self, circuit_name: str) -> None:
        with self._lock:
            self.for_circuit(circuit_name).warm_loads += 1
            self._m_warm_loads.labels(circuit_name).inc()

    def record_eviction(self, count: int = 1) -> None:
        with self._lock:
            self.evictions += count
            self._m_evictions.inc(count)

    def record_rejection(self) -> None:
        with self._lock:
            self.rejections += 1
            self._m_rejections.inc()

    def gauge_queue_depth(self, depth: int) -> None:
        """Update only the live queue-depth gauge (no peak lock)."""
        self._m_queue_depth.set(depth)

    def observe_queue_depth(self, depth: int) -> None:
        """Track the live queue depth (gauge) and its high watermark."""
        self._m_queue_depth.set(depth)
        with self._lock:
            if depth > self.peak_queue_depth:
                self.peak_queue_depth = depth
                self._m_peak_queue_depth.set(depth)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def latency_percentile(self, quantile: float) -> float:
        """Latency percentile (seconds) over the recent-request
        reservoir (last ``LATENCY_WINDOW`` requests); 0.0 when empty."""
        if not 0.0 <= quantile <= 1.0:
            raise ServiceError("quantile must be within [0, 1]")
        with self._lock:
            window = sorted(self._latencies)
        if not window:
            return 0.0
        index = min(len(window) - 1,
                    max(0, round(quantile * (len(window) - 1))))
        return window[index]

    @property
    def latency_p50_seconds(self) -> float:
        return self.latency_percentile(0.50)

    @property
    def latency_p95_seconds(self) -> float:
        return self.latency_percentile(0.95)

    def snapshot(self) -> Dict[str, object]:
        """A consistent, JSON-ready view of every counter."""
        with self._lock:
            window = sorted(self._latencies)
            snap: Dict[str, object] = {
                "engine_kind": self.engine_kind,
                "requests": self.requests,
                "responses_diagnosed": self.responses_diagnosed,
                "total_latency_seconds": self.total_latency_seconds,
                "evictions": self.evictions,
                "coalesced_batches": self.coalesced_batches,
                "coalesced_requests": self.coalesced_requests,
                "rejections": self.rejections,
                "posterior_requests": self.posterior_requests,
                "posterior_rows": self.posterior_rows,
                "posterior_builds": self.posterior_builds,
                "posterior_samples": self.posterior_samples,
                "peak_queue_depth": self.peak_queue_depth,
                "batch_size_histogram": dict(sorted(
                    self.batch_size_histogram.items())),
                "per_circuit": {name: stats.as_dict()
                                for name, stats
                                in self.per_circuit.items()},
            }
        for label, quantile in (("latency_p50_seconds", 0.50),
                                ("latency_p95_seconds", 0.95)):
            if window:
                index = min(len(window) - 1,
                            max(0, round(quantile * (len(window) - 1))))
                snap[label] = window[index]
            else:
                snap[label] = 0.0
        return snap


@dataclass
class _Engine:
    """One warmed circuit: the pipeline result + its batch diagnoser.

    ``posterior`` is the lazily built probabilistic tier (None until the
    first posterior request; guarded by the circuit's build lock).
    """

    result: ATPGResult
    diagnoser: BatchDiagnoser
    posterior: Optional[PosteriorDiagnoser] = None


class DiagnosisService:
    """Multi-circuit diagnosis frontend with an engine LRU.

    Parameters
    ----------
    config:
        Pipeline configuration used to warm engines (defaults to
        :meth:`PipelineConfig.paper`).
    store:
        Optional artifact store; warmed engines then load cached
        dictionaries/GA results instead of re-simulating. Accepts an
        :class:`~repro.runtime.store.ArtifactStore` or a store-root
        path.
    max_engines:
        LRU capacity: the least recently used engine is evicted when a
        warm-up would exceed it.
    seed:
        GA seed used for every warm-up (per-circuit determinism).
    registry:
        Metrics registry backing this service's :class:`ServiceStats`;
        defaults to a fresh one per service (see
        :meth:`metrics_text`).
    posterior:
        Tolerance model / sampling knobs for the probabilistic tier
        (:meth:`diagnose_posterior`). Defaults to
        ``PosteriorConfig(seed=seed)`` so replicas sharing a GA seed
        also share their Monte-Carlo worlds.
    """

    def __init__(self, config: Optional[PipelineConfig] = None,
                 store: StoreLike = None,
                 max_engines: int = 4, seed: int = 0,
                 registry: Optional[telemetry.MetricsRegistry] = None,
                 posterior: Optional[PosteriorConfig] = None,
                 ) -> None:
        if max_engines < 1:
            raise ServiceError("max_engines must be >= 1")
        self.config = config or PipelineConfig.paper()
        self.store = as_store(store)
        self.max_engines = max_engines
        self.seed = seed
        # Same GA seed by default so every replica of a cluster samples
        # identical Monte-Carlo worlds (bitwise-reproducible posteriors
        # regardless of which replica answers).
        self.posterior_config = posterior or PosteriorConfig(seed=seed)
        self.stats = ServiceStats(registry=registry,
                                  engine_kind=self.config.engine.kind)
        self._circuits: Dict[str, CircuitInfo] = {}
        self._engines: "OrderedDict[str, _Engine]" = OrderedDict()
        self._lock = threading.Lock()
        # Per-circuit warm-up locks: a cold circuit is built by exactly
        # one thread while racing threads wait on its lock instead of
        # duplicating the (expensive) pipeline run.
        self._build_locks: Dict[str, threading.Lock] = {}

    # ------------------------------------------------------------------
    # Circuit registry
    # ------------------------------------------------------------------
    def register(self, name: str, info: CircuitInfo) -> None:
        """Register a custom circuit under ``name``.

        Benchmark circuits (see ``BENCHMARK_CIRCUITS``) resolve by name
        automatically and need no registration.
        """
        with self._lock:
            self._circuits[name] = info

    def _resolve(self, name: str) -> CircuitInfo:
        with self._lock:
            info = self._circuits.get(name)
        if info is not None:
            return info
        if name in BENCHMARK_CIRCUITS:
            return get_benchmark(name)
        raise ServiceError(
            f"unknown circuit {name!r}; register() it or use one of "
            f"{sorted(BENCHMARK_CIRCUITS)}")

    def has_circuit(self, name: str) -> bool:
        """Whether ``name`` would resolve, without building anything.

        The cheap pre-validation the serving front runs before it
        allocates any per-circuit queue state for a request.
        """
        with self._lock:
            if name in self._circuits:
                return True
        return name in BENCHMARK_CIRCUITS

    def known_circuits(self) -> Dict[str, Tuple[str, ...]]:
        """Circuit names the service can answer for, by origin."""
        with self._lock:
            registered = tuple(sorted(self._circuits))
        return {"registered": registered,
                "benchmarks": tuple(sorted(BENCHMARK_CIRCUITS)),
                "warmed": self.warmed_circuits}

    @property
    def warmed_circuits(self) -> Tuple[str, ...]:
        """Currently warmed circuit names, least recently used first."""
        with self._lock:
            return tuple(self._engines)

    # ------------------------------------------------------------------
    # Warm-up / LRU
    # ------------------------------------------------------------------
    def warm(self, circuit_name: str) -> ATPGResult:
        """Ensure an engine for ``circuit_name`` is loaded; return its
        pipeline result. Runs the ATPG flow (store-accelerated when a
        store is configured) on a cold miss."""
        return self._engine(circuit_name).result

    def _engine_if_warm(self, circuit_name: str) -> Optional[_Engine]:
        """The warmed engine, or None on a cold miss (never builds)."""
        with self._lock:
            engine = self._engines.get(circuit_name)
            if engine is not None:
                self._engines.move_to_end(circuit_name)
            return engine

    def _engine(self, circuit_name: str) -> _Engine:
        engine = self._engine_if_warm(circuit_name)
        if engine is not None:
            return engine
        # Resolve before allocating the build lock so unknown names
        # raise without leaving a permanent _build_locks entry behind.
        info = self._resolve(circuit_name)
        with self._lock:
            build_lock = self._build_locks.setdefault(
                circuit_name, threading.Lock())
        # Build outside the service lock: warming is slow and other
        # circuits' requests must not stall behind it. The per-circuit
        # lock serialises racing warm-ups of the *same* circuit so the
        # pipeline runs exactly once.
        with build_lock:
            engine = self._engine_if_warm(circuit_name)
            if engine is not None:        # built while we waited
                return engine
            with telemetry.TRACER.span("service.warm_build",
                                       circuit=circuit_name):
                result = FaultTrajectoryATPG(info, self.config).run(
                    seed=self.seed, store=self.store)
            engine = _Engine(result=result,
                             diagnoser=result.batch_diagnoser())
            with self._lock:
                self._engines[circuit_name] = engine
                evicted = 0
                while len(self._engines) > self.max_engines:
                    self._engines.popitem(last=False)
                    evicted += 1
            self.stats.record_warm_load(circuit_name)
            if evicted:
                self.stats.record_eviction(evicted)
        return engine

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def submit(self, circuit_name: str,
               responses: ResponseBatch) -> List[Diagnosis]:
        """Diagnose a batch of measured responses for one circuit.

        ``responses`` is a sequence of
        :class:`~repro.sim.ac.FrequencyResponse` objects or an (N, F)
        matrix of dB magnitudes at the circuit's test vector (ascending
        frequency order). Returns one :class:`Diagnosis` per row.
        """
        started = time.perf_counter()
        engine = self._engine(circuit_name)
        diagnoses = engine.diagnoser.classify_responses(responses)
        elapsed = time.perf_counter() - started
        self.stats.record_request(circuit_name, len(diagnoses), elapsed)
        return diagnoses

    def submit_many(self, requests: Sequence[Tuple[str, ResponseBatch]]
                    ) -> List[List[Diagnosis]]:
        """Diagnose a mixed-circuit burst: one classify per circuit.

        ``requests`` is a sequence of ``(circuit_name, responses)``
        pairs (each ``responses`` as in :meth:`submit`). The burst is
        grouped by circuit, every circuit's rows are stacked, and
        exactly one
        :meth:`~repro.runtime.batch.BatchDiagnoser.classify_points`
        call serves all of that circuit's requests -- the batched
        engine's fixed cost is paid once per *circuit*, not once per
        request. Returns one diagnosis list per request, in input
        order, bitwise-identical to per-request :meth:`submit` calls
        (classification is row-independent).

        Errors are not isolated per request: a malformed entry
        (unknown circuit, wrong signature width) raises and fails the
        whole burst. Use the async front's per-request futures when
        callers need isolation.
        """
        started = time.perf_counter()
        if not requests:
            return []
        by_circuit: "OrderedDict[str, List[int]]" = OrderedDict()
        for index, (circuit_name, _) in enumerate(requests):
            by_circuit.setdefault(circuit_name, []).append(index)
        results: List[List[Diagnosis]] = [[] for _ in requests]
        for circuit_name, indices in by_circuit.items():
            diagnoser = self._engine(circuit_name).diagnoser
            points = [diagnoser.signatures(requests[index][1])
                      for index in indices]
            stacked = points[0] if len(points) == 1 \
                else np.concatenate(points, axis=0)
            diagnoses = diagnoser.classify_points(stacked)
            finished = time.perf_counter()
            offset = 0
            records: List[Tuple[int, float]] = []
            for index, part in zip(indices, points):
                n_rows = int(part.shape[0])
                results[index] = diagnoses[offset:offset + n_rows]
                offset += n_rows
                records.append((n_rows, finished - started))
            self.stats.record_coalesced(circuit_name, records,
                                        n_rows=int(stacked.shape[0]))
        return results

    # ------------------------------------------------------------------
    # Probabilistic tier
    # ------------------------------------------------------------------
    def diagnose_posterior(self, circuit_name: str,
                           responses: ResponseBatch
                           ) -> List[PosteriorDiagnosis]:
        """Probabilistic diagnosis of a batch of measured responses.

        ``responses`` is accepted exactly as in :meth:`submit`; each row
        is answered with calibrated posterior fault probabilities and an
        information-gain ranking of candidate measurement frequencies
        instead of a single hard label. The signature transform is
        shared with the hard tier (the engine's batch diagnoser), so
        both tiers see identical points.
        """
        started = time.perf_counter()
        diagnoser, diagnose = self._kernel(circuit_name, "posterior")
        results = diagnose(diagnoser.signatures(responses))
        elapsed = time.perf_counter() - started
        self.stats.record_posterior(
            circuit_name, [(len(results), elapsed)],
            [result.entropy_bits for result in results])
        return results

    def _kernel(self, circuit_name: str, mode: str, *,
                build: bool = True
                ) -> Optional[Tuple[BatchDiagnoser, Callable]]:
        """The mode's ``(batch diagnoser, points -> answers)`` pair.

        Both modes share the diagnoser's ``signatures`` transform; the
        callable is ``classify_points`` (hard) or the posterior tier's
        ``diagnose_points``, the tier built at most once per warmed
        engine under the circuit's build lock. ``build=False`` (the
        warm fast path) returns None rather than build anything.
        """
        engine = self._engine(circuit_name) if build \
            else self._engine_if_warm(circuit_name)
        if engine is None:
            return None
        if mode == "hard":
            return engine.diagnoser, engine.diagnoser.classify_points
        if engine.posterior is None:
            if not build:
                return None
            with self._lock:
                build_lock = self._build_locks.setdefault(
                    circuit_name, threading.Lock())
            with build_lock:
                if engine.posterior is None:  # not built while we waited
                    started = time.perf_counter()
                    with telemetry.TRACER.span("service.posterior_build",
                                               circuit=circuit_name):
                        posterior = PosteriorDiagnoser.from_atpg(
                            engine.result, self.posterior_config)
                    engine.posterior = posterior
                    self.stats.record_posterior_build(
                        circuit_name, posterior.samples_simulated,
                        time.perf_counter() - started)
        return engine.diagnoser, engine.posterior.diagnose_points

    def _record_flush(self, circuit_name: str, mode: str,
                      request_latencies: Sequence[Tuple[int, float]],
                      answers: Sequence) -> None:
        """Record one coalesced call of ``mode`` answering several
        requests (``(n_rows, latency_seconds)`` each)."""
        if mode == "posterior":
            self.stats.record_posterior(
                circuit_name, request_latencies,
                [answer.entropy_bits for answer in answers])
        else:
            self.stats.record_coalesced(circuit_name, request_latencies,
                                        n_rows=len(answers))

    def test_vector_hz(self, circuit_name: str) -> Tuple[float, ...]:
        """The warmed test vector for a circuit (what to measure at)."""
        return self._engine(circuit_name).result.test_vector_hz

    def metrics_text(self) -> str:
        """Prometheus text: this service's registry + the process-wide
        engine/pipeline/store families (deduplicated when shared)."""
        if self.stats.registry is telemetry.REGISTRY:
            return telemetry.REGISTRY.render()
        return telemetry.render_registries(self.stats.registry,
                                           telemetry.REGISTRY)
