"""Serving facade: warmed diagnosis engines behind one submit() seam.

:class:`DiagnosisService` is the shape the async/HTTP layer
(:mod:`repro.runtime.server`) plugs into: it owns an LRU cache of warmed
per-circuit engines (an ATPG run and its trajectory classifier), loads
artifacts through an optional :class:`~repro.runtime.store.ArtifactStore`
so cold starts skip simulation, and answers hard
(``submit(circuit_name, responses)``) and posterior
(``diagnose_posterior``) requests through one path -- the mode's
batched kernel and one stats record -- while keeping request/latency
counters.

Thread-safety contract:

* engine-cache mutation holds the service lock; warm-up builds run
  outside it behind a *per-circuit* build lock, so a cold circuit is
  built exactly once no matter how many threads race on it, and other
  circuits' requests never stall behind the build;
* every :class:`ServiceStats` mutation goes through ``record_*`` methods
  that hold the stats object's own lock, so counters stay exact under
  concurrent ``submit`` from any number of threads;
* classification itself runs with no lock held (the classifier is
  read-only after construction).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..circuits.library import BENCHMARK_CIRCUITS, CircuitInfo, \
    get_benchmark
from ..core.atpg import ATPGResult, FaultTrajectoryATPG
from ..core.config import PipelineConfig
from ..diagnosis.classifier import (Diagnosis, ResponseBatch,
                                    TrajectoryClassifier)
from ..diagnosis.posterior import (PosteriorConfig, PosteriorDiagnoser,
                                   PosteriorDiagnosis)
from ..errors import ServiceError
from . import telemetry
from .store import ArtifactStore, as_store

#: Anything ``DiagnosisService(store=...)`` accepts.
StoreLike = Union[ArtifactStore, str, Path, None]

__all__ = ["DiagnosisService", "ServiceStats"]

#: How many recent request latencies the percentile reservoir keeps.
LATENCY_WINDOW = 4096


class ServiceStats:
    """Runtime counters of one service, booked in its metrics registry.

    Every count lives in exactly one place: a family of the stats
    object's own :class:`~repro.runtime.telemetry.MetricsRegistry` (the
    Prometheus view served by ``GET /v1/metrics``). Each service gets a
    fresh registry, so concurrent services never share counters. All
    mutation goes through the ``record_*`` / ``observe_*`` methods,
    which hold an internal lock -- callers may hammer one stats object
    from any number of threads and every counter stays exact.
    :meth:`snapshot` is the JSON view (``GET /v1/stats``) read back
    from the families; only the windowed latency percentiles come from
    a separate reservoir of recent request latencies, which the
    registry's fixed buckets cannot resolve exactly.
    """

    def __init__(self) -> None:
        self.registry = reg = telemetry.MetricsRegistry()
        self._lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._m_requests = reg.counter(
            "repro_service_requests_total",
            "Completed diagnosis requests.", ("circuit", "mode"))
        self._m_responses = reg.counter(
            "repro_service_responses_total",
            "Response rows diagnosed.", ("circuit", "mode"))
        self._m_warm_loads = reg.counter(
            "repro_service_warm_loads_total",
            "Engine warm-ups (pipeline builds or store loads).",
            ("circuit",))
        self._m_latency = reg.histogram(
            "repro_service_request_latency_seconds",
            "End-to-end request latency inside the service.",
            ("circuit", "mode"))
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
        self._m_posterior_samples = reg.counter(
            "repro_posterior_samples_total",
            "Monte-Carlo engine variants simulated by posterior builds.",
            ("circuit",))
        self._m_posterior_build = reg.histogram(
            "repro_posterior_build_seconds",
            "Posterior diagnoser build time (Monte-Carlo sweep).")
        self._m_posterior_entropy = reg.histogram(
            "repro_posterior_entropy_bits",
            "Posterior entropy per diagnosed row (bits).",
            buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5,
                     2.0, 3.0, 4.0, 6.0))

    # ------------------------------------------------------------------
    # Recording (thread-safe)
    # ------------------------------------------------------------------
    def record_answers(self, circuit_name: str, mode: str,
                       request_latencies: Sequence[Tuple[int, float]],
                       answers: Sequence, *,
                       coalesced: bool = False) -> None:
        """Record one diagnose call of ``mode`` and the requests it
        answered.

        ``request_latencies`` holds ``(n_rows, latency_seconds)`` per
        client request; ``answers`` is the call's whole answer list
        (posterior answers carry the per-row entropies). ``coalesced``
        marks a call the async front issued for a batch of requests,
        which also counts as coalesced and books its size. Both modes
        share every family (labelled by ``mode``) and the latency
        reservoir.
        """
        with self._lock:
            if coalesced:
                self._m_coalesced_batches.inc()
                self._m_coalesced_requests.inc(len(request_latencies))
                self._m_batch_rows.observe(len(answers))
            for n_rows, latency in request_latencies:
                self._latencies.append(latency)
                self._m_requests.labels(circuit_name, mode).inc()
                self._m_responses.labels(circuit_name, mode).inc(n_rows)
                self._m_latency.labels(circuit_name, mode).observe(latency)
            if mode == "posterior":
                for answer in answers:
                    self._m_posterior_entropy.observe(answer.entropy_bits)

    def record_posterior_build(self, circuit_name: str,
                               n_samples: int,
                               build_seconds: float) -> None:
        """Record one posterior diagnoser build (Monte-Carlo sweep)."""
        with self._lock:
            self._m_posterior_samples.labels(circuit_name).inc(n_samples)
            self._m_posterior_build.observe(build_seconds)

    def record_warm_load(self, circuit_name: str) -> None:
        with self._lock:
            self._m_warm_loads.labels(circuit_name).inc()

    def record_eviction(self, count: int = 1) -> None:
        with self._lock:
            self._m_evictions.inc(count)

    def record_rejection(self) -> None:
        with self._lock:
            self._m_rejections.inc()

    def observe_queue_depth(self, depth: int) -> None:
        """Track the live queue depth (gauge) and its high watermark."""
        self._m_queue_depth.set(depth)
        self._m_peak_queue_depth.set_max(depth)

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
        """A JSON-ready view of every counter, read back from the
        registry families under the stats lock (counts as ``int``)."""
        with self._lock:
            requests = _by_circuit(self._m_requests)
            responses = _by_circuit(self._m_responses)
            warm_loads = _by_circuit(self._m_warm_loads)
            latency = _by_circuit(self._m_latency,
                                  read=lambda child: child.sum)
            batch_rows = self._m_batch_rows.bucket_counts()
            snap: Dict[str, object] = {
                "requests": sum(requests.values()),
                "responses_diagnosed": sum(responses.values()),
                "total_latency_seconds": sum(latency.values()),
                "evictions": int(self._m_evictions.value),
                "coalesced_batches": int(self._m_coalesced_batches.value),
                "coalesced_requests":
                    int(self._m_coalesced_requests.value),
                "rejections": int(self._m_rejections.value),
                "posterior_requests": sum(
                    _by_circuit(self._m_requests, "posterior").values()),
                "posterior_rows": sum(
                    _by_circuit(self._m_responses, "posterior").values()),
                "posterior_builds": self._m_posterior_build.count,
                "posterior_samples": sum(
                    _by_circuit(self._m_posterior_samples).values()),
                "peak_queue_depth": int(self._m_peak_queue_depth.value),
            }
        # Bucket upper bounds (rows) as keys; past the last, "+Inf".
        bounds = [int(bound) for bound in self._m_batch_rows.buckets]
        snap["batch_size_histogram"] = {
            bucket: count for bucket, count
            in zip(bounds + ["+Inf"], batch_rows) if count}
        per_circuit: Dict[str, Dict[str, object]] = {}
        for circuit in dict.fromkeys([*warm_loads, *requests]):
            n_requests = requests.get(circuit, 0)
            total = latency.get(circuit, 0.0)
            per_circuit[circuit] = {
                "requests": n_requests,
                "responses_diagnosed": responses.get(circuit, 0),
                "total_latency_seconds": total,
                "mean_latency_seconds":
                    total / n_requests if n_requests else 0.0,
                "warm_loads": warm_loads.get(circuit, 0),
            }
        snap["per_circuit"] = per_circuit
        snap["latency_p50_seconds"] = self.latency_p50_seconds
        snap["latency_p95_seconds"] = self.latency_p95_seconds
        return snap


def _by_circuit(family, mode: Optional[str] = None,
                read: Callable = lambda child: int(child.value)) -> Dict:
    """A ``circuit``-labelled family's children read and keyed by
    circuit, summed over ``mode`` children (only ``mode``'s if given)."""
    totals: Dict = {}
    for labels, child in family.children():
        if mode is None or labels["mode"] == mode:
            circuit = labels["circuit"]
            totals[circuit] = totals.get(circuit, 0) + read(child)
    return totals


@dataclass
class _Engine:
    """One warmed circuit: the pipeline result + its classifier.

    ``posterior`` is the lazily built probabilistic tier (None until the
    first posterior request; guarded by the circuit's build lock).
    """

    result: ATPGResult
    classifier: TrajectoryClassifier
    posterior: Optional[PosteriorDiagnoser] = None

    def posterior_answers(self, points) -> List[PosteriorDiagnosis]:
        """The posterior tier's answers with their rankings computed,
        so a request's latency includes the ranking it serves."""
        answers = self.posterior.diagnose_points(points)
        if answers:
            answers[0].test_ranking  # noqa: B018 -- ranks the whole batch
        return answers


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
    posterior:
        Tolerance model / sampling knobs for the probabilistic tier
        (:meth:`diagnose_posterior`). Defaults to
        ``PosteriorConfig(seed=seed)`` so replicas sharing a GA seed
        also share their Monte-Carlo worlds.
    """

    def __init__(self, config: Optional[PipelineConfig] = None,
                 store: StoreLike = None,
                 max_engines: int = 4, seed: int = 0,
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
        self.stats = ServiceStats()
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
            engine = _Engine(result=result, classifier=result.classifier)
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
        return self._answer(circuit_name, responses, "hard")

    def diagnose_posterior(self, circuit_name: str,
                           responses: ResponseBatch
                           ) -> List[PosteriorDiagnosis]:
        """Probabilistic diagnosis of a batch of measured responses.

        ``responses`` is accepted exactly as in :meth:`submit`; each row
        is answered with calibrated posterior fault probabilities and an
        information-gain ranking of candidate measurement frequencies
        instead of a single hard label. The signature transform is
        shared with the hard tier (the engine's classifier), so both
        tiers see identical points.
        """
        return self._answer(circuit_name, responses, "posterior")

    def _answer(self, circuit_name: str, responses: ResponseBatch,
                mode: str) -> list:
        """One request of ``mode``: signatures, the mode's kernel, one
        stats record."""
        started = time.perf_counter()
        classifier, answer = self._kernel(circuit_name, mode)
        answers = answer(classifier.signatures(responses))
        self.stats.record_answers(
            circuit_name, mode,
            [(len(answers), time.perf_counter() - started)], answers)
        return answers

    def _kernel(self, circuit_name: str, mode: str, *,
                build: bool = True
                ) -> Optional[Tuple[TrajectoryClassifier, Callable]]:
        """The mode's ``(classifier, points -> answers)`` pair.

        Both modes share the classifier's ``signatures`` transform; the
        callable is ``classify_points`` (hard) or the posterior tier's
        ``diagnose_points`` with the rankings read, the tier (ranking
        half included) built at most once per warmed engine under the
        circuit's build lock. ``build=False`` (the warm fast path)
        returns None rather than build anything.
        """
        engine = self._engine(circuit_name) if build \
            else self._engine_if_warm(circuit_name)
        if engine is None:
            return None
        if mode == "hard":
            return engine.classifier, engine.classifier.classify_points
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
                        # Every served answer puts its ranking on the
                        # wire: build the ranking half with the tier.
                        posterior.prepare_ranking()
                    engine.posterior = posterior
                    self.stats.record_posterior_build(
                        circuit_name, posterior.samples_simulated,
                        time.perf_counter() - started)
        return engine.classifier, engine.posterior_answers

    def test_vector_hz(self, circuit_name: str) -> Tuple[float, ...]:
        """The warmed test vector for a circuit (what to measure at)."""
        return self._engine(circuit_name).result.test_vector_hz

    def metrics_text(self) -> str:
        """Prometheus text: this service's registry + the process-wide
        engine/pipeline/store families."""
        return telemetry.render_registries(self.stats.registry,
                                           telemetry.REGISTRY)
