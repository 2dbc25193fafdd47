"""repro.runtime: the serving-shaped execution layer.

Turns the paper reproduction into an engine fit for heavy traffic:

* :mod:`repro.runtime.store` -- :class:`ArtifactStore`, the
  content-addressed on-disk cache of dictionaries, GA results and
  trajectory sets keyed by the canonical problem statement, with
  ``disk_usage`` accounting and LRU ``prune``;
* :mod:`repro.runtime.service` -- :class:`DiagnosisService`, the warm
  multi-circuit ``submit()``/``diagnose_posterior()`` facade with an
  engine LRU and counters; each warmed engine answers hard requests
  with the pipeline's
  :class:`~repro.diagnosis.classifier.TrajectoryClassifier`, which
  classifies a whole ``(N, F)`` batch in one vectorised call;
* :mod:`repro.runtime.server` -- :class:`AsyncDiagnosisService`, the
  awaitable coalescing front (micro-batching window, backpressure),
  plus a stdlib JSON-over-HTTP server (:func:`serve`) with persistent
  connections;
* :mod:`repro.runtime.cluster` -- :class:`ClusterService`, the
  consistent-hash circuit->replica router over HTTP replicas (spawned
  ``repro-serve`` workers or any running server), with health checks
  and re-route-on-death failover;
* :mod:`repro.runtime.codec` -- the transport-agnostic JSON wire
  format those requests and responses ride on;
* :mod:`repro.runtime.telemetry` -- the stdlib observability spine:
  Prometheus-text metrics registry (``GET /v1/metrics``) and
  :class:`ProfilingCollector`, the span sink that turns finished
  engine/pipeline/GA/surface spans into metric families (spans and
  request ids themselves live in :mod:`repro.tracing`);
* :mod:`repro.runtime.cli` -- the ``repro-serve`` launcher (single
  process or spawned cluster).

Every kernel (dictionary build, GA scoring, posterior world build) runs
serially in one process; the multi-core path is a replica cluster
(``repro-serve --replicas N``).
"""

from .cluster import (CircuitRouter, ClusterService, HTTPReplica,
                      SpawnedReplica)
from .server import AsyncDiagnosisService, DiagnosisHTTPServer, serve
from .service import DiagnosisService, ServiceStats
from .store import (ArtifactRecord, ArtifactStore, as_store, derive_key,
                    ga_search_key, problem_key)
from .telemetry import (REGISTRY, TRACER, Counter, Gauge, Histogram,
                        MetricsRegistry, ProfilingCollector, Span,
                        Tracer, current_request_id, new_request_id,
                        parse_exposition, render_registries)

__all__ = [
    "ArtifactStore",
    "as_store",
    "problem_key",
    "derive_key",
    "ga_search_key",
    "ArtifactRecord",
    "DiagnosisService",
    "ServiceStats",
    "AsyncDiagnosisService",
    "DiagnosisHTTPServer",
    "serve",
    "CircuitRouter",
    "ClusterService",
    "HTTPReplica",
    "SpawnedReplica",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "REGISTRY",
    "render_registries",
    "parse_exposition",
    "Tracer",
    "TRACER",
    "Span",
    "ProfilingCollector",
    "new_request_id",
    "current_request_id",
]
