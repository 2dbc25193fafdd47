"""Stdlib-only observability: metrics registry and the span sink.

Two pieces, shared by the serving stack:

* :class:`MetricsRegistry` -- counters, gauges and fixed-bucket
  histograms, all with optional labels, rendered in Prometheus text
  exposition format 0.0.4 (and parsed back by
  :func:`parse_exposition`, which the test suite and the CI smoke job
  use to validate scrapes).
* :class:`ProfilingCollector` -- a :data:`~repro.tracing.TRACER` sink
  that turns finished hot-path spans (engine stamp/solve, pipeline
  stages, GA generations, surface sampling) into registry families.

Spans and request IDs live in :mod:`repro.tracing` and are re-exported
here; request IDs are propagated over HTTP as ``X-Request-Id`` (see
:mod:`repro.runtime.server` / :mod:`repro.runtime.cluster`).

Everything here is plain stdlib; no third-party client library.  A
process-default :data:`REGISTRY` is instrumented at import so engine
and pipeline timings are always collected; per-service metrics live in
per-service registries so concurrent services never share counters.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..tracing import (TRACER, Span, Tracer, current_request_id,
                       ensure_request_id, new_request_id,
                       set_request_id)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_SECONDS_BUCKETS",
    "POWER_OF_TWO_BUCKETS",
    "CONTENT_TYPE",
    "parse_exposition",
    "render_families",
    "render_registries",
    "Span",
    "Tracer",
    "TRACER",
    "new_request_id",
    "current_request_id",
    "set_request_id",
    "ensure_request_id",
    "ProfilingCollector",
    "install_default_instrumentation",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Latency buckets (seconds) used for every ``*_seconds`` histogram.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Buckets for batch/row-count histograms (powers of two).
POWER_OF_TWO_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


# ----------------------------------------------------------------------
# Text exposition helpers
# ----------------------------------------------------------------------

def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\"", "\\\"")
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 2 ** 53:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items())
    return "{" + inner + "}"


def _format_le(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    return _format_value(bound)


# ----------------------------------------------------------------------
# Metric children (one per unique label-value combination)
# ----------------------------------------------------------------------

class _CounterChild:
    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class _GaugeChild:
    __slots__ = ("_value", "_lock", "_func")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0.0
        self._lock = lock
        self._func: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is below it (watermarks)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    def set_function(self, func: Callable[[], float]) -> None:
        """Evaluate ``func`` lazily at render time (e.g. disk usage)."""
        self._func = func

    @property
    def value(self) -> float:
        func = self._func
        if func is not None:
            try:
                return float(func())
            except Exception:
                return float("nan")
        return self._value


class _HistogramChild:
    __slots__ = ("_bounds", "_counts", "_sum", "_lock")

    def __init__(self, bounds: Tuple[float, ...],
                 lock: threading.Lock) -> None:
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._lock = lock

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return sum(self._counts)

    def bucket_counts(self) -> List[int]:
        """Non-cumulative per-bucket counts (last entry is +Inf)."""
        with self._lock:
            return list(self._counts)


# ----------------------------------------------------------------------
# Metric families
# ----------------------------------------------------------------------

class _Family:
    """Base for Counter/Gauge/Histogram: children keyed by label values."""

    type_name = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str] = ()) -> None:
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, *values: object, **kwargs: object):
        """Get or create the child for one label-value combination."""
        if values and kwargs:
            raise ValueError("pass label values positionally or by "
                             "keyword, not both")
        if kwargs:
            try:
                values = tuple(kwargs[name] for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(
                    f"{self.name}: missing label {exc.args[0]!r}") from exc
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected {len(self.labelnames)} label "
                f"value(s), got {len(values)}")
        key = tuple(str(v) for v in values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    def _default_child(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} has labels {self.labelnames}; call "
                f".labels(...) first")
        return self._children[()]

    def children(self) -> List[Tuple[Dict[str, str], object]]:
        with self._lock:
            items = list(self._children.items())
        return [(dict(zip(self.labelnames, key)), child)
                for key, child in items]

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        lines = [f"# HELP {self.name} {_escape_help(self.help)}",
                 f"# TYPE {self.name} {self.type_name}"]
        for labels, child in self.children():
            lines.extend(self._render_child(labels, child))
        return "\n".join(lines) + "\n"

    def _render_child(self, labels: Dict[str, str],
                      child) -> List[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Family):
    """Monotonically increasing counter (float-valued, like Prometheus)."""

    type_name = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value

    def _render_child(self, labels, child) -> List[str]:
        return [f"{self.name}{_format_labels(labels)} "
                f"{_format_value(child.value)}"]


class Gauge(_Family):
    """A value that can go up and down (or be computed at render time)."""

    type_name = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set_max(self, value: float) -> None:
        self._default_child().set_max(value)

    def set_function(self, func: Callable[[], float]) -> None:
        self._default_child().set_function(func)

    @property
    def value(self) -> float:
        return self._default_child().value

    def _render_child(self, labels, child) -> List[str]:
        return [f"{self.name}{_format_labels(labels)} "
                f"{_format_value(child.value)}"]


class Histogram(_Family):
    """Fixed-bucket histogram with cumulative Prometheus rendering."""

    type_name = "histogram"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if bounds and bounds[-1] == float("inf"):
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = bounds
        super().__init__(name, help_text, labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets, self._lock)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def sum(self) -> float:
        return self._default_child().sum

    @property
    def count(self) -> int:
        return self._default_child().count

    def bucket_counts(self) -> List[int]:
        return self._default_child().bucket_counts()

    def _render_child(self, labels, child) -> List[str]:
        lines = []
        cumulative = 0
        counts = child.bucket_counts()
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            bucket_labels = dict(labels)
            bucket_labels["le"] = _format_le(bound)
            lines.append(f"{self.name}_bucket"
                         f"{_format_labels(bucket_labels)} {cumulative}")
        cumulative += counts[-1]
        inf_labels = dict(labels)
        inf_labels["le"] = "+Inf"
        lines.append(f"{self.name}_bucket{_format_labels(inf_labels)} "
                     f"{cumulative}")
        lines.append(f"{self.name}_sum{_format_labels(labels)} "
                     f"{_format_value(child.sum)}")
        lines.append(f"{self.name}_count{_format_labels(labels)} "
                     f"{cumulative}")
        return lines


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class MetricsRegistry:
    """A set of metric families rendered together.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    for an existing name with a matching type and label set returns the
    existing family, so independent modules can share families without
    coordination.  A type or label mismatch raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _get_or_create(self, cls, name: str, help_text: str,
                       labelnames: Sequence[str], **kwargs) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.type_name}, not {cls.type_name}")
                if family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{family.labelnames}, not {tuple(labelnames)}")
                return family
            family = cls(name, help_text, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str,
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str,
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str,
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, labelnames,
                                   buckets=buckets)

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name]
                    for name in sorted(self._families)]

    def render(self) -> str:
        """The whole registry in Prometheus text exposition 0.0.4."""
        return "".join(family.render() for family in self.families())


def render_registries(*registries: MetricsRegistry) -> str:
    """Concatenate several registries (families must not collide)."""
    return "".join(registry.render() for registry in registries)


#: Process-default registry: engine/pipeline/store instrumentation lands
#: here.  Per-service metrics use per-service registries instead.
REGISTRY = MetricsRegistry()


# ----------------------------------------------------------------------
# Exposition parsing (tests, CI smoke, cluster aggregation)
# ----------------------------------------------------------------------

def _parse_labels(text: str) -> Tuple[Dict[str, str], int]:
    """Parse ``{a="b",...}`` starting at ``text[0] == '{'``.

    Returns the label dict and the index just past the closing brace.
    """
    labels: Dict[str, str] = {}
    i = 1
    while i < len(text):
        while i < len(text) and text[i] in ", \t":
            i += 1
        if i < len(text) and text[i] == "}":
            return labels, i + 1
        j = text.index("=", i)
        name = text[i:j].strip()
        i = j + 1
        if text[i] != '"':
            raise ValueError(f"expected quoted label value at {text[i:]!r}")
        i += 1
        out = []
        while i < len(text) and text[i] != '"':
            ch = text[i]
            if ch == "\\":
                if i + 1 >= len(text):
                    raise ValueError("dangling escape in label value")
                nxt = text[i + 1]
                out.append({"\\": "\\", '"': '"', "n": "\n"}.get(nxt, nxt))
                i += 2
            else:
                out.append(ch)
                i += 1
        if i >= len(text):
            raise ValueError("unterminated label value")
        labels[name] = "".join(out)
        i += 1
    raise ValueError("unterminated label set")


def parse_exposition(text: str) -> Dict[str, Dict[str, object]]:
    """Parse Prometheus text exposition 0.0.4.

    Returns ``{family_name: {"type": str, "help": str, "samples":
    [(sample_name, labels_dict, value), ...]}}``.  ``_bucket`` /
    ``_sum`` / ``_count`` samples are grouped under their histogram's
    family name.  Raises ``ValueError`` on malformed lines, so it
    doubles as a format validator for the test suite and CI smoke job.
    """
    families: Dict[str, Dict[str, object]] = {}

    def family_for(sample_name: str) -> Dict[str, object]:
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = sample_name[: -len(suffix)]
            if sample_name.endswith(suffix) and trimmed in families \
                    and families[trimmed]["type"] == "histogram":
                base = trimmed
                break
        return families.setdefault(
            base, {"type": "untyped", "help": "", "samples": []})

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            entry = families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []})
            entry["help"] = (help_text.replace("\\n", "\n")
                             .replace("\\\\", "\\"))
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE "):]
            name, _, type_name = rest.partition(" ")
            if type_name not in ("counter", "gauge", "histogram",
                                 "summary", "untyped"):
                raise ValueError(f"unknown metric type {type_name!r}")
            entry = families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []})
            entry["type"] = type_name
            continue
        if line.startswith("#"):
            continue  # comment
        brace = line.find("{")
        if brace >= 0:
            sample_name = line[:brace]
            labels, end = _parse_labels(line[brace:])
            value_text = line[brace + end:].strip()
        else:
            sample_name, _, value_text = line.partition(" ")
            labels = {}
            value_text = value_text.strip()
        if not _METRIC_NAME_RE.match(sample_name):
            raise ValueError(f"invalid sample name {sample_name!r}")
        value_text = value_text.split()[0]
        if value_text == "+Inf":
            value = float("inf")
        elif value_text == "-Inf":
            value = float("-inf")
        else:
            value = float(value_text)
        family = family_for(sample_name)
        family["samples"].append((sample_name, labels, value))
    return families


def render_families(families: Mapping[str, Mapping[str, object]]) -> str:
    """Render the :func:`parse_exposition` structure back to text.

    Used by the cluster front to re-expose worker scrapes after tagging
    every sample with a ``replica`` label.
    """
    out = []
    for name in sorted(families):
        entry = families[name]
        help_text = str(entry.get("help", ""))
        type_name = str(entry.get("type", "untyped"))
        out.append(f"# HELP {name} {_escape_help(help_text)}")
        out.append(f"# TYPE {name} {type_name}")
        for sample_name, labels, value in entry.get("samples", ()):
            out.append(f"{sample_name}{_format_labels(labels)} "
                       f"{_format_value(value)}")
    return "\n".join(out) + ("\n" if out else "")


# ----------------------------------------------------------------------
# Span sink: finished hot-path spans -> registry families
# ----------------------------------------------------------------------

class ProfilingCollector:
    """A :data:`~repro.tracing.TRACER` sink that fills metric families.

    Families (all prefixed ``repro_``), each fed by one span name:

    * ``repro_engine_stamp_seconds{engine}`` -- histogram of MNA
      stamping (engine construction) wall time (``engine.stamp``);
    * ``repro_engine_solve_seconds{engine}`` -- histogram of
      ``transfer_block`` wall time (``engine.solve``);
    * ``repro_engine_variants_solved_total{engine}`` /
      ``repro_engine_solve_chunks_total{engine}`` -- work counters;
    * ``repro_engine_lowrank_updates_total`` -- variants solved via
      Sherman-Morrison-Woodbury updates by the factored engine;
    * ``repro_engine_lowrank_fallbacks_total{reason}`` -- variants the
      factored engine routed to the dense path (``conditioning``,
      ``rank`` or ``nonfinite``);
    * ``repro_engine_lowrank_factor_seconds{mode}`` -- histogram of
      nominal factorisation + multi-RHS solve time (``dense`` or
      ``sparse`` assembly);
    * ``repro_engine_lowrank_update_seconds`` -- histogram of the
      batched capacitance-solve (update) stage;
    * ``repro_pipeline_stage_seconds{stage}`` -- histogram of ATPG
      build stages (dictionary, ga_search, exact, trajectories);
    * ``repro_ga_generations_total`` / ``repro_ga_generation_seconds``;
    * ``repro_surface_samples_total`` / ``repro_surface_rows_total``.

    The four ``lowrank`` families read the factored engine's
    ``engine.solve`` attributes.  Usable as a context manager for
    scoped collection into a private registry (tests, benchmarks).
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._stamp_seconds = registry.histogram(
            "repro_engine_stamp_seconds",
            "MNA stamp (engine construction) wall time.", ("engine",))
        self._solve_seconds = registry.histogram(
            "repro_engine_solve_seconds",
            "Batched transfer_block solve wall time.", ("engine",))
        self._variants_total = registry.counter(
            "repro_engine_variants_solved_total",
            "Circuit variants solved across all transfer blocks.",
            ("engine",))
        self._chunks_total = registry.counter(
            "repro_engine_solve_chunks_total",
            "Chunked batched-solve invocations.", ("engine",))
        self._lowrank_updates_total = registry.counter(
            "repro_engine_lowrank_updates_total",
            "Variants solved via Sherman-Morrison-Woodbury low-rank "
            "updates.")
        self._lowrank_fallbacks_total = registry.counter(
            "repro_engine_lowrank_fallbacks_total",
            "Variants routed from the low-rank path to the dense "
            "fallback.", ("reason",))
        self._lowrank_factor_seconds = registry.histogram(
            "repro_engine_lowrank_factor_seconds",
            "Nominal factorisation + multi-RHS solve wall time.",
            ("mode",))
        self._lowrank_update_seconds = registry.histogram(
            "repro_engine_lowrank_update_seconds",
            "Low-rank capacitance-solve (update stage) wall time.")
        self._stage_seconds = registry.histogram(
            "repro_pipeline_stage_seconds",
            "ATPG pipeline stage wall time.", ("stage",),
            buckets=DEFAULT_SECONDS_BUCKETS + (30.0, 120.0))
        self._generations_total = registry.counter(
            "repro_ga_generations_total", "GA generations executed.")
        self._generation_seconds = registry.histogram(
            "repro_ga_generation_seconds", "GA generation wall time.")
        self._samples_total = registry.counter(
            "repro_surface_samples_total",
            "Vectorised response-surface sampling calls.")
        self._surface_rows_total = registry.counter(
            "repro_surface_rows_total",
            "Fault-variant rows sampled from response surfaces.")

    # -- sink -----------------------------------------------------------
    def __call__(self, span: Span) -> None:
        name, seconds, attrs = span.name, span.duration_s, span.attrs
        if name == "engine.solve":
            engine = str(attrs.get("engine", "unknown"))
            self._solve_seconds.labels(engine).observe(seconds)
            variants = attrs.get("variants")
            if variants:
                self._variants_total.labels(engine).inc(float(variants))
            chunks = attrs.get("chunks")
            if chunks:
                self._chunks_total.labels(engine).inc(float(chunks))
            if "factor_seconds" in attrs:
                self._observe_lowrank(attrs)
        elif name == "engine.stamp":
            engine = str(attrs.get("engine", "unknown"))
            self._stamp_seconds.labels(engine).observe(seconds)
        elif name.startswith("pipeline."):
            self._stage_seconds.labels(name[len("pipeline."):]) \
                .observe(seconds)
        elif name == "ga.generation":
            self._generations_total.inc()
            self._generation_seconds.observe(seconds)
        elif name == "surface.sample":
            self._samples_total.inc()
            rows = attrs.get("rows")
            if rows:
                self._surface_rows_total.inc(float(rows))

    def _observe_lowrank(self, attrs: Mapping[str, object]) -> None:
        mode = str(attrs.get("mode", "dense"))
        self._lowrank_factor_seconds.labels(mode).observe(
            float(attrs["factor_seconds"]))
        self._lowrank_update_seconds.observe(
            float(attrs.get("update_seconds", 0.0)))
        updates = attrs.get("updates")
        if updates:
            self._lowrank_updates_total.inc(float(updates))
        for reason in ("conditioning", "rank", "nonfinite"):
            count = attrs.get(f"fallback_{reason}")
            if count:
                self._lowrank_fallbacks_total.labels(reason) \
                    .inc(float(count))

    # -- lifecycle ------------------------------------------------------
    def install(self) -> "ProfilingCollector":
        TRACER.add_sink(self)
        return self

    def uninstall(self) -> None:
        TRACER.remove_sink(self)

    def __enter__(self) -> "ProfilingCollector":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


_DEFAULT_COLLECTOR: Optional[ProfilingCollector] = None


def install_default_instrumentation() -> ProfilingCollector:
    """Wire the process-default :data:`REGISTRY` to :data:`TRACER`.

    Idempotent; called at import so `/v1/metrics` always carries engine
    and pipeline families without explicit setup.
    """
    global _DEFAULT_COLLECTOR
    if _DEFAULT_COLLECTOR is None:
        _DEFAULT_COLLECTOR = ProfilingCollector(REGISTRY).install()
    return _DEFAULT_COLLECTOR


install_default_instrumentation()
