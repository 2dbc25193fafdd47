"""Trace spans and request ids: the library's one timing hook.

Hot paths (engine stamp/solve, the ATPG pipeline stages, GA
generations, surface sampling) and the serving stack all time their
work the same way::

    with TRACER.span("engine.solve", engine="batched") as span:
        ...
        span.attrs["chunks"] = chunks    # known only at the end

Spans nest through a :mod:`contextvars.ContextVar`, so children follow
the logical (task-local) context through the asyncio front and any
executor hop run under :func:`contextvars.copy_context`.  When a span
ends -- normally or by an exception -- the tracer hands it to every
subscribed *sink* (``ProfilingCollector`` in :mod:`repro.runtime.telemetry`
turns them into metric families).  A finished root is then dropped;
nothing is retained.

The module imports nothing from the rest of :mod:`repro`, so the
lowest layers (``repro.sim.engine``) can depend on it without an
import cycle.  Sinks must not break the caller: a sink that raises is
skipped for that span and the exception is swallowed.
"""

from __future__ import annotations

import contextvars
import re
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanSink",
    "Tracer",
    "TRACER",
    "new_request_id",
    "current_request_id",
    "set_request_id",
    "ensure_request_id",
]


class Span:
    """One timed operation; children nest via the tracer's contextvar."""

    __slots__ = ("name", "attrs", "start", "duration_s", "children",
                 "request_id")

    def __init__(self, name: str, attrs: Dict[str, object],
                 request_id: Optional[str]) -> None:
        self.name = name
        self.attrs = attrs
        self.start = time.perf_counter()
        self.duration_s: Optional[float] = None
        self.children: List["Span"] = []
        self.request_id = request_id

    def finish(self) -> None:
        self.duration_s = time.perf_counter() - self.start

    def to_dict(self, _origin: Optional[float] = None) -> Dict[str, object]:
        origin = self.start if _origin is None else _origin
        payload: Dict[str, object] = {
            "name": self.name,
            "start_ms": round((self.start - origin) * 1e3, 3),
            "duration_ms": round((self.duration_s or 0.0) * 1e3, 3),
        }
        if self.request_id:
            payload["request_id"] = self.request_id
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [child.to_dict(origin)
                                   for child in self.children]
        return payload


#: A sink receives every finished span.
SpanSink = Callable[[Span], None]


class _Discard(dict):
    """Attribute map that ignores writes (the suspended span's)."""

    def __setitem__(self, key: str, value: object) -> None:
        pass

    def update(self, *args: object, **kwargs: object) -> None:
        pass


#: Yielded by every span opened while the tracer is suspended.
_IDLE_SPAN = Span("idle", _Discard(), None)


class Tracer:
    """Context-manager spans that feed subscribed sinks on exit.

    The current span rides a :mod:`contextvars.ContextVar`, so nesting
    follows logical (task-local) context through the asyncio front:
    concurrent requests build independent trees.
    """

    def __init__(self) -> None:
        self._current: "contextvars.ContextVar[Optional[Span]]" = \
            contextvars.ContextVar("repro_current_span", default=None)
        # Copy-on-write under the lock, so span ends read it lock-free.
        self._sinks: Tuple[SpanSink, ...] = ()
        self._sinks_lock = threading.Lock()
        self._suspended = False

    def current(self) -> Optional[Span]:
        return self._current.get()

    def add_sink(self, sink: SpanSink) -> SpanSink:
        """Subscribe ``sink`` to finished spans; returns it."""
        with self._sinks_lock:
            if sink not in self._sinks:
                self._sinks += (sink,)
        return sink

    def remove_sink(self, sink: SpanSink) -> None:
        """Unsubscribe ``sink``; unknown sinks are ignored."""
        with self._sinks_lock:
            self._sinks = tuple(s for s in self._sinks if s is not sink)

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        if self._suspended:
            yield _IDLE_SPAN
            return
        parent = self._current.get()
        node = Span(name, attrs, _REQUEST_ID.get())
        token = self._current.set(node)
        try:
            yield node
        finally:
            node.finish()
            self._current.reset(token)
            if parent is not None:
                parent.children.append(node)
            for sink in self._sinks:
                try:
                    sink(node)
                except Exception:
                    pass

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Turn every span into a no-op (overhead measurements).

        Inside the block a span reads no clock, builds no :class:`Span`
        and calls no sink -- the baseline an instrumented run is
        compared against.
        """
        saved, self._suspended = self._suspended, True
        try:
            yield
        finally:
            self._suspended = saved


#: Process-default tracer: the hot paths and the serving layer record
#: into this one.
TRACER = Tracer()


# ----------------------------------------------------------------------
# Request IDs
# ----------------------------------------------------------------------

_REQUEST_ID: "contextvars.ContextVar[Optional[str]]" = \
    contextvars.ContextVar("repro_request_id", default=None)

_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


def new_request_id() -> str:
    return uuid.uuid4().hex


def current_request_id() -> Optional[str]:
    return _REQUEST_ID.get()


def set_request_id(request_id: Optional[str]) -> None:
    _REQUEST_ID.set(request_id)


def ensure_request_id(candidate: Optional[str] = None) -> str:
    """Adopt a well-formed inbound ID, else mint one; set the context."""
    if candidate and _REQUEST_ID_RE.match(candidate):
        request_id = candidate
    else:
        request_id = new_request_id()
    _REQUEST_ID.set(request_id)
    return request_id
