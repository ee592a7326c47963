"""Span-based tracing with a guaranteed near-zero-overhead off switch.

A :class:`Tracer` records three kinds of things:

* **spans** — named intervals (`bfs.level`, `graph500.bfs`, …) opened
  with :meth:`Tracer.span` as a context manager.  Spans nest: each
  thread keeps its own stack, so spans opened on any thread are
  correctly parented without locking on the hot path (the only lock is
  the append of the finished record).
* **instant events** — point-in-time facts (:meth:`Tracer.instant`),
  used for the decision-audit channel (direction choices, predicted
  switching points).
* **metrics** — each tracer owns a
  :class:`~repro.obs.metrics.MetricsRegistry`, reachable through the
  :meth:`count` / :meth:`gauge_set` / :meth:`observe` shorthands.

The library's engines all resolve their tracer as ``tracer if tracer is
not None else get_tracer()``, and the process-global default is
:data:`NULL_TRACER` — a :class:`NullTracer` whose ``span()`` returns a
shared singleton no-op span and whose metric shorthands return
immediately.  The disabled cost per BFS *level* is therefore a few
no-op method calls, unmeasurable next to a vectorized level kernel
(``benchmarks/bench_kernels.py`` enforces the <3% whole-traversal
bound).

Synthetic spans (:meth:`Tracer.add_span`) carry externally computed
start/end times — that is how the heterogeneous executor lays the
*simulated* device schedule onto its own trace tracks.

Cross-process propagation: every tracer owns a ``trace_id`` and can
describe its current position as a :class:`TraceContext`
(:meth:`Tracer.current_context`) — trace id, innermost open span id,
and caller-attached baggage.  Installing that context in another
tracer (:meth:`Tracer.use_context`, typically in a child process via
:func:`repro.obs.live.spawn_traced`) makes the child's *root* spans
parent under the recorded span id and adopt the parent's trace id, so
the stitched recording reads as one tree.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import logging
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import ObsError
from repro.obs.clock import now
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "TraceContext",
    "SpanRecord",
    "EventRecord",
    "Span",
    "TraceListener",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


@dataclass(frozen=True)
class TraceContext:
    """A tracer's position, portable across threads and processes.

    ``trace_id`` identifies the recording, ``parent_span_id`` is the
    span new root spans should parent under (``None`` for a fresh
    trace), and ``baggage`` carries caller-attached JSON-ready facts
    (graph fingerprint, traversal root, …) that travel with the
    context rather than with any single span.
    """

    trace_id: str
    parent_span_id: int | None = None
    baggage: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready representation (what crosses the process pipe)."""
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "baggage": dict(self.baggage),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceContext":
        """Rebuild a context from :meth:`as_dict` output."""
        if not isinstance(payload, dict) or "trace_id" not in payload:
            raise ObsError(f"malformed trace-context payload: {payload!r}")
        parent = payload.get("parent_span_id")
        if parent is not None:
            parent = int(parent)
        return cls(
            trace_id=str(payload["trace_id"]),
            parent_span_id=parent,
            baggage=dict(payload.get("baggage") or {}),
        )


@dataclass(frozen=True)
class SpanRecord:
    """One finished (or synthetic) span."""

    name: str
    start: float
    end: float
    span_id: int
    parent_id: int | None
    thread_id: int
    thread_name: str
    track: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Elapsed seconds."""
        return self.end - self.start

    def as_dict(self) -> dict:
        """JSON-ready representation (the JSONL line payload)."""
        return {
            "kind": "span",
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "track": self.track,
            "attrs": self.attrs,
        }


@dataclass(frozen=True)
class EventRecord:
    """One instant event (a point on the timeline, no duration)."""

    name: str
    timestamp: float
    thread_id: int
    thread_name: str
    track: str | None = None
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready representation (the JSONL line payload)."""
        return {
            "kind": "event",
            "name": self.name,
            "timestamp": self.timestamp,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "track": self.track,
            "attrs": self.attrs,
        }


class Span:
    """A live span; use as a context manager.

    Attributes may be attached at open time (``tracer.span(name,
    depth=3)``) or while running (:meth:`set`); they become the
    record's ``attrs`` and the Chrome trace ``args``.
    """

    __slots__ = (
        "_tracer", "name", "span_id", "parent_id", "track",
        "start", "end", "attrs",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        track: str | None,
        attrs: dict,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.track = track
        self.start: float | None = None
        self.end: float | None = None
        self.attrs = attrs

    def set(self, key: str, value) -> None:
        """Attach one attribute to the span."""
        self.attrs[key] = value

    @property
    def duration(self) -> float:
        """Elapsed seconds (only after the span has closed)."""
        if self.start is None or self.end is None:
            raise ObsError(f"span {self.name!r} has not finished")
        return self.end - self.start

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._close(self)


class _NullSpan:
    """The shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def set(self, key: str, value) -> None:
        """Discard the attribute."""


_NULL_SPAN = _NullSpan()


class TraceListener:
    """No-op base class for tracer observers.

    Listeners ride along the recording path (the flight recorder and
    the allocation profiler are both listeners) and are invoked
    *outside* the tracer lock, after the record has been appended.
    Override only the callbacks you need; the defaults discard
    everything, so a listener pays exactly one truthiness check on an
    un-instrumented tracer (``if self._listeners:``).
    """

    def on_span_open(self, span: "Span") -> None:
        """Called after ``span`` has been opened (start stamped)."""

    def on_span_close(self, record: SpanRecord) -> None:
        """Called after a finished span's record has been appended."""

    def on_event(self, record: EventRecord) -> None:
        """Called after an instant event has been appended."""

    def on_metric(self, name: str, kind: str, value: float) -> None:
        """Called after a metric shorthand updated the registry.

        ``kind`` is ``"count"`` / ``"gauge"`` / ``"observe"`` and
        ``value`` the increment, new gauge value, or observation —
        the streaming-aggregation hook (each observation is visible,
        unlike the registry's aggregated state)."""


class Tracer:
    """Collects spans, instant events and metrics for one recording.

    Parameters
    ----------
    clock:
        Callable returning seconds; :func:`repro.obs.clock.now` by
        default.  Inject a :class:`~repro.obs.clock.ManualClock` for
        deterministic tests or simulated timelines.
    metrics:
        Registry to aggregate into; a private one is created by default.
    logger:
        Optional :class:`logging.Logger` (or ``True`` for the package
        logger, see :mod:`repro.obs.log`): every finished span and every
        instant event is mirrored as a DEBUG record with the structured
        payload under ``extra={"repro_event": ...}``.
    capacity:
        When given, retain only the most recent ``capacity`` finished
        spans and the most recent ``capacity`` events (a bounded deque
        each).  Long-lived service tracers use this so memory stays
        flat; the flight recorder keeps its own independent ring.
    trace_id:
        Identity of the recording (a random 16-hex-char string by
        default).  Child-process tracers adopt the parent's id via
        :meth:`use_context` so stitched recordings share one trace.
    span_id_start:
        First span id handed out.  Cross-process stitching preserves
        child span ids verbatim, so each child tracer must draw from a
        disjoint range (:func:`repro.obs.live.spawn_traced` passes
        ``(child_index + 1) << 32``).
    """

    enabled = True

    def __init__(
        self,
        *,
        clock: Callable[[], float] = now,
        metrics: MetricsRegistry | None = None,
        logger: logging.Logger | bool | None = None,
        capacity: int | None = None,
        trace_id: str | None = None,
        span_id_start: int = 1,
    ) -> None:
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if logger is True:
            from repro.obs.log import get_logger

            logger = get_logger("trace")
        self.logger: logging.Logger | None = logger or None
        if capacity is not None and capacity < 1:
            raise ObsError(f"tracer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        if capacity is None:
            self._spans: list[SpanRecord] | collections.deque = []
            self._events: list[EventRecord] | collections.deque = []
        else:
            self._spans = collections.deque(maxlen=capacity)
            self._events = collections.deque(maxlen=capacity)
        if span_id_start < 1:
            raise ObsError(
                f"span_id_start must be >= 1, got {span_id_start}"
            )
        self.trace_id = trace_id or os.urandom(8).hex()
        self._context: TraceContext | None = None
        self._ids = itertools.count(span_id_start)
        self._local = threading.local()
        # Thread id -> that thread's live span stack.  Stacks are only
        # mutated by their owning thread; the registry lets the sampling
        # profiler *peek* at the innermost open span of another thread
        # (a racy read of the list tail, which is safe in CPython — the
        # worst case is a one-sample-stale tag).
        self._thread_stacks: dict[int, list[Span]] = {}
        self._listeners: list[TraceListener] = []

    # -- span lifecycle -----------------------------------------------------

    def span(
        self,
        name: str,
        *,
        track: str | None = None,
        **attrs,
    ) -> Span:
        """Open a new span (enter the returned context manager); it
        parents under the innermost open span on this thread."""
        return Span(self, name, next(self._ids), None, track, attrs)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            ident = threading.get_ident()
            with self._lock:
                self._thread_stacks[ident] = stack
        return stack

    def _open(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            span.parent_id = stack[-1].span_id
        elif self._context is not None:
            # A root span under an installed cross-process context
            # parents under the remote span that spawned this work.
            span.parent_id = self._context.parent_span_id
        stack.append(span)
        span.start = self.clock()
        if self._listeners:
            for listener in self._listeners:
                listener.on_span_open(span)

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise ObsError(
                f"span {span.name!r} closed out of order (nesting broken)"
            )
        stack.pop()
        thread = threading.current_thread()
        record = SpanRecord(
            name=span.name,
            start=span.start,
            end=span.end,
            span_id=span.span_id,
            parent_id=span.parent_id,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            track=span.track,
            attrs=span.attrs,
        )
        with self._lock:
            self._spans.append(record)
        if self._listeners:
            for listener in self._listeners:
                listener.on_span_close(record)
        if self.logger is not None:
            self.logger.debug(
                "span %s %.6fs",
                record.name,
                record.duration,
                extra={"repro_event": record.as_dict()},
            )

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        track: str | None = None,
        **attrs,
    ) -> SpanRecord:
        """Record a synthetic span with externally supplied timestamps.

        Used for simulated-clock annotations: the caller computed
        ``start``/``end`` on some other timeline (e.g. the
        :class:`~repro.arch.machine.SimulatedMachine`'s) and wants it on
        its own track in the exported trace.
        """
        if end < start:
            raise ObsError(
                f"span {name!r} ends before it starts ({start} > {end})"
            )
        thread = threading.current_thread()
        record = SpanRecord(
            name=name,
            start=float(start),
            end=float(end),
            span_id=next(self._ids),
            parent_id=None,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            track=track,
            attrs=attrs,
        )
        with self._lock:
            self._spans.append(record)
        if self._listeners:
            for listener in self._listeners:
                listener.on_span_close(record)
        return record

    def adopt_record(
        self, record: SpanRecord | EventRecord
    ) -> SpanRecord | EventRecord:
        """Append a record from *another* tracer verbatim.

        The collector stitches child-process telemetry in through
        here: span/parent ids are preserved (children draw ids from a
        disjoint range, see ``span_id_start``), so cross-process
        parent links survive into the export.  Listeners are notified
        exactly as for a locally recorded span/event.
        """
        if isinstance(record, SpanRecord):
            if record.end < record.start:
                raise ObsError(
                    f"adopted span {record.name!r} ends before it starts"
                )
            with self._lock:
                self._spans.append(record)
            if self._listeners:
                for listener in self._listeners:
                    listener.on_span_close(record)
        elif isinstance(record, EventRecord):
            with self._lock:
                self._events.append(record)
            if self._listeners:
                for listener in self._listeners:
                    listener.on_event(record)
        else:
            raise ObsError(
                "adopt_record needs a SpanRecord or EventRecord, got "
                f"{type(record).__name__}"
            )
        return record

    # -- trace-context propagation -------------------------------------------

    def current_context(self, **baggage) -> TraceContext:
        """The calling thread's position as a :class:`TraceContext`.

        The parent span id is the innermost open span on this thread
        (falling back to the installed context's parent when the stack
        is empty, so a context survives re-export from a child).
        Keyword arguments extend the baggage; installed-context baggage
        is inherited.
        """
        stack = getattr(self._local, "stack", None)
        if stack:
            parent: int | None = stack[-1].span_id
        elif self._context is not None:
            parent = self._context.parent_span_id
        else:
            parent = None
        merged: dict = {}
        if self._context is not None:
            merged.update(self._context.baggage)
        merged.update(baggage)
        return TraceContext(
            trace_id=self.trace_id, parent_span_id=parent, baggage=merged
        )

    @contextlib.contextmanager
    def use_context(self, context: TraceContext) -> Iterator[TraceContext]:
        """Temporarily install ``context`` on this tracer.

        While installed, the tracer reports the context's trace id and
        new *root* spans (empty thread stack) parent under
        ``context.parent_span_id``.  This is how a child process
        stitches into the parent's trace: build a fresh tracer, install
        the shipped context, run the work.
        """
        if not isinstance(context, TraceContext):
            raise ObsError(
                f"use_context needs a TraceContext, got "
                f"{type(context).__name__}"
            )
        previous_context = self._context
        previous_trace_id = self.trace_id
        self._context = context
        self.trace_id = context.trace_id
        try:
            yield context
        finally:
            self._context = previous_context
            self.trace_id = previous_trace_id

    # -- instant events ------------------------------------------------------

    def instant(self, name: str, *, track: str | None = None, **attrs) -> None:
        """Record a point-in-time event (the decision-audit channel)."""
        thread = threading.current_thread()
        record = EventRecord(
            name=name,
            timestamp=self.clock(),
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            track=track,
            attrs=attrs,
        )
        with self._lock:
            self._events.append(record)
        if self._listeners:
            for listener in self._listeners:
                listener.on_event(record)
        if self.logger is not None:
            self.logger.debug(
                "event %s",
                record.name,
                extra={"repro_event": record.as_dict()},
            )

    # -- listeners and cross-thread inspection --------------------------------

    def add_listener(self, listener: TraceListener) -> TraceListener:
        """Attach a :class:`TraceListener`; returns it for chaining."""
        if not isinstance(listener, TraceListener):
            raise ObsError(
                f"add_listener needs a TraceListener, got {type(listener).__name__}"
            )
        with self._lock:
            if listener not in self._listeners:
                # replace, don't mutate: callbacks iterate without the lock
                self._listeners = self._listeners + [listener]
        return listener

    def remove_listener(self, listener: TraceListener) -> None:
        """Detach a previously added listener (no-op if absent)."""
        with self._lock:
            self._listeners = [l for l in self._listeners if l is not listener]

    def open_span_names(self, thread_id: int | None = None) -> tuple[str, ...]:
        """Names of the live (open) spans, outermost first.

        With ``thread_id`` given, the requested thread's stack;
        otherwise the calling thread's.  This is the sampler's tagging
        hook: it reads another thread's stack *racily* (list reads are
        atomic in CPython), so a sample taken during a push/pop may see
        the stack one frame stale — an acceptable error at sampling
        resolution.
        """
        if thread_id is None:
            thread_id = threading.get_ident()
        stack = self._thread_stacks.get(thread_id)
        if not stack:
            return ()
        # snapshot-copy first: the owning thread may pop concurrently
        return tuple(span.name for span in list(stack))

    # -- metric shorthands ---------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        """Increment the counter ``name``."""
        self.metrics.counter(name).add(value)
        if self._listeners:
            for listener in self._listeners:
                listener.on_metric(name, "count", value)

    def gauge_set(self, name: str, value: float) -> None:
        """Set the gauge ``name``."""
        self.metrics.gauge(name).set(value)
        if self._listeners:
            for listener in self._listeners:
                listener.on_metric(name, "gauge", value)

    def observe(self, name: str, value: float) -> None:
        """Observe ``value`` into the histogram ``name``."""
        self.metrics.histogram(name).observe(value)
        if self._listeners:
            for listener in self._listeners:
                listener.on_metric(name, "observe", value)

    # -- reading the recording ----------------------------------------------

    def spans(self, name: str | None = None) -> tuple[SpanRecord, ...]:
        """Finished spans, in completion order (optionally by name)."""
        with self._lock:
            records = tuple(self._spans)
        if name is None:
            return records
        return tuple(r for r in records if r.name == name)

    def events(self, name: str | None = None) -> tuple[EventRecord, ...]:
        """Instant events, in emission order (optionally by name)."""
        with self._lock:
            records = tuple(self._events)
        if name is None:
            return records
        return tuple(r for r in records if r.name == name)

    def span_seconds(self) -> dict[str, float]:
        """Total recorded seconds per span name."""
        out: dict[str, float] = {}
        for rec in self.spans():
            out[rec.name] = out.get(rec.name, 0.0) + rec.duration
        return out

    def summary_rows(self) -> list[dict]:
        """Per-span-name aggregate rows (for table rendering)."""
        counts: dict[str, int] = {}
        totals: dict[str, float] = {}
        for rec in self.spans():
            counts[rec.name] = counts.get(rec.name, 0) + 1
            totals[rec.name] = totals.get(rec.name, 0.0) + rec.duration
        return [
            {
                "span": name,
                "count": counts[name],
                "total_ms": 1e3 * totals[name],
                "mean_ms": 1e3 * totals[name] / counts[name],
            }
            for name in sorted(totals, key=totals.get, reverse=True)
        ]

    def clear(self) -> None:
        """Drop all recorded spans and events (metrics are untouched;
        use ``tracer.metrics.reset()`` for those)."""
        with self._lock:
            self._spans.clear()
            self._events.clear()


class NullTracer(Tracer):
    """The disabled tracer: records nothing, allocates nothing per call.

    ``span()`` returns a shared no-op span, ``instant()`` and the metric
    shorthands return immediately.  This is the process-global default
    (:data:`NULL_TRACER`), so un-configured production runs pay only a
    handful of no-op calls per BFS level.
    """

    enabled = False

    def span(  # type: ignore[override]
        self,
        name: str,
        *,
        track: str | None = None,
        **attrs,
    ) -> _NullSpan:
        """Return the shared no-op span."""
        return _NULL_SPAN

    def add_span(self, name, start, end, *, track=None, **attrs):  # type: ignore[override]
        """Discard the synthetic span."""
        return None

    def adopt_record(self, record):  # type: ignore[override]
        """Discard the adopted record."""
        return record

    def instant(self, name: str, *, track: str | None = None, **attrs) -> None:
        """Discard the event."""

    def count(self, name: str, value: float = 1.0) -> None:
        """Discard the increment."""

    def gauge_set(self, name: str, value: float) -> None:
        """Discard the value."""

    def observe(self, name: str, value: float) -> None:
        """Discard the observation."""


#: The process-wide default: tracing off.
NULL_TRACER = NullTracer()

_global_lock = threading.Lock()
_global_tracer: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The current process-global tracer (default: :data:`NULL_TRACER`)."""
    return _global_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-global tracer; returns the
    previous one."""
    global _global_tracer
    if not isinstance(tracer, Tracer):
        raise ObsError(f"set_tracer needs a Tracer, got {type(tracer).__name__}")
    with _global_lock:
        previous = _global_tracer
        _global_tracer = tracer
    return previous


@contextlib.contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Temporarily install ``tracer`` as the process-global tracer."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
