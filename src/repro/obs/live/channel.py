"""The cross-process telemetry channel: frames, exporter, spawn helper.

A child process cannot append to the parent's tracer, so it *exports*:
a :class:`ChannelExporter` rides the child tracer as a
:class:`~repro.obs.tracer.TraceListener` and serializes everything into
schema-versioned JSON **frames** (:data:`FRAME_SCHEMA`), sent over any
sink with a ``send_bytes`` method — a ``multiprocessing`` pipe
connection live, or a length-prefixed :class:`CaptureFile` on disk.

Frame kinds (:data:`FRAME_KINDS`):

``hello``
    Opens the stream: schema tag, source label, pid, trace id.
``span_open`` / ``span`` / ``event``
    The tracer callbacks, verbatim.  ``span`` carries the full
    :class:`~repro.obs.tracer.SpanRecord` payload so the collector can
    adopt it into the parent recording with ids intact.
``metrics``
    A cumulative :meth:`~repro.obs.metrics.MetricsRegistry.flat` view,
    flushed whenever a local *root* span closes — live visibility,
    intentionally lossy.
``metrics_final``
    The exact :meth:`~repro.obs.metrics.MetricsRegistry.to_payload`
    dump, sent once at close — what actually merges into the parent
    registry (counters add, histogram observations concatenate).
``bye``
    Closes the stream with totals, the explicit half of the close
    handshake (EOF alone also ends a channel, just less informatively).

:func:`spawn_traced` ties it together: it captures the parent tracer's
:class:`~repro.obs.tracer.TraceContext`, starts a ``multiprocessing``
child that installs the context on a fresh tracer (span ids drawn from
the disjoint ``(child_index + 1) << 32`` range), attaches an exporter,
and runs the target — so the child's spans stitch under the parent's
current span in one Perfetto-loadable trace.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.errors import LiveError
from repro.obs.export import _json_safe
from repro.obs.tracer import (
    Span,
    SpanRecord,
    EventRecord,
    TraceContext,
    TraceListener,
    Tracer,
    get_tracer,
    use_tracer,
)

__all__ = [
    "FRAME_SCHEMA",
    "FRAME_KINDS",
    "encode_frame",
    "decode_frame",
    "CaptureFile",
    "read_capture",
    "ChannelExporter",
    "TracedChild",
    "spawn_traced",
]

#: Schema tag every ``hello`` frame carries; bump on breaking changes.
FRAME_SCHEMA = "repro.obs.live/1"

#: Every frame kind the protocol defines, in lifecycle order.
FRAME_KINDS = (
    "hello",
    "span_open",
    "span",
    "event",
    "metrics",
    "metrics_final",
    "bye",
)

_LENGTH = struct.Struct(">I")

#: Refuse absurd frame lengths when reading captures — a corrupt length
#: prefix must not allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def encode_frame(frame: dict) -> bytes:
    """Serialize one frame dict (validates the ``kind``)."""
    if not isinstance(frame, dict) or frame.get("kind") not in FRAME_KINDS:
        raise LiveError(
            f"frame must be a dict with kind in {FRAME_KINDS}, "
            f"got {frame!r}"
        )
    return json.dumps(_json_safe(frame), separators=(",", ":")).encode("utf-8")


def decode_frame(data: bytes) -> dict:
    """Parse one frame back (raises :class:`~repro.errors.LiveError`)."""
    try:
        frame = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LiveError(f"undecodable frame: {exc}") from exc
    if not isinstance(frame, dict) or frame.get("kind") not in FRAME_KINDS:
        raise LiveError(f"unknown frame kind: {frame!r}")
    return frame


class CaptureFile:
    """A ``send_bytes`` sink writing length-prefixed frames to disk.

    The on-disk shape is ``>I`` big-endian length + UTF-8 JSON payload,
    repeated; :func:`read_capture` reads it back.  Usable anywhere a
    pipe connection is (the exporter only calls ``send_bytes``), which
    is how ``repro-bfs live record`` persists a session for later
    ``live check`` replay.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "wb")
        self.frames = 0

    def send_bytes(self, data: bytes) -> None:
        """Append one frame."""
        if self._fh is None:
            raise LiveError(f"capture {self.path} is closed")
        self._fh.write(_LENGTH.pack(len(data)))
        self._fh.write(data)
        self.frames += 1

    def close(self) -> None:
        """Flush and close (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CaptureFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_capture(
    path: str | Path, *, strict: bool = False, conformance: str | None = None
) -> Iterator[dict]:
    """Yield frames from a :class:`CaptureFile` recording.

    Tolerant by default — a truncated trailing frame (the writer died
    mid-write) ends iteration silently and an undecodable frame is
    skipped; ``strict=True`` raises :class:`~repro.errors.LiveError`
    for either, which is what the CI schema gate wants.

    ``conformance="strict"`` additionally replays every frame through
    the live-channel protocol machine (one per frame source): an
    out-of-order frame — or a stream that ends without completing the
    hello→…→metrics_final→bye handshake — raises
    :class:`~repro.errors.ProtocolError`.  This is the dynamic twin of
    lint rule RPR022.
    """
    checker = None
    if conformance is not None:
        if conformance != "strict":
            raise LiveError(
                f"unknown conformance mode {conformance!r} "
                "(expected 'strict' or None)"
            )
        from repro.obs.live.protocol import FrameConformance

        checker = FrameConformance(strict=True)
    with open(Path(path), "rb") as fh:
        while True:
            prefix = fh.read(_LENGTH.size)
            if not prefix:
                break
            if len(prefix) < _LENGTH.size:
                if strict:
                    raise LiveError(f"{path}: truncated length prefix")
                break
            (length,) = _LENGTH.unpack(prefix)
            if length > MAX_FRAME_BYTES:
                raise LiveError(
                    f"{path}: frame length {length} exceeds "
                    f"{MAX_FRAME_BYTES} (corrupt capture?)"
                )
            data = fh.read(length)
            if len(data) < length:
                if strict:
                    raise LiveError(f"{path}: truncated frame payload")
                break
            try:
                frame = decode_frame(data)
            except LiveError:
                if strict:
                    raise
                continue
            if checker is not None:
                checker.feed(frame)
            yield frame
    if checker is not None:
        checker.finish()


class ChannelExporter(TraceListener):
    """Serializes one tracer's telemetry into channel frames.

    Attach with ``tracer.add_listener(exporter)`` after calling
    :meth:`hello`.  Sends are serialized under a lock (spans may close
    on any thread of the traced process) and a broken sink (the
    reader went away) flips the exporter into a counting no-op instead
    of poisoning the traced workload.
    """

    def __init__(
        self,
        sink,
        tracer: Tracer,
        *,
        source: str,
        root_parent: int | None = None,
    ) -> None:
        if not hasattr(sink, "send_bytes"):
            raise LiveError(
                f"exporter sink needs a send_bytes method, "
                f"got {type(sink).__name__}"
            )
        self.sink = sink
        self.tracer = tracer
        self.source = str(source)
        #: Parent id local *root* spans carry — ``None`` for a fresh
        #: trace, the installed context's parent span id in a child.
        #: A span closing with this parent triggers a metrics flush.
        self.root_parent = root_parent
        self.sent = 0
        self.dropped = 0
        self._lock = threading.Lock()
        self._broken = False
        self._closed = False

    def _send(self, frame: dict) -> None:
        frame["source"] = self.source
        try:
            data = encode_frame(frame)
        except LiveError:
            self.dropped += 1
            return
        with self._lock:
            if self._broken or self._closed:
                self.dropped += 1
                return
            try:
                self.sink.send_bytes(data)
                self.sent += 1
            except (OSError, ValueError, BrokenPipeError):
                self._broken = True
                self.dropped += 1

    def hello(self) -> None:
        """Open the stream (send before attaching as a listener)."""
        self._send(
            {
                "kind": "hello",
                "schema": FRAME_SCHEMA,
                "trace_id": self.tracer.trace_id,
                "pid": os.getpid(),
            }
        )

    # -- listener callbacks --------------------------------------------------

    def on_span_open(self, span: Span) -> None:
        """Announce a live span (the dashboard's active-span rows)."""
        self._send(
            {
                "kind": "span_open",
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "thread_name": threading.current_thread().name,
                "start": span.start,
            }
        )

    def on_span_close(self, record: SpanRecord) -> None:
        """Ship the finished span; flush metrics at local roots."""
        self._send({"kind": "span", "record": record.as_dict()})
        # A root span closing means one unit of work finished — the
        # natural moment for a cumulative metrics flush.  With a
        # context installed the local roots carry its parent id.
        if record.parent_id == self.root_parent:
            self.flush()

    def on_event(self, record: EventRecord) -> None:
        """Ship the instant event."""
        self._send({"kind": "event", "record": record.as_dict()})

    # -- flush / close handshake ---------------------------------------------

    def flush(self) -> None:
        """Send a cumulative ``metrics`` frame now."""
        self._send({"kind": "metrics", "flat": self.tracer.metrics.flat()})

    def close(self) -> None:
        """Send ``metrics_final`` + ``bye`` and stop (idempotent)."""
        if self._closed:
            return
        self._send(
            {
                "kind": "metrics_final",
                "payload": self.tracer.metrics.to_payload(),
            }
        )
        self._send(
            {
                "kind": "bye",
                "spans": len(self.tracer.spans()),
                "events": len(self.tracer.events()),
                "frames": self.sent + 1,
                "dropped": self.dropped,
            }
        )
        self._closed = True
        self.tracer.remove_listener(self)


@dataclass
class TracedChild:
    """Handle for one :func:`spawn_traced` child."""

    process: multiprocessing.Process
    connection: "multiprocessing.connection.Connection"
    source: str

    def join(self, timeout: float | None = None) -> int | None:
        """Join the process; returns its exit code (``None`` if alive)."""
        self.process.join(timeout)
        return self.process.exitcode


def _traced_child_main(
    target: Callable,
    args: tuple,
    kwargs: dict,
    context_payload: dict,
    child_index: int,
    source: str,
    conn,
) -> None:
    """Child-process entry: fresh tracer, inherited context, exporter."""
    context = TraceContext.from_dict(context_payload)
    tracer = Tracer(span_id_start=(child_index + 1) << 32)
    exporter = ChannelExporter(
        conn, tracer, source=source, root_parent=context.parent_span_id
    )
    try:
        with tracer.use_context(context), use_tracer(tracer):
            exporter.hello()
            try:
                tracer.add_listener(exporter)
                target(*args, **kwargs)
            finally:
                # close() still sends the metrics_final/bye handshake
                # even when add_listener or the target raised, so the
                # parent-side reader always sees a conformant stream.
                exporter.close()
    finally:
        conn.close()


def spawn_traced(
    target: Callable,
    args: tuple = (),
    kwargs: dict | None = None,
    *,
    tracer: Tracer | None = None,
    child_index: int = 0,
    name: str | None = None,
    baggage: dict | None = None,
    collector=None,
) -> TracedChild:
    """Start ``target(*args, **kwargs)`` in a traced child process.

    The child runs under the calling tracer's current
    :class:`~repro.obs.tracer.TraceContext` (plus ``baggage``), with a
    fresh process-global tracer whose span ids come from the disjoint
    range ``(child_index + 1) << 32`` — give each concurrent child its
    own index.  ``target`` must be picklable (a module-level function).

    Returns a :class:`TracedChild`; read its frames from
    ``handle.connection``, or pass ``collector=`` to register the
    channel with a :class:`~repro.obs.live.Collector` directly.
    """
    if child_index < 0:
        raise LiveError(f"child_index must be >= 0, got {child_index}")
    tr = tracer if tracer is not None else get_tracer()
    context = tr.current_context(**(baggage or {}))
    source = name or f"child-{child_index}"
    recv_conn, send_conn = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(
        target=_traced_child_main,
        args=(
            target,
            tuple(args),
            dict(kwargs or {}),
            context.as_dict(),
            child_index,
            source,
            send_conn,
        ),
        name=source,
    )
    process.start()
    # The parent's copy of the write end must close so the reader sees
    # EOF when the child exits.
    send_conn.close()
    handle = TracedChild(
        process=process, connection=recv_conn, source=source
    )
    if collector is not None:
        collector.watch(handle)
    return handle
