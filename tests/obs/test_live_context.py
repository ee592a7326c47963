"""Trace-context propagation: ``TraceContext`` round-trips, context
installation, explicit span parents and record adoption — the in-process
half of cross-process stitching."""

import pytest

from repro.errors import ObsError
from repro.obs.clock import ManualClock
from repro.obs.tracer import (
    EventRecord,
    SpanRecord,
    TraceContext,
    TraceListener,
    Tracer,
)


class TestTraceContext:
    def test_round_trip(self):
        ctx = TraceContext(
            trace_id="abc123", parent_span_id=7, baggage={"root": 3}
        )
        again = TraceContext.from_dict(ctx.as_dict())
        assert again == ctx

    def test_round_trip_without_parent(self):
        ctx = TraceContext(trace_id="abc123")
        again = TraceContext.from_dict(ctx.as_dict())
        assert again.parent_span_id is None
        assert again.baggage == {}

    def test_from_dict_coerces_types(self):
        ctx = TraceContext.from_dict(
            {"trace_id": "t", "parent_span_id": "12"}
        )
        assert ctx.parent_span_id == 12

    def test_malformed_payload_raises(self):
        with pytest.raises(ObsError):
            TraceContext.from_dict({"parent_span_id": 1})
        with pytest.raises(ObsError):
            TraceContext.from_dict("not a dict")


class TestCurrentContext:
    def test_empty_tracer_has_no_parent(self):
        tracer = Tracer(clock=ManualClock(), trace_id="tid")
        ctx = tracer.current_context()
        assert ctx.trace_id == "tid"
        assert ctx.parent_span_id is None

    def test_innermost_open_span_is_the_parent(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("outer") as outer:
            assert tracer.current_context().parent_span_id == outer.span_id
            with tracer.span("inner") as inner:
                assert (
                    tracer.current_context().parent_span_id == inner.span_id
                )
            assert tracer.current_context().parent_span_id == outer.span_id

    def test_baggage_kwargs_attach(self):
        tracer = Tracer(clock=ManualClock())
        ctx = tracer.current_context(workload="rmat-s8", child=1)
        assert ctx.baggage == {"workload": "rmat-s8", "child": 1}

    def test_installed_context_survives_reexport(self):
        # a child with an empty stack re-exports the *installed*
        # parent id, so grandchildren still stitch to the right span
        tracer = Tracer(clock=ManualClock())
        inherited = TraceContext(
            trace_id="parent-trace", parent_span_id=42, baggage={"a": 1}
        )
        with tracer.use_context(inherited):
            ctx = tracer.current_context(b=2)
            assert ctx.trace_id == "parent-trace"
            assert ctx.parent_span_id == 42
            assert ctx.baggage == {"a": 1, "b": 2}


class TestUseContext:
    def test_adopts_trace_id_and_restores(self):
        tracer = Tracer(clock=ManualClock(), trace_id="own")
        ctx = TraceContext(trace_id="inherited", parent_span_id=9)
        with tracer.use_context(ctx):
            assert tracer.trace_id == "inherited"
        assert tracer.trace_id == "own"

    def test_root_spans_parent_under_the_context(self):
        tracer = Tracer(clock=ManualClock())
        ctx = TraceContext(trace_id="t", parent_span_id=99)
        with tracer.use_context(ctx):
            with tracer.span("root"):
                pass
            with tracer.span("outer"):
                with tracer.span("nested"):
                    pass
        by_name = {r.name: r for r in tracer.spans()}
        assert by_name["root"].parent_id == 99
        assert by_name["outer"].parent_id == 99
        # nested spans still parent on the local stack
        assert by_name["nested"].parent_id == by_name["outer"].span_id

    def test_needs_a_trace_context(self):
        tracer = Tracer(clock=ManualClock())
        with pytest.raises(ObsError):
            with tracer.use_context({"trace_id": "t"}):
                pass


class TestSpanIdStart:
    def test_ids_start_in_the_requested_range(self):
        tracer = Tracer(clock=ManualClock(), span_id_start=1 << 32)
        with tracer.span("a"):
            pass
        assert tracer.spans("a")[0].span_id >= 1 << 32

    def test_invalid_start_rejected(self):
        with pytest.raises(ObsError):
            Tracer(span_id_start=0)


class _Recording(TraceListener):
    def __init__(self):
        self.closed = []
        self.events = []

    def on_span_close(self, record):
        self.closed.append(record)

    def on_event(self, record):
        self.events.append(record)


class TestAdoptRecord:
    def _span_record(self, **over):
        base = dict(
            name="child.work",
            start=1.0,
            end=2.0,
            span_id=(1 << 32) + 1,
            parent_id=5,
            thread_id=1,
            thread_name="MainThread",
            track="child-0:MainThread",
            attrs={"scale": 6},
        )
        base.update(over)
        return SpanRecord(**base)

    def test_span_ids_preserved_verbatim(self):
        tracer = Tracer(clock=ManualClock())
        record = self._span_record()
        tracer.adopt_record(record)
        assert tracer.spans("child.work") == (record,)
        assert tracer.spans()[0].span_id == (1 << 32) + 1
        assert tracer.spans()[0].parent_id == 5

    def test_listeners_notified_like_local_records(self):
        tracer = Tracer(clock=ManualClock())
        listener = tracer.add_listener(_Recording())
        tracer.adopt_record(self._span_record())
        event = EventRecord(
            name="child.note",
            timestamp=1.5,
            thread_id=1,
            thread_name="MainThread",
            track="child-0:MainThread",
            attrs={},
        )
        tracer.adopt_record(event)
        assert [r.name for r in listener.closed] == ["child.work"]
        assert [e.name for e in listener.events] == ["child.note"]

    def test_span_ending_before_start_rejected(self):
        tracer = Tracer(clock=ManualClock())
        with pytest.raises(ObsError):
            tracer.adopt_record(self._span_record(start=3.0, end=2.0))

    def test_non_record_rejected(self):
        tracer = Tracer(clock=ManualClock())
        with pytest.raises(ObsError):
            tracer.adopt_record({"name": "x"})


class TestMetricListenerCallbacks:
    def test_count_gauge_observe_notify(self):
        seen = []

        class L(TraceListener):
            def on_metric(self, name, kind, value):
                seen.append((name, kind, value))

        tracer = Tracer(clock=ManualClock())
        tracer.add_listener(L())
        tracer.count("bfs.levels", 2)
        tracer.gauge_set("frontier.claim_ratio", 0.5)
        tracer.observe("teps", 1e6)
        assert seen == [
            ("bfs.levels", "count", 2.0),
            ("frontier.claim_ratio", "gauge", 0.5),
            ("teps", "observe", 1e6),
        ]
