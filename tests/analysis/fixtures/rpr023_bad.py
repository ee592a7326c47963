"""Seeded RPR023 bug: the collector is polled after it detached, *two
calls away*.

``collect`` leaves its ``with`` block — the collector detaches from
the tracer — and then calls ``drain_late``, which calls ``_poll``,
which polls the detached collector.  Only the interprocedural protocol
summaries see the poll: the one-level view
(``TypestateAnalysis(..., interprocedural=False)``) provably misses
it, which the blind-spot regression test asserts.
"""

from repro.obs.live import Collector

__all__ = ["collect"]


def _poll(collector):
    return collector.poll()


def drain_late(collector):
    return _poll(collector)


def collect(tracer):
    with Collector(tracer) as collector:
        collector.poll()
    return drain_late(collector)  # polls two calls down, detached
