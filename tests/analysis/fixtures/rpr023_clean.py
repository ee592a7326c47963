"""RPR023 control: the (transitive) poll runs while attached."""

from repro.obs.live import Collector

__all__ = ["collect"]


def _poll(collector):
    return collector.poll()


def drain_late(collector):
    return _poll(collector)


def collect(tracer):
    with Collector(tracer) as collector:
        polled = drain_late(collector)
    return polled
