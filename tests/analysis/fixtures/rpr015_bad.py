"""Seeded RPR015 bug: the pool leaks when a helper raises two hops down.

``leaky_traverse`` does call ``pool.shutdown()`` — but the ``_drive``
call before it can raise: ``_drive`` calls ``_mid`` calls ``_step``,
which raises ``ValueError``.  Only the *fixpoint* effect engine marks
``_drive`` as raising; under one-level propagation only ``_mid``
inherits the raise and the leak is invisible at the acquisition site.
"""

from concurrent.futures import ThreadPoolExecutor

__all__ = ["leaky_traverse"]


def _degree(graph, v):
    return int(graph.degrees[v])


def _step(graph, pool, v):
    if v < 0:
        raise ValueError("negative source vertex")
    return pool.submit(_degree, graph, v).result()


def _mid(graph, pool, v):
    return _step(graph, pool, v)


def _drive(graph, pool, source):
    # no raise in sight: the ValueError lives two more hops down
    return _mid(graph, pool, source)


def leaky_traverse(graph, source, threads):
    pool = ThreadPoolExecutor(max_workers=threads)
    result = _drive(graph, pool, source)
    pool.shutdown()
    return result
