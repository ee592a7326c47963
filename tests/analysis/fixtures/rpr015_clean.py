"""Clean twin of rpr015_bad: shutdown() moved into a ``finally``.

The same two-hop raising call chain is present, but every statement
that can raise sits inside a try-body whose ``finally`` shuts the pool
down, so close-on-all-paths holds.
"""

from concurrent.futures import ThreadPoolExecutor

__all__ = ["safe_traverse"]


def _degree(graph, v):
    return int(graph.degrees[v])


def _step(graph, pool, v):
    if v < 0:
        raise ValueError("negative source vertex")
    return pool.submit(_degree, graph, v).result()


def _mid(graph, pool, v):
    return _step(graph, pool, v)


def _drive(graph, pool, source):
    return _mid(graph, pool, source)


def safe_traverse(graph, source, threads):
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        return _drive(graph, pool, source)
    finally:
        pool.shutdown()
