"""Helper module for the rpr015_bad fixture: ``drive`` can raise."""

__all__ = ["drive"]


def _degree(graph, v):
    return int(graph.degrees[v])


def drive(pool, graph, sources):
    if min(sources) < 0:
        raise ValueError("negative source vertex")
    return [pool.submit(_degree, graph, v).result() for v in sources]
