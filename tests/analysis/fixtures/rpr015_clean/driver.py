"""Clean twin of rpr015_bad/: the raising helper still lives in
``steps.py``, but the shutdown sits in a ``finally``."""

from concurrent.futures import ThreadPoolExecutor

import steps

__all__ = ["safe_sweep"]


def safe_sweep(graph, sources, threads):
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        return steps.drive(pool, graph, sources)
    finally:
        pool.shutdown()
