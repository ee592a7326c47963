"""Seeded RPR015 bug across a module boundary: the pool leaks when a
helper in *another module* raises.

``leaky_sweep`` does shut its pool down — but ``steps.drive`` runs
first, and ``drive`` raises on a negative source.  Module-local
propagation of this file, even run to fixpoint, cannot see into
``steps.py``; only the whole-program fixpoint marks the call as
raising.
"""

from concurrent.futures import ThreadPoolExecutor

import steps

__all__ = ["leaky_sweep"]


def leaky_sweep(graph, sources, threads):
    pool = ThreadPoolExecutor(max_workers=threads)
    degrees = steps.drive(pool, graph, sources)
    pool.shutdown()
    return degrees
