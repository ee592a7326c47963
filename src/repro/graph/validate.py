"""Graph 500-style validation of BFS output.

The Graph 500 specification validates a BFS run with five checks rather
than comparing against a reference traversal (which would be as costly
as the run itself).  :func:`validate_bfs` applies them, vectorized:

1. the parent map and level map agree on which vertices were reached;
2. the source is its own parent at level 0;
3. every reached non-source vertex's parent is reached, exactly one
   level closer to the source;
4. every tree edge ``(parent[v], v)`` exists in the graph;
5. every graph edge spans at most one level (no edge connects levels
   ``k`` and ``k + 2`` with both endpoints reached), and no edge joins
   a reached vertex to an unreached one.

Check 5 is what makes the level map a true *breadth-first* distance
labelling and not just any spanning tree.

Checks 4 and 5 scan the stored entries in CSR order; no edge list is
built.  Entry ``i`` is ``(row[i], targets[i])`` with
``row = repeat(arange(n), degrees)``, so the source side of an entry is
a sequential ``np.repeat`` and only the target side is a gather:

* check 4 -- entry ``(u, w)`` is ``w``'s tree edge exactly when
  ``parent[w] == u``, so ``parent[targets] == row`` marks every vertex
  whose tree edge is stored.  This holds on directed graphs too.
* check 5 -- unreached vertices take level -2, at least two away from
  every reached level, so one count of
  ``|lv[targets] - repeat(lv, degrees)| > 1`` covers both conditions.
  It is split into its two messages only when it is non-zero.  The
  reached/unreached condition is reported for symmetric graphs only.

A call gathers each map through ``targets`` once: a fixed number of
|E|-length passes, plus O(|V|) work.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.graph.csr import CSRGraph

__all__ = ["validate_bfs", "check_bfs"]


def check_bfs(
    graph: CSRGraph,
    source: int,
    parent: np.ndarray,
    level: np.ndarray,
) -> list[str]:
    """Run all validation checks; return a list of failure descriptions.

    An empty list means the output is a valid BFS of ``graph`` from
    ``source``.  ``parent``/``level`` use ``-1`` for unreached vertices.
    """
    failures: list[str] = []
    n = graph.num_vertices
    parent = np.asarray(parent)
    level = np.asarray(level)
    if parent.shape != (n,) or level.shape != (n,):
        return [
            f"map shape mismatch: parent {parent.shape}, level {level.shape},"
            f" expected ({n},)"
        ]
    if not 0 <= source < n:
        return [f"source {source} out of range [0, {n})"]

    reached = level >= 0
    if not np.array_equal(reached, parent >= 0):
        failures.append("parent map and level map disagree on reached set")
    if parent[source] != source:
        failures.append(
            f"source parent must be itself, got {int(parent[source])}"
        )
    if level[source] != 0:
        failures.append(f"source level must be 0, got {int(level[source])}")

    tree = reached.copy()
    tree[source] = False
    kids = np.nonzero(tree)[0]
    pk = parent[kids]
    bad = ~reached[np.clip(pk, 0, n - 1)] | (pk < 0) | (pk >= n)
    if bad.any():
        failures.append(
            f"{int(bad.sum())} vertices have an unreached/invalid parent"
        )
    ok = kids[~bad]
    drops = level[ok] != level[parent[ok]] + 1
    if drops.any():
        failures.append(
            f"{int(drops.sum())} tree edges do not drop exactly one level"
        )

    # NumPy converts an int32 index array on every fancy index, so the
    # scans below share one intp copy of ``targets``.
    degrees = graph.degrees
    targets = graph.targets.astype(np.intp)

    # Check 4.  Narrowing wraps only out-of-range parents; their
    # vertices are not in ``ok``, so those marks are never read.
    narrow_parent = parent.astype(np.int32)  # repro: noqa[RPR010]
    row = np.repeat(np.arange(n, dtype=np.int32), degrees)
    has_tree_edge = np.zeros(n, dtype=bool)
    has_tree_edge[targets[narrow_parent[targets] == row]] = True
    del row
    missing = int(np.count_nonzero(~has_tree_edge[ok]))
    if missing:
        failures.append(f"{missing} tree edges are not graph edges")

    # Check 5.  The level map is narrowed to int32 only when no
    # difference of two of its values can overflow.
    lv = np.where(reached, level, -2)
    lv = lv.astype(np.int32 if lv.max(initial=0) < 1 << 30 else np.int64)
    gap = lv[targets]
    gap -= np.repeat(lv, degrees)
    far = int(np.count_nonzero(np.abs(gap, out=gap) > 1))
    if far:
        half = int(
            np.count_nonzero(reached[targets] != np.repeat(reached, degrees))
        )
        if far > half:
            failures.append(
                f"{far - half} graph edges span more than one level"
            )
        if half and graph.symmetric:
            failures.append(
                f"{half} edges join reached to unreached vertices"
            )
    return failures


def validate_bfs(
    graph: CSRGraph,
    source: int,
    parent: np.ndarray,
    level: np.ndarray,
) -> None:
    """Raise :class:`~repro.errors.ValidationError` unless the BFS output
    passes every Graph 500 check."""
    failures = check_bfs(graph, source, parent, level)
    if failures:
        raise ValidationError(
            "BFS validation failed: " + "; ".join(failures)
        )
