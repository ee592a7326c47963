"""Instrumented BFS producing a :class:`~repro.bfs.trace.LevelProfile`.

One direction-optimizing traversal, then full counters for **both**
directions at every level, derived from its final level map:

* the top-down work at level ℓ is ``|E|cq`` (degree mass of the
  frontier) — recorded whether or not top-down ran;
* the bottom-up work is the early-terminating edges-checked count,
  which depends only on which vertices are unvisited and which are in
  the frontier — both functions of the level sets.  A bottom-up sweep
  at level ℓ stops each unvisited row at its first entry whose target
  sits on level ℓ, so one pass over the adjacency entries finds every
  such stop for every level at once (:func:`_records_from_levels`).

The traversal only has to produce the level and parent maps, so on a
symmetric graph each level runs whichever direction the default
switching point (:data:`~repro.bfs.hybrid.DEFAULT_POLICY`) picks, as
:func:`~repro.bfs.hybrid.bfs_hybrid` would.  The direction cannot change
either map.  Take a vertex ``v`` claimed at level ℓ + 1:

* top-down's first-writer claim over the ascending frontier gives it
  the smallest-id level-ℓ vertex whose row holds ``v``;
* bottom-up stops ``v``'s own row at its first level-ℓ entry, which is
  the smallest such id because rows are sorted (the
  :class:`~repro.graph.csr.CSRGraph` contract);
* on a symmetric graph ``u``'s row holds ``v`` exactly when ``v``'s row
  holds ``u``, so both pick the same parent.

A directed graph runs top-down throughout: a bottom-up level looks for
a vertex's parent in its own row, which holds its out-neighbours, not
the in-neighbours that top-down would claim it from.

Everything downstream (cost models, switching-point search, the
heterogeneous planner) consumes profiles instead of re-running BFS.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.bottomup import bottom_up_step
from repro.bfs.hybrid import DEFAULT_POLICY, LevelState
from repro.bfs.result import BFSResult, Direction
from repro.bfs.topdown import top_down_step
from repro.bfs.trace import LevelProfile, LevelRecord
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BFSError
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer, get_tracer

__all__ = ["profile_bfs", "pick_sources"]


def profile_bfs(
    graph: CSRGraph,
    source: int,
    *,
    max_levels: int | None = None,
    workspace: BFSWorkspace | None = None,
    tracer: Tracer | None = None,
) -> tuple[LevelProfile, BFSResult]:
    """Run an instrumented traversal from ``source``.

    Returns the level profile and the BFS result.  The result reads as
    a pure top-down run's, whichever directions the levels ran: its
    parent and level maps are the top-down ones (see the module notes;
    this relies on sorted adjacency rows), ``directions`` is top-down at
    every level and ``edges_examined`` is each level's ``|E|cq``.
    ``max_levels`` guards pathological graphs (e.g. long paths) when only
    the head of the profile is needed.

    ``tracer`` overrides the process-global tracer: levels become
    ``bfs.level`` spans under a ``bfs.profile`` root, carrying the
    direction that ran, the frontier size and the claimed count; the
    counter derivation after the last level is a
    ``bfs.profile.counters`` span.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise BFSError(f"source {source} out of range [0, {n})")
    tr = tracer if tracer is not None else get_tracer()
    nedges = max(graph.num_edges, 1)
    degrees = graph.degrees

    ws = workspace if workspace is not None else BFSWorkspace(n)
    parent, level = ws.begin(source)

    frontier = np.array([source], dtype=np.int64)
    unvisited_count = n - 1
    depth = 0
    with tr.span("bfs.profile", source=source, num_vertices=n) as root:
        while frontier.size and (max_levels is None or depth < max_levels):
            chosen = Direction.TOP_DOWN
            if graph.symmetric:
                chosen = DEFAULT_POLICY.direction(
                    LevelState(
                        depth=depth,
                        frontier_vertices=int(frontier.size),
                        frontier_edges=int(degrees[frontier].sum()),
                        num_vertices=n,
                        num_edges=nedges,
                        unvisited_vertices=unvisited_count,
                    )
                )
            with tr.span("bfs.level", depth=depth, direction=chosen) as sp:
                if chosen == Direction.TOP_DOWN:
                    next_frontier, _ = top_down_step(
                        graph, frontier, parent, level, depth, ws
                    )
                else:
                    next_frontier, _ = bottom_up_step(
                        graph,
                        ws.load_frontier(frontier),
                        parent,
                        level,
                        depth,
                        unvisited=ws.unvisited_ids(graph, parent),
                        workspace=ws,
                    )
                sp.set("frontier_vertices", int(frontier.size))
                sp.set("claimed", int(next_frontier.size))
            ws.retire_claimed(parent)
            unvisited_count -= int(next_frontier.size)
            frontier = next_frontier
            depth += 1
        with tr.span("bfs.profile.counters", levels=depth):
            records = _records_from_levels(graph, level, depth)
        root.set("levels", depth)
    tr.count("bfs.levels", depth)

    profile = LevelProfile(
        source=source,
        num_vertices=n,
        num_edges=graph.num_edges,
        records=records,
    )
    result = BFSResult(
        source=source,
        parent=parent,
        level=level,
        directions=[Direction.TOP_DOWN] * depth,
        edges_examined=[r.frontier_edges for r in records],
    )
    return profile, result


def _records_from_levels(
    graph: CSRGraph, level: np.ndarray, depth: int
) -> tuple[LevelRecord, ...]:
    """The first ``depth`` level records of a traversal, from its final
    level map (``-1`` for unreached).

    Level ℓ's frontier is the vertices on level ℓ and its unvisited set
    is every vertex on a later level or unreached.  A bottom-up sweep at
    ℓ stops row ``v`` at its first entry ``(v, j, t)`` with
    ``level[t] == ℓ``, inspecting ``j + 1`` entries, and scans every
    other unvisited row in full.  So the stops are the first entry per
    ``(v, level[t])`` among the entries with ``level[t] < level[v]`` and
    ``level[t] < depth``; on a directed graph one row can stop at
    several levels.
    """
    if depth == 0:
        return ()
    degrees = graph.degrees
    # Unreached vertices count as one level past the deepest stamped one
    # (``depth``); the dtype is the narrowest that holds that level.
    stamped = np.where(level >= 0, level, depth + 1).astype(
        np.min_scalar_type(depth + 1)
    )
    # Bincount weights are float64: exact while the degree sum is below
    # 2**53.
    count = np.bincount(stamped, minlength=depth + 2)
    mass = np.bincount(stamped, weights=degrees, minlength=depth + 2)
    mass = mass.astype(np.int64)
    unvisited = graph.num_vertices - np.cumsum(count)
    unvisited_edges = graph.targets.size - np.cumsum(mass)

    # Rows past the last frontier are unvisited at every recorded level.
    row_level = np.repeat(np.minimum(stamped, depth), degrees)
    target_level = np.take(stamped, graph.targets)
    entry = np.flatnonzero(target_level < row_level)
    rows = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), degrees
    )[entry]
    stop_level = target_level[entry]
    _, first = np.unique(rows * (depth + 1) + stop_level, return_index=True)
    rows, stop_level, entry = rows[first], stop_level[first], entry[first]
    won_edges = np.bincount(
        stop_level, weights=degrees[rows], minlength=depth
    ).astype(np.int64)
    won_checked = np.bincount(
        stop_level, weights=entry - graph.offsets[rows] + 1, minlength=depth
    ).astype(np.int64)
    failed = unvisited_edges[:depth] - won_edges
    checked = failed + won_checked

    columns = zip(  # in LevelRecord field order, after ``level``
        count[:depth].tolist(),
        mass[:depth].tolist(),
        unvisited[:depth].tolist(),
        unvisited_edges[:depth].tolist(),
        checked.tolist(),
        count[1 : depth + 1].tolist(),
        failed.tolist(),
    )
    return tuple(
        LevelRecord(lvl, *fields) for lvl, fields in enumerate(columns)
    )


def pick_sources(
    graph: CSRGraph,
    count: int,
    *,
    seed: int | np.random.Generator = 0,
    min_degree: int = 1,
) -> np.ndarray:
    """Sample BFS roots the Graph 500 way: uniformly among vertices with
    at least ``min_degree`` edges (isolated roots make degenerate
    searches)."""
    if count < 0:
        raise BFSError(f"count must be non-negative, got {count}")
    rng = np.random.default_rng(seed)
    eligible = np.nonzero(graph.degrees >= min_degree)[0]
    if eligible.size == 0:
        raise BFSError("graph has no vertex meeting the degree floor")
    replace = eligible.size < count
    return rng.choice(eligible, size=count, replace=replace).astype(np.int64)
