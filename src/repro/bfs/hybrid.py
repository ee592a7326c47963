"""Direction-optimizing BFS — the combination of Algorithms 1 and 2.

The paper's switching rule (Fig. 4): run **top-down** while

``|E|cq < |E| / M  and  |V|cq < |V| / N``

and **bottom-up** otherwise.  ``(M, N)`` is the *switching point*, the
quantity the whole paper is about tuning; it is supplied here as a
:class:`MNPolicy` (fixed thresholds), or any object implementing
:class:`DirectionPolicy` — per-level oracle plans and regression-driven
policies from :mod:`repro.tuning` plug in through the same interface.

The hybrid pays the real representation-conversion costs: switching to
bottom-up materializes the frontier bitmap, switching back extracts the
queue.  Both events are recorded so the cost model can charge them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.bfs.bottomup import bottom_up_step
from repro.bfs.result import BFSResult, Direction
from repro.bfs.topdown import top_down_step
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BFSError
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer, get_tracer

__all__ = [
    "BOTTOM_UP_KERNELS",
    "DEFAULT_POLICY",
    "LevelState",
    "DirectionPolicy",
    "MNPolicy",
    "bfs_hybrid",
]


@dataclass(frozen=True)
class LevelState:
    """What a direction policy may look at before a level executes."""

    depth: int
    frontier_vertices: int
    frontier_edges: int
    num_vertices: int
    num_edges: int
    unvisited_vertices: int


@runtime_checkable
class DirectionPolicy(Protocol):
    """Chooses the direction for each BFS level."""

    def direction(self, state: LevelState) -> str:
        """Return :data:`Direction.TOP_DOWN` or :data:`Direction.BOTTOM_UP`."""
        ...


@dataclass(frozen=True)
class MNPolicy:
    """The paper's threshold rule with parameters ``(M, N)``.

    Top-down iff ``|E|cq < |E|/M`` **and** ``|V|cq < |V|/N``; bottom-up
    otherwise.  Large ``M``/``N`` switch to bottom-up earlier; ``M = N =
    1`` never leaves top-down on any proper subgraph frontier.
    """

    m: float
    n: float

    def __post_init__(self) -> None:
        if self.m <= 0 or self.n <= 0:
            raise BFSError(f"M and N must be positive, got ({self.m}, {self.n})")

    def direction(self, state: LevelState) -> str:
        """Apply the Fig. 4 threshold test to one level."""
        td = (
            state.frontier_edges < state.num_edges / self.m
            and state.frontier_vertices < state.num_vertices / self.n
        )
        return Direction.TOP_DOWN if td else Direction.BOTTOM_UP


#: The library's default switching point, (M, N) = (20, 100): the
#: moderate thresholds behind :func:`repro.graph500.default_engine`,
#: connected components and the level profiler.
DEFAULT_POLICY = MNPolicy(20.0, 100.0)


#: Recognized bottom-up kernel families for :func:`bfs_hybrid`.
BOTTOM_UP_KERNELS = ("scan", "tiles")


def bfs_hybrid(
    graph: CSRGraph,
    source: int,
    policy: DirectionPolicy | None = None,
    *,
    m: float | None = None,
    n: float | None = None,
    bottom_up: str = "scan",
    sanitize: bool = False,
    workspace: BFSWorkspace | None = None,
    tracer: Tracer | None = None,
) -> BFSResult:
    """Direction-optimizing traversal from ``source``.

    Either pass a ``policy`` object or the raw thresholds ``m=`` / ``n=``
    (mirroring how the runtime system receives the regression-predicted
    switching point).

    ``bottom_up`` selects the kernel family for bottom-up levels:
    ``"scan"`` (the reference windowed adjacency scan) or ``"tiles"``
    (the masked bitmap-tile SpMV of :mod:`repro.linalg`).  The families
    are bit-identical on ``parent``/``level``; ``edges_examined``
    follows each family's own accounting (entry-granular vs
    word-granular early termination).

    With ``sanitize=True`` the traversal runs under
    :class:`repro.analysis.sanitizer.Sanitizer`: CSR arrays are frozen,
    per-level invariants are checked after every step, and bottom-up
    levels additionally verify the frontier bitmap against the queue.

    With an explicit ``workspace`` repeated traversals reuse every
    graph-sized array (output maps, frontier bitmap, claim slots,
    unvisited list); the result's parent/level then alias the workspace
    arrays — call ``result.detach()`` to keep them past the next
    traversal.

    ``tracer`` overrides the process-global tracer: each level becomes
    a ``bfs.level`` span under a ``bfs.hybrid`` root, every direction
    decision is recorded as a ``bfs.direction`` instant event (the
    decision-audit channel), and per-level claim ratios feed the
    ``frontier.claim_ratio`` histogram.
    """
    if policy is None:
        if m is None or n is None:
            raise BFSError("provide either policy= or both m= and n=")
        policy = MNPolicy(m, n)
    elif m is not None or n is not None:
        raise BFSError("pass policy= or m=/n=, not both")
    if bottom_up not in BOTTOM_UP_KERNELS:
        raise BFSError(
            f"unknown bottom-up kernel family {bottom_up!r}; "
            f"expected one of {BOTTOM_UP_KERNELS}"
        )
    bu_step = bottom_up_step
    if bottom_up == "tiles":
        # Lazy import: repro.linalg builds on repro.bfs, so the reverse
        # dependency stays out of module scope (same pattern as the
        # Sanitizer import below).
        from repro.linalg.kernels import bottom_up_tiles_step

        bu_step = bottom_up_tiles_step

    nverts = graph.num_vertices
    if not 0 <= source < nverts:
        raise BFSError(f"source {source} out of range [0, {nverts})")
    san = None
    if sanitize:
        from repro.analysis.sanitizer import Sanitizer

        san = Sanitizer(graph, source)
    nedges = max(graph.num_edges, 1)
    degrees = graph.degrees
    tr = tracer if tracer is not None else get_tracer()

    ws = workspace if workspace is not None else BFSWorkspace(nverts)
    parent, level = ws.begin(source)

    frontier = np.array([source], dtype=np.int64)
    unvisited_count = nverts - 1

    directions: list[str] = []
    edges_examined: list[int] = []
    depth = 0
    try:
        if san is not None:
            san.__enter__()
        with tr.span(
            "bfs.hybrid",
            source=source,
            num_vertices=nverts,
            bottom_up=bottom_up,
        ) as root:
            while frontier.size:
                state = LevelState(
                    depth=depth,
                    frontier_vertices=int(frontier.size),
                    frontier_edges=int(degrees[frontier].sum()),
                    num_vertices=nverts,
                    num_edges=nedges,
                    unvisited_vertices=unvisited_count,
                )
                chosen = policy.direction(state)
                tr.instant(
                    "bfs.direction",
                    depth=depth,
                    direction=chosen,
                    frontier_vertices=state.frontier_vertices,
                    frontier_edges=state.frontier_edges,
                    unvisited_vertices=state.unvisited_vertices,
                )
                bits = None
                with tr.span("bfs.level", depth=depth, direction=chosen) as sp:
                    if chosen == Direction.TOP_DOWN:
                        next_frontier, examined = top_down_step(
                            graph, frontier, parent, level, depth, ws
                        )
                    elif chosen == Direction.BOTTOM_UP:
                        # Switch cost: the sparse queue becomes a packed
                        # bitmap (cleared word-wise from the previous
                        # load, not O(V)).
                        bits = ws.load_frontier(frontier)
                        unvisited = ws.unvisited_ids(graph, parent)
                        next_frontier, examined = bu_step(
                            graph,
                            bits,
                            parent,
                            level,
                            depth,
                            unvisited=unvisited,
                            workspace=ws,
                        )
                    else:
                        raise BFSError(
                            f"policy returned unknown direction {chosen!r}"
                        )
                    sp.set("frontier_vertices", state.frontier_vertices)
                    sp.set("edges_examined", examined)
                    sp.set("claimed", int(next_frontier.size))
                if examined:
                    tr.observe(
                        "frontier.claim_ratio", next_frontier.size / examined
                    )
                if san is not None:
                    san.after_level(
                        depth,
                        frontier,
                        next_frontier,
                        parent,
                        level,
                        in_frontier=bits,
                    )
                # Keep the incremental unvisited list honest after every
                # claiming level (no-op while it is still lazy).
                ws.retire_claimed(parent)
                directions.append(chosen)
                edges_examined.append(examined)
                unvisited_count -= int(next_frontier.size)
                frontier = next_frontier
                depth += 1
            root.set("levels", depth)
        tr.count("bfs.levels", depth)
        tr.count("bfs.edges_examined", sum(edges_examined))
        if bottom_up == "tiles":
            tr.count(
                "linalg.tile_passes", directions.count(Direction.BOTTOM_UP)
            )
        if san is not None:
            san.finish(parent, level)
    finally:
        if san is not None:
            san.__exit__()

    return BFSResult(
        source=source,
        parent=parent,
        level=level,
        directions=directions,
        edges_examined=edges_examined,
    )
