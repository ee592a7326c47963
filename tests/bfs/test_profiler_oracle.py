"""Differential oracle for :func:`repro.bfs.profiler.profile_bfs`.

``_seed_profile_bfs`` is the profiler as it stood when every level ran
a counterfactual bottom-up scan, copied verbatim (only the names
changed).  The current profiler must reproduce its profiles and its
results exactly, on every topology below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs.bottomup import DEFAULT_SCAN_WINDOW, _row_scan
from repro.bfs.profiler import pick_sources, profile_bfs
from repro.bfs.result import BFSResult, Direction
from repro.bfs.topdown import top_down_step
from repro.bfs.trace import LevelProfile, LevelRecord
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BFSError
from repro.graph.csr import CSRGraph
from repro.graph.generators import path, rmat_edges, star
from repro.obs.tracer import Tracer, get_tracer


def _seed_profile_bfs(
    graph: CSRGraph,
    source: int,
    *,
    max_levels: int | None = None,
    workspace: BFSWorkspace | None = None,
    tracer: Tracer | None = None,
) -> tuple[LevelProfile, BFSResult]:
    """Run an instrumented traversal from ``source``.

    Returns the level profile and the (top-down-computed) BFS result.
    ``max_levels`` guards pathological graphs (e.g. long paths) when only
    the head of the profile is needed.

    ``tracer`` overrides the process-global tracer: levels become
    ``bfs.level`` spans under a ``bfs.profile`` root, carrying the same
    counters the :class:`~repro.bfs.trace.LevelRecord` keeps.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise BFSError(f"source {source} out of range [0, {n})")
    tr = tracer if tracer is not None else get_tracer()
    degrees = graph.degrees

    ws = workspace if workspace is not None else BFSWorkspace(n)
    parent, level = ws.begin(source)

    frontier = np.array([source], dtype=np.int64)
    records: list[LevelRecord] = []
    directions: list[str] = []
    edges_examined: list[int] = []
    depth = 0
    with tr.span("bfs.profile", source=source, num_vertices=n) as root:
        while frontier.size and (max_levels is None or depth < max_levels):
            with tr.span("bfs.level", depth=depth) as sp:
                # The profile's unvisited counters include zero-degree
                # vertices (they are part of |V|un), so this full scan
                # stays — it feeds the record, not the kernel.
                unvisited = np.nonzero(parent < 0)[0]
                unvisited_edges = int(degrees[unvisited].sum())
                frontier_edges = int(degrees[frontier].sum())

                # Counterfactual bottom-up accounting at this level.
                bits = ws.load_frontier(frontier)
                bu_checked, bu_failed = _seed_bottom_up_checked(
                    graph, unvisited, bits, ws
                )

                next_frontier, examined = top_down_step(
                    graph, frontier, parent, level, depth, ws
                )
                sp.set("frontier_vertices", int(frontier.size))
                sp.set("frontier_edges", frontier_edges)
                sp.set("bu_edges_checked", bu_checked)
                sp.set("claimed", int(next_frontier.size))
            records.append(
                LevelRecord(
                    level=depth,
                    frontier_vertices=int(frontier.size),
                    frontier_edges=frontier_edges,
                    unvisited_vertices=int(unvisited.size),
                    unvisited_edges=unvisited_edges,
                    bu_edges_checked=bu_checked,
                    claimed=int(next_frontier.size),
                    bu_edges_failed=bu_failed,
                )
            )
            directions.append(Direction.TOP_DOWN)
            edges_examined.append(examined)
            frontier = next_frontier
            depth += 1
        root.set("levels", depth)
    tr.count("bfs.levels", depth)

    profile = LevelProfile(
        source=source,
        num_vertices=n,
        num_edges=graph.num_edges,
        records=tuple(records),
    )
    result = BFSResult(
        source=source,
        parent=parent,
        level=level,
        directions=directions,
        edges_examined=edges_examined,
    )
    return profile, result


def _seed_bottom_up_checked(
    graph: CSRGraph,
    unvisited: np.ndarray,
    in_frontier,
    workspace: BFSWorkspace | None = None,
) -> tuple[int, int]:
    """Edges a bottom-up sweep would inspect, with early termination.

    Returns ``(total_checked, failed_checked)`` where the failed portion
    belongs to vertices that found no parent this level.  Uses the same
    windowed row scan as the real kernel, so the counts match what an
    actual bottom-up level would report.
    """
    if unvisited.size == 0:
        return 0, 0
    deg = graph.degrees[unvisited]
    nz = deg > 0
    if not nz.all():
        unvisited = unvisited[nz]
        deg = deg[nz]
    if unvisited.size == 0:
        return 0, 0
    starts = graph.offsets[unvisited]
    found, _, total = _row_scan(
        graph,
        unvisited,
        deg,
        starts,
        in_frontier,
        window=DEFAULT_SCAN_WINDOW,
        workspace=workspace,
    )
    # A vertex that finds no parent inspects its whole adjacency list.
    failed = int(deg[~found].sum())
    return total, failed


def assert_matches_seed(graph, source, max_levels=None):
    """Every record, both maps, directions and examined counts agree."""
    want, want_res = _seed_profile_bfs(graph, source, max_levels=max_levels)
    got, got_res = profile_bfs(graph, source, max_levels=max_levels)
    assert got == want
    assert [type(v) for r in got for v in vars(r).values()] == [
        int for r in got for _ in vars(r)
    ]
    assert np.array_equal(got_res.parent, want_res.parent)
    assert np.array_equal(got_res.level, want_res.level)
    assert got_res.parent.dtype == want_res.parent.dtype
    assert got_res.level.dtype == want_res.level.dtype
    assert got_res.directions == want_res.directions
    assert got_res.edges_examined == want_res.edges_examined


@st.composite
def random_graph(draw):
    """Random symmetric or directed graph, loops and duplicates optional;
    small id ranges leave isolated vertices and several components."""
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=0, max_value=120))
    ids = st.integers(min_value=0, max_value=n - 1)
    src = draw(st.lists(ids, min_size=m, max_size=m))
    dst = draw(st.lists(ids, min_size=m, max_size=m))
    g = CSRGraph.from_edges(
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        n,
        symmetrize=draw(st.booleans()),
        dedup=draw(st.booleans()),
        drop_self_loops=draw(st.booleans()),
    )
    source = draw(ids)
    max_levels = draw(st.one_of(st.none(), st.integers(0, 6)))
    return g, source, max_levels


class TestSeedOracle:
    @settings(max_examples=400, deadline=None)
    @given(random_graph())
    def test_random_graphs(self, case):
        assert_matches_seed(*case)

    @pytest.mark.parametrize("symmetrize", [True, False])
    @pytest.mark.parametrize("scale", [10, 12])
    def test_rmat(self, scale, symmetrize):
        src, dst = rmat_edges(scale, 16, seed=scale)
        g = CSRGraph.from_edges(
            src, dst, 1 << scale, symmetrize=symmetrize
        )
        for source in pick_sources(g, 8, seed=1).tolist():
            assert_matches_seed(g, source)

    @pytest.mark.parametrize("max_levels", [None, 5])
    def test_path(self, max_levels):
        assert_matches_seed(path(50), 0, max_levels)

    @pytest.mark.parametrize("source", [0, 7])
    def test_star(self, source):
        assert_matches_seed(star(10), source)

    def test_isolated_source(self):
        g = CSRGraph.from_edges(
            np.array([0, 1]), np.array([1, 2]), 5, symmetrize=True
        )
        assert_matches_seed(g, 4)

    @pytest.mark.parametrize("n", [2, 3, 50, 300])
    def test_path_closed_form_is_the_seed(self, n):
        want, want_res = _seed_profile_bfs(path(n), 0)
        records, parent, level, examined = path_profile(n)
        assert want.records == records
        assert np.array_equal(want_res.parent, parent)
        assert np.array_equal(want_res.level, level)
        assert want_res.edges_examined == examined

    def test_path_deeper_than_int16(self):
        """More levels than an ``int16`` level map can hold.  The seed
        rescans every unvisited row at each of the 32,770 levels (over
        a minute), so the closed form it matches above stands in."""
        n = 32_770
        got, res = profile_bfs(path(n), 0)
        records, parent, level, examined = path_profile(n)
        assert got.records == records
        assert np.array_equal(res.parent, parent)
        assert np.array_equal(res.level, level)
        assert res.directions == [Direction.TOP_DOWN] * n
        assert res.edges_examined == examined


def path_profile(n):
    """Records, parent map, level map and examined counts of a profile
    of ``path(n)`` from vertex 0.  Level ℓ's frontier is vertex ℓ; a
    bottom-up sweep stops vertex ℓ + 1 at its first entry, ℓ, and scans
    every later vertex in full."""
    deg = np.full(n, 2, dtype=np.int64)
    deg[[0, -1]] = 1
    later = (deg.sum() - np.cumsum(deg)).tolist()
    deg = deg.tolist()
    records = tuple(
        LevelRecord(
            level=v,
            frontier_vertices=1,
            frontier_edges=deg[v],
            unvisited_vertices=n - v - 1,
            unvisited_edges=later[v],
            bu_edges_checked=later[v] - deg[v + 1] + 1 if v < n - 1 else 0,
            claimed=int(v < n - 1),
            bu_edges_failed=later[v] - deg[v + 1] if v < n - 1 else 0,
        )
        for v in range(n)
    )
    level = np.arange(n, dtype=np.int64)
    parent = np.maximum(level - 1, 0)
    return records, parent, level, deg
