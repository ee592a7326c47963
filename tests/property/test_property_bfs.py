"""Property-based tests for BFS on random graphs (hypothesis).

The invariants: every engine matches the reference level map, passes
Graph 500 validation, and matches networkx's shortest-path lengths.  On
symmetric graphs the direction of a level cannot change the parent a
vertex gets, which is what lets the level profiler switch directions.
"""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs.bottomup import bfs_bottom_up
from repro.bfs.hybrid import bfs_hybrid
from repro.bfs.reference import bfs_reference
from repro.bfs.spmv import bfs_spmv
from repro.bfs.topdown import bfs_top_down
from repro.graph.csr import CSRGraph


@st.composite
def random_graph_and_source(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    m = draw(st.integers(min_value=0, max_value=150))
    src = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=m,
            max_size=m,
        )
    )
    dst = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=m,
            max_size=m,
        )
    )
    source = draw(st.integers(min_value=0, max_value=n - 1))
    graph = CSRGraph.from_edges(
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        n,
    )
    return graph, source


@st.composite
def random_symmetric_graph_and_source(draw):
    """A symmetric graph with duplicates and self-loops kept or dropped;
    ids drawn from a range wider than the edges reach leave isolated
    vertices and several components."""
    n = draw(st.integers(min_value=1, max_value=60))
    m = draw(st.integers(min_value=0, max_value=150))
    ids = st.integers(min_value=0, max_value=n - 1)
    src = draw(st.lists(ids, min_size=m, max_size=m))
    dst = draw(st.lists(ids, min_size=m, max_size=m))
    graph = CSRGraph.from_edges(
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        n,
        dedup=draw(st.booleans()),
        drop_self_loops=draw(st.booleans()),
    )
    return graph, draw(ids)


@st.composite
def random_mn(draw):
    m = draw(st.floats(min_value=0.5, max_value=2000.0))
    n = draw(st.floats(min_value=0.5, max_value=2000.0))
    return m, n


@given(random_graph_and_source())
@settings(max_examples=60, deadline=None)
def test_all_engines_agree(case):
    graph, source = case
    ref = bfs_reference(graph, source)
    for fn in (bfs_top_down, bfs_bottom_up, bfs_spmv):
        res = fn(graph, source)
        assert np.array_equal(res.level, ref.level)
        res.validate(graph)


@given(random_graph_and_source(), random_mn())
@settings(max_examples=60, deadline=None)
def test_hybrid_correct_for_any_switching_point(case, mn):
    graph, source = case
    m, n = mn
    ref = bfs_reference(graph, source)
    res = bfs_hybrid(graph, source, m=m, n=n)
    assert np.array_equal(res.level, ref.level)
    res.validate(graph)


@given(random_symmetric_graph_and_source())
@settings(max_examples=100, deadline=None)
def test_parents_independent_of_direction(case):
    """Top-down claims a vertex for its smallest-id frontier neighbour;
    bottom-up's sorted-row scan finds the same one, so every direction
    schedule yields the top-down parent and level maps."""
    graph, source = case
    want = bfs_top_down(graph, source)
    runs = [bfs_bottom_up(graph, source)] + [
        bfs_hybrid(graph, source, m=m, n=n)
        for m in (1.0, 20.0, 1e9)
        for n in (1.0, 20.0, 1e9)
    ]
    for res in runs:
        assert np.array_equal(res.parent, want.parent)
        assert np.array_equal(res.level, want.level)


@given(random_graph_and_source())
@settings(max_examples=40, deadline=None)
def test_levels_match_networkx(case):
    graph, source = case
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    src, dst = graph.edge_list()
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    want = nx.single_source_shortest_path_length(g, source)
    res = bfs_reference(graph, source)
    for v in range(graph.num_vertices):
        if v in want:
            assert res.level[v] == want[v]
        else:
            assert res.level[v] == -1


@given(random_graph_and_source())
@settings(max_examples=40, deadline=None)
def test_profile_conservation_laws(case):
    from repro.bfs.profiler import profile_bfs

    graph, source = case
    profile, result = profile_bfs(graph, source)
    assert profile.total_reached() == result.num_reached
    fv = profile.frontier_vertices()
    claimed = np.array([r.claimed for r in profile])
    if len(profile) > 1:
        assert np.array_equal(fv[1:], claimed[:-1])
    for rec in profile:
        assert rec.bu_edges_checked <= rec.unvisited_edges
        assert rec.bu_edges_failed <= rec.bu_edges_checked
        assert rec.claimed <= rec.unvisited_vertices
