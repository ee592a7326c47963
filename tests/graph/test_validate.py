"""Unit tests for repro.graph.validate (Graph 500-style checks)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs.reference import bfs_reference
from repro.errors import ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.generators import ring, rmat_edges, star
from repro.graph.validate import check_bfs, validate_bfs


@pytest.fixture()
def valid_run(rmat_small, rmat_source):
    res = bfs_reference(rmat_small, rmat_source)
    return rmat_small, rmat_source, res.parent.copy(), res.level.copy()


class TestAccepts:
    def test_reference_output_valid(self, valid_run):
        g, s, parent, level = valid_run
        assert check_bfs(g, s, parent, level) == []
        validate_bfs(g, s, parent, level)  # no raise

    def test_star_from_hub(self):
        g = star(6)
        res = bfs_reference(g, 0)
        validate_bfs(g, 0, res.parent, res.level)

    def test_star_from_leaf(self):
        g = star(6)
        res = bfs_reference(g, 3)
        validate_bfs(g, 3, res.parent, res.level)

    def test_ring(self):
        g = ring(9)
        res = bfs_reference(g, 4)
        validate_bfs(g, 4, res.parent, res.level)

    def test_disconnected_component_ok(self):
        # Two disjoint edges; BFS from 0 must leave 2, 3 unreached.
        g = CSRGraph.from_edges([0, 2], [1, 3], 4)
        res = bfs_reference(g, 0)
        assert res.level[2] == -1
        validate_bfs(g, 0, res.parent, res.level)

    def test_alternative_parent_accepted(self, valid_run):
        """Any shortest-path tree is valid, not just the reference's."""
        g, s, parent, level = valid_run
        # Pick a vertex at level >= 2 and re-parent it to another
        # neighbour one level up, if one exists.
        for v in np.nonzero(level >= 2)[0]:
            for u in g.neighbors(v):
                if level[u] == level[v] - 1 and u != parent[v]:
                    parent[v] = u
                    assert check_bfs(g, s, parent, level) == []
                    return
        pytest.skip("no alternative parent in this graph")


class TestRejects:
    def test_wrong_source_level(self, valid_run):
        g, s, parent, level = valid_run
        level[s] = 1
        assert check_bfs(g, s, parent, level)

    def test_source_not_own_parent(self, valid_run):
        g, s, parent, level = valid_run
        parent[s] = -1
        assert check_bfs(g, s, parent, level)

    def test_level_skip(self, valid_run):
        g, s, parent, level = valid_run
        v = int(np.nonzero(level == 1)[0][0])
        level[v] = 2
        failures = check_bfs(g, s, parent, level)
        assert failures

    def test_parent_level_disagree_on_reached(self, valid_run):
        g, s, parent, level = valid_run
        v = int(np.nonzero(level == 1)[0][0])
        parent[v] = -1  # level still says reached
        assert any("disagree" in f for f in check_bfs(g, s, parent, level))

    def test_fake_tree_edge(self, valid_run):
        g, s, parent, level = valid_run
        # Find a vertex at level 2 and claim its parent is a non-adjacent
        # level-1 vertex.
        lvl1 = np.nonzero(level == 1)[0]
        lvl2 = np.nonzero(level == 2)[0]
        for v in lvl2:
            nbrs = set(g.neighbors(v).tolist())
            for u in lvl1:
                if int(u) not in nbrs:
                    parent[v] = u
                    assert any(
                        "not graph edges" in f
                        for f in check_bfs(g, s, parent, level)
                    )
                    return
        pytest.skip("every level-1 vertex adjacent to every level-2 vertex")

    def test_unreached_but_adjacent(self, valid_run):
        g, s, parent, level = valid_run
        v = int(np.nonzero(level == 2)[0][0])
        parent[v] = -1
        level[v] = -1
        failures = check_bfs(g, s, parent, level)
        assert any("unreached" in f for f in failures)

    def test_shape_mismatch(self, valid_run):
        g, s, parent, level = valid_run
        assert check_bfs(g, s, parent[:-1], level[:-1])

    def test_bad_source(self, valid_run):
        g, _, parent, level = valid_run
        assert check_bfs(g, -1, parent, level)

    def test_validate_raises(self, valid_run):
        g, s, parent, level = valid_run
        level[s] = 3
        with pytest.raises(ValidationError):
            validate_bfs(g, s, parent, level)


class TestEdgeCases:
    """Boundary structures: isolated sources, self-loop-only vertices,
    deliberate parent-array corruption."""

    def test_disconnected_source(self):
        """BFS from an isolated vertex reaches only itself and must
        still validate (and reject any phantom reachability)."""
        g = CSRGraph.from_edges([0, 1], [1, 2], 5)  # 3, 4 isolated
        res = bfs_reference(g, 4)
        assert res.num_reached == 1
        assert check_bfs(g, 4, res.parent, res.level) == []
        # Claiming an unreachable vertex was reached must fail.
        parent, level = res.parent.copy(), res.level.copy()
        parent[0], level[0] = 4, 1
        assert check_bfs(g, 4, parent, level)

    def test_self_loop_only_vertex(self):
        """A vertex whose only incident edge is a self loop: with the
        Graph 500 preprocessing the loop is dropped, so the vertex is
        isolated and unreachable from the rest of the graph."""
        g = CSRGraph.from_edges([0, 1, 3], [1, 2, 3], 4)
        assert g.degree(3) == 0  # self loop removed by construction
        res = bfs_reference(g, 0)
        assert res.level[3] == -1
        assert check_bfs(g, 0, res.parent, res.level) == []
        # From the self-loop vertex itself: a single-vertex traversal.
        res3 = bfs_reference(g, 3)
        assert res3.num_reached == 1
        assert check_bfs(g, 3, res3.parent, res3.level) == []

    def test_self_loop_kept_when_not_dropped(self):
        """Self loops retained in storage must not break validation:
        the loop spans zero levels by definition."""
        g = CSRGraph.from_edges(
            [0, 1, 1], [1, 2, 1], 3, drop_self_loops=False
        )
        res = bfs_reference(g, 0)
        assert check_bfs(g, 0, res.parent, res.level) == []

    def test_corrupted_parent_array_rejected(self, valid_run):
        """A parent map pointing inside the right level structure but at
        non-adjacent vertices must be rejected by check 4."""
        g, s, parent, level = valid_run
        rng = np.random.default_rng(0)
        reached = np.nonzero(level > 0)[0]
        # Corrupt a swath of parents to random reached vertices.
        victims = reached[:: max(1, reached.size // 16)]
        parent = parent.copy()
        parent[victims] = rng.choice(reached, size=victims.size)
        failures = check_bfs(g, s, parent, level)
        assert failures, "corrupted parent array slipped through"

    def test_cyclic_parent_chain_rejected(self, valid_run):
        """Two vertices claiming each other as parents cannot form a
        valid BFS tree at consistent levels."""
        g, s, parent, level = valid_run
        lvl2 = np.nonzero(level == 2)[0]
        if lvl2.size < 2:
            pytest.skip("graph too shallow for a 2-cycle at level 2")
        a, b = int(lvl2[0]), int(lvl2[1])
        parent = parent.copy()
        parent[a], parent[b] = b, a
        assert check_bfs(g, s, parent, level)

    def test_all_parents_minus_one_except_source(self, valid_run):
        """Wiping the parent map while levels still claim reachability
        must trip the agreement check."""
        g, s, parent, level = valid_run
        parent = np.full_like(parent, -1)
        parent[s] = s
        failures = check_bfs(g, s, parent, level)
        assert any("disagree" in f for f in failures)


# -- planted defects ---------------------------------------------------------
#
# One mutation per check, planted into a valid traversal on four
# topologies.  Each test asserts the validator's exact failure list,
# counts included.  Structural counts (checks 1-4) follow from the
# mutation itself; check 5's counts come from ``_edge_failures``, a
# per-entry loop over the adjacency that serves as the oracle.

DISAGREE = "parent map and level map disagree on reached set"


def _edge_failures(graph, level):
    """Check 5 by brute force: one Python step per stored entry."""
    lv = level.tolist()
    span = half = 0
    for u in range(graph.num_vertices):
        for w in graph.neighbors(u).tolist():
            if lv[u] >= 0 and lv[w] >= 0:
                span += abs(lv[u] - lv[w]) > 1
            else:
                half += (lv[u] >= 0) != (lv[w] >= 0)
    failures = []
    if span:
        failures.append(f"{span} graph edges span more than one level")
    if half and graph.symmetric:
        failures.append(f"{half} edges join reached to unreached vertices")
    return failures


def _directed(graph, source):
    """A directed subgraph of symmetric ``graph`` that keeps the BFS
    levels from ``source``: every forward entry stays, same-level and
    unreached pairs keep one direction, back entries one in three."""
    level = bfs_reference(graph, source).level
    src, dst = graph.edge_list()
    a, b = level[src], level[dst]
    keep = (
        (b == a + 1)
        | ((a == b) & (src < dst))
        | ((b == a - 1) & ((src + dst) % 3 == 0))
    )
    return CSRGraph.from_edges(
        src[keep], dst[keep], graph.num_vertices, symmetrize=False
    )


def _disconnected():
    """Two R-MAT components on disjoint halves of the vertex range."""
    s1, d1 = rmat_edges(9, 8, seed=1)
    s2, d2 = rmat_edges(9, 8, seed=2)
    return CSRGraph.from_edges(
        np.concatenate([s1, s2 + 512]), np.concatenate([d1, d2 + 512]), 1024
    )


@pytest.fixture(
    scope="module", params=["rmat", "directed", "self-loops", "disconnected"]
)
def topology(request, rmat_small, rmat_source):
    """``(graph, source, parent, level)`` of a valid reference BFS."""
    if request.param == "rmat":
        g, s = rmat_small, rmat_source
    elif request.param == "directed":
        g, s = _directed(rmat_small, rmat_source), rmat_source
    elif request.param == "self-loops":
        src, dst = rmat_edges(10, 16, seed=7)
        g = CSRGraph.from_edges(src, dst, 1024, drop_self_loops=False)
        assert (src == dst).any()
        s = rmat_source
    else:
        g = _disconnected()
        s = int(np.argmax(g.degrees))
    res = bfs_reference(g, s)
    assert check_bfs(g, s, res.parent, res.level) == []
    return g, s, res.parent, res.level


@pytest.fixture()
def planted(topology):
    """A writable copy of the valid run, plus its tree leaves."""
    g, s, parent, level = topology
    parent, level = parent.copy(), level.copy()
    has_child = np.zeros(g.num_vertices, dtype=bool)
    has_child[parent[(parent >= 0) & (np.arange(parent.size) != s)]] = True
    leaves = np.nonzero((level > 0) & ~has_child)[0]
    assert leaves.size >= 2
    return g, s, parent, level, [int(v) for v in leaves]


class TestPlantedDefects:
    def test_reached_set_disagreement(self, planted):
        g, s, parent, level, leaves = planted
        parent[leaves[0]] = -1
        assert check_bfs(g, s, parent, level) == [
            DISAGREE,
            "1 vertices have an unreached/invalid parent",
        ]

    def test_source_not_own_parent(self, planted):
        g, s, parent, level, leaves = planted
        parent[s] = leaves[0]
        assert check_bfs(g, s, parent, level) == [
            f"source parent must be itself, got {leaves[0]}"
        ]

    def test_source_level_not_zero(self, planted):
        g, s, parent, level, _ = planted
        kids = int((parent == s).sum()) - 1
        level[s] = 1
        expected = ["source level must be 0, got 1"]
        if kids:
            expected.append(f"{kids} tree edges do not drop exactly one level")
        assert check_bfs(g, s, parent, level) == (
            expected + _edge_failures(g, level)
        )

    def test_level_skip_along_tree_edge(self, planted):
        g, s, parent, level, leaves = planted
        level[leaves[0]] += 1
        spans = _edge_failures(g, level)
        assert spans  # the skipped tree edge itself spans two levels
        assert check_bfs(g, s, parent, level) == [
            "1 tree edges do not drop exactly one level",
            *spans,
        ]

    @pytest.mark.parametrize(
        "bad", [0, 5, 1 << 40, -2, -3], ids=["n", "n+5", "n+2^40", "-2", "-3"]
    )
    def test_parent_out_of_range(self, planted, bad):
        """A parent id ``>= n`` (``n + bad``) or below -1 (``bad``) is
        reported as an invalid parent, never raised as ``IndexError``."""
        g, s, parent, level, leaves = planted
        if bad >= 0:
            bad += g.num_vertices
        parent[leaves[0]] = bad
        expected = ["1 vertices have an unreached/invalid parent"]
        assert check_bfs(g, s, parent, level) == (
            [DISAGREE] + expected if bad < 0 else expected
        )

    def test_parents_out_of_range_both_sides(self, planted):
        g, s, parent, level, leaves = planted
        parent[leaves[0]] = g.num_vertices
        parent[leaves[1]] = -3
        assert check_bfs(g, s, parent, level) == [
            DISAGREE,
            "2 vertices have an unreached/invalid parent",
        ]

    def test_tree_edge_not_graph_edge(self, planted):
        g, s, parent, level, leaves = planted
        for v in leaves:
            for u in np.nonzero(level == level[v] - 1)[0].tolist():
                if not g.has_edge(u, v):
                    parent[v] = u
                    assert check_bfs(g, s, parent, level) == [
                        "1 tree edges are not graph edges"
                    ]
                    return
        pytest.fail("no leaf has a non-adjacent vertex one level up")

    def test_edge_spans_two_levels(self, planted):
        """Re-hang a leaf one level lower under a same-level neighbour:
        the tree stays consistent, but the old parent's edge now spans
        two levels, which only check 5 sees."""
        g, s, parent, level, leaves = planted
        for v in leaves:
            for u in np.nonzero(level == level[v])[0].tolist():
                if u != v and g.has_edge(u, v):
                    parent[v] = u
                    level[v] += 1
                    spans = _edge_failures(g, level)
                    assert spans
                    assert check_bfs(g, s, parent, level) == spans
                    return
        pytest.fail("no leaf has a same-level in-neighbour")

    def test_reached_unreached_edge(self, planted):
        """Drop a leaf from both maps.  Check 5 reports the edges that
        now join it to the reached set -- on symmetric graphs only."""
        g, s, parent, level, leaves = planted
        parent[leaves[0]] = level[leaves[0]] = -1
        expected = _edge_failures(g, level)
        assert bool(expected) == g.symmetric
        assert check_bfs(g, s, parent, level) == expected


# -- differential oracle -----------------------------------------------------
#
# ``_seed_check_bfs`` is the validator as it stood before the edge-scan
# rewrite, copied verbatim (only the two names changed): an edge-list
# rebuild, four gathers for check 5 and a lockstep bisection for
# check 4.  It is the reference the current validator must match.


def _seed_check_bfs(
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
    if kids.size:
        pk = parent[kids]
        bad = ~reached[np.clip(pk, 0, n - 1)] | (pk < 0) | (pk >= n)
        if bad.any():
            failures.append(
                f"{int(bad.sum())} vertices have an unreached/invalid parent"
            )
        ok = ~bad
        if (level[kids[ok]] != level[pk[ok]] + 1).any():
            nbad = int((level[kids[ok]] != level[pk[ok]] + 1).sum())
            failures.append(
                f"{nbad} tree edges do not drop exactly one level"
            )
        # Tree edges must exist in the graph.  Vectorized membership:
        # search v within parent's sorted adjacency slice.
        valid_parents = kids[ok]
        pk_ok = pk[ok]
        found = _seed_edges_exist(graph, pk_ok, valid_parents)
        if not found.all():
            failures.append(
                f"{int((~found).sum())} tree edges are not graph edges"
            )

    # Check 5: every graph edge between reached vertices spans <= 1 level,
    # and (for symmetric graphs) never joins reached to unreached.
    src, dst = graph.edge_list()
    both = reached[src] & reached[dst]
    if both.any():
        gap = np.abs(level[src[both]] - level[dst[both]])
        if (gap > 1).any():
            failures.append(
                f"{int((gap > 1).sum())} graph edges span more than one level"
            )
    if graph.symmetric:
        half = reached[src] ^ reached[dst]
        if half.any():
            failures.append(
                f"{int(half.sum())} edges join reached to unreached vertices"
            )
    return failures


def _seed_edges_exist(
    graph: CSRGraph, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Vectorized test that directed edges ``(rows[i], cols[i])`` exist."""
    # Adjacency lists are sorted, so each query is a binary search within
    # its row slice.  All queries bisect in lockstep: log2(max degree)
    # rounds of O(#queries) vectorized work instead of a Python loop.
    order = np.argsort(rows, kind="stable")
    rows_s, cols_s = rows[order], cols[order]
    found = np.zeros(rows.size, dtype=bool)
    starts_s = graph.offsets[rows_s].astype(np.int64)
    ends_s = graph.offsets[rows_s + 1].astype(np.int64)
    # Binary search each query within its row slice, vectorized over all
    # queries at once by iterating the bisection manually (log2(max deg)
    # iterations of O(T) work).
    lo = starts_s.copy()
    hi = ends_s.copy()
    max_deg = int((ends_s - starts_s).max(initial=0))
    steps = max(1, int(np.ceil(np.log2(max(max_deg, 1)))) + 1)
    tg = graph.targets
    for _ in range(steps):
        mid = (lo + hi) >> 1
        active = lo < hi
        midv = np.where(active, tg[np.minimum(mid, tg.size - 1)], 0)
        go_right = active & (midv < cols_s)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
    valid = (lo < ends_s) & (lo < tg.size)
    hit = np.zeros(rows.size, dtype=bool)
    hit[valid] = tg[lo[valid]] == cols_s[valid]
    found[order] = hit
    return found


@st.composite
def mutated_run(draw):
    """A random graph, a reference BFS on it and random corruptions of
    its parent and level maps (ids and levels in and out of range)."""
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
    res = bfs_reference(g, source)
    parent, level = res.parent.copy(), res.level.copy()
    values = st.one_of(
        st.integers(min_value=-3, max_value=n + 2),
        st.sampled_from([-(1 << 40), -(1 << 31), 1 << 30, 1 << 31, 1 << 40]),
    )
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        target = draw(st.sampled_from([parent, level]))
        target[draw(ids)] = draw(values)
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    return g, source, parent.astype(dtype), level.astype(dtype)


class TestSeedOracle:
    @settings(max_examples=400, deadline=None)
    @given(mutated_run())
    def test_identical_to_seed_validator(self, run):
        g, source, parent, level = run
        try:
            expected = _seed_check_bfs(g, source, parent, level)
        except IndexError:
            # The seed's bisection reads ``targets[-1]``, which raises
            # only on a graph without entries.
            assert g.num_directed_edges == 0
            return
        assert check_bfs(g, source, parent, level) == expected

    def test_edgeless_graph_reports_missing_tree_edge(self):
        g = CSRGraph.empty(3)
        parent, level = np.array([0, 0, -1]), np.array([0, 1, -1])
        with pytest.raises(IndexError):
            _seed_check_bfs(g, 0, parent, level)
        assert check_bfs(g, 0, parent, level) == [
            "1 tree edges are not graph edges"
        ]

    def test_reversed_edge_is_not_a_tree_edge(self):
        """``(w, p)`` is stored but ``(p, w)`` is not: check 4 looks up
        the tree edge in its own direction."""
        g = CSRGraph.from_edges(
            [0, 0, 3, 2], [1, 3, 2, 1], 4, symmetrize=False
        )
        level = np.array([0, 1, 2, 1])
        assert check_bfs(g, 0, np.array([0, 0, 3, 0]), level) == []
        claimed = np.array([0, 0, 1, 0])  # via (1, 2); only (2, 1) exists
        expected = ["1 tree edges are not graph edges"]
        assert _seed_check_bfs(g, 0, claimed, level) == expected
        assert check_bfs(g, 0, claimed, level) == expected

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_read_only_maps_left_unmodified(self, valid_run, corrupt):
        g, s, parent, level = valid_run
        if corrupt:
            parent[int(np.nonzero(level == 2)[0][0])] = g.num_vertices
            level[int(np.nonzero(level == 1)[0][0])] = -1
        before = parent.copy(), level.copy()
        parent.flags.writeable = level.flags.writeable = False
        failures = check_bfs(g, s, parent, level)
        assert bool(failures) == corrupt
        assert failures == _seed_check_bfs(g, s, parent, level)
        np.testing.assert_array_equal(parent, before[0])
        np.testing.assert_array_equal(level, before[1])
