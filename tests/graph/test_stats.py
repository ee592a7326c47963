"""Unit tests for repro.graph.stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    GRAPH500_PARAMS,
    complete,
    rmat,
    rmat_edges,
    star,
)
from repro.graph.stats import (
    compute_stats,
    estimate_rmat_params,
    graph_features,
)


class TestComputeStats:
    def test_complete_graph(self):
        st = compute_stats(complete(5))
        assert st.num_vertices == 5
        assert st.num_edges == 10
        assert st.avg_degree == 4.0
        assert st.max_degree == 4
        assert st.degree_gini == pytest.approx(0.0, abs=1e-12)
        assert st.isolated_vertices == 0
        assert st.self_loops == 0

    def test_star_gini_high(self):
        st = compute_stats(star(100))
        assert st.max_degree == 99
        assert st.degree_gini > 0.4

    def test_isolated_counted(self):
        g = CSRGraph.from_edges([0], [1], 5)
        assert compute_stats(g).isolated_vertices == 3

    def test_empty_graph(self):
        st = compute_stats(CSRGraph.empty(3))
        assert st.avg_degree == 0.0
        assert st.max_degree == 0
        assert st.degree_gini == 0.0

    def test_as_dict(self):
        d = compute_stats(complete(3)).as_dict()
        assert d["num_vertices"] == 3
        assert set(d) == {
            "num_vertices",
            "num_edges",
            "avg_degree",
            "max_degree",
            "degree_gini",
            "isolated_vertices",
            "self_loops",
        }

    def test_rmat_skewed(self, rmat_small):
        st = compute_stats(rmat_small)
        assert st.degree_gini > 0.3  # R-MAT heavy tail


class TestRmatParams:
    def test_known_params_returned(self, rmat_small):
        assert estimate_rmat_params(rmat_small) == GRAPH500_PARAMS.as_tuple()

    def test_unknown_params_estimated(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 3], 4)
        a, b, c, d = estimate_rmat_params(g)
        assert a + b + c + d == pytest.approx(1.0)

    def test_empty_graph_uniform(self):
        assert estimate_rmat_params(CSRGraph.empty(4)) == (
            0.25,
            0.25,
            0.25,
            0.25,
        )


def _seed_estimate_rmat_params(graph):
    """The quadrant estimate as it stood before it read the CSR arrays:
    an edge-list rebuild and four |E|-long compares."""
    src, dst = graph.edge_list()
    if src.size == 0:
        return (0.25, 0.25, 0.25, 0.25)
    half = graph.num_vertices / 2
    s1 = src >= half
    d1 = dst >= half
    m = src.size
    a = float((~s1 & ~d1).sum() / m)
    b = float((~s1 & d1).sum() / m)
    c = float((s1 & ~d1).sum() / m)
    d_ = float((s1 & d1).sum() / m)
    return a, b, c, d_


@st.composite
def unlabelled_graph(draw):
    """Random graph of odd or even order, symmetric or directed."""
    n = draw(st.integers(min_value=1, max_value=41))
    m = draw(st.integers(min_value=0, max_value=120))
    ids = st.integers(min_value=0, max_value=n - 1)
    return CSRGraph.from_edges(
        np.array(draw(st.lists(ids, min_size=m, max_size=m)), dtype=np.int64),
        np.array(draw(st.lists(ids, min_size=m, max_size=m)), dtype=np.int64),
        n,
        symmetrize=draw(st.booleans()),
        drop_self_loops=draw(st.booleans()),
    )


class TestRmatParamsFromCSR:
    """The estimate reads the quadrants off the CSR arrays and must equal
    the edge-list formula bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(unlabelled_graph())
    def test_random_graphs_match_seed(self, g):
        assert estimate_rmat_params(g) == _seed_estimate_rmat_params(g)

    @pytest.mark.parametrize("n", [(1 << 10) - 1, 1 << 10])
    @pytest.mark.parametrize("symmetrize", [True, False])
    def test_rmat_odd_and_even_order(self, n, symmetrize):
        src, dst = rmat_edges(10, 16, seed=3)
        keep = (src < n) & (dst < n)
        g = CSRGraph.from_edges(src[keep], dst[keep], n, symmetrize=symmetrize)
        got = estimate_rmat_params(g)
        assert got == _seed_estimate_rmat_params(g)
        assert sum(got) == pytest.approx(1.0)

    def test_directed_odd_order(self):
        g = CSRGraph.from_edges(
            [0, 0, 1, 2, 3, 4, 4], [1, 4, 3, 2, 0, 1, 3], 5, symmetrize=False
        )
        assert estimate_rmat_params(g) == (1 / 6, 2 / 6, 2 / 6, 1 / 6)
        assert estimate_rmat_params(g) == _seed_estimate_rmat_params(g)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_edgeless(self, n):
        g = CSRGraph.empty(n)
        assert estimate_rmat_params(g) == (0.25, 0.25, 0.25, 0.25)
        assert estimate_rmat_params(g) == _seed_estimate_rmat_params(g)

    def test_no_edge_list_rebuild(self, monkeypatch):
        g = CSRGraph.from_edges([0, 1, 2], [3, 2, 0], 4)

        def rebuild(self):
            raise AssertionError("estimate_rmat_params rebuilt the edge list")

        monkeypatch.setattr(CSRGraph, "edge_list", rebuild)
        assert sum(estimate_rmat_params(g)) == pytest.approx(1.0)

    def test_meta_params_returned_as_given(self):
        g = CSRGraph.from_edges(
            [0, 1], [1, 2], 3, meta={"rmat_params": (1, 0, 0, 0)}
        )
        got = estimate_rmat_params(g)
        assert got == (1.0, 0.0, 0.0, 0.0)
        assert all(type(x) is float for x in got)


class TestGraphFeatures:
    def test_layout(self, rmat_small):
        f = graph_features(rmat_small)
        assert f.shape == (6,)
        assert f[0] == pytest.approx(1024 / 1e6)
        assert f[1] == pytest.approx(rmat_small.num_edges / 1e6)
        assert tuple(f[2:]) == GRAPH500_PARAMS.as_tuple()

    def test_matches_paper_units(self):
        """The paper's worked example uses millions for |V| and |E|."""
        g = rmat(10, 16, seed=0)
        f = graph_features(g)
        assert 0 < f[0] < 1  # a thousand vertices is 0.001 million
