"""Scale stress tests.

The vectorized engines must agree with each other at sizes where
chunking and int32/int64 seams actually engage — not just on toy
graphs.
"""

import numpy as np
import pytest

from repro.bfs.bottomup import bfs_bottom_up
from repro.bfs.hybrid import bfs_hybrid
from repro.bfs.profiler import pick_sources
from repro.bfs.topdown import bfs_top_down
from repro.graph.generators import rmat


@pytest.fixture(scope="module")
def big_graph():
    """SCALE 16: 65k vertices, ~1M edges — chunking real."""
    return rmat(16, 16, seed=99)


class TestScaleStress:
    def test_engines_agree_at_scale(self, big_graph):
        src = int(pick_sources(big_graph, 1, seed=0)[0])
        td = bfs_top_down(big_graph, src)
        bu = bfs_bottom_up(big_graph, src)
        hy = bfs_hybrid(big_graph, src, m=20, n=100)
        assert np.array_equal(td.level, bu.level)
        assert np.array_equal(td.level, hy.level)
        hy.validate(big_graph)

    def test_chunked_bottom_up_at_scale(self, big_graph):
        src = int(pick_sources(big_graph, 1, seed=1)[0])
        full = bfs_bottom_up(big_graph, src)
        chunked = bfs_bottom_up(big_graph, src, chunk_entries=10_000)
        assert np.array_equal(full.level, chunked.level)
        assert full.edges_examined == chunked.edges_examined

    def test_multiple_sources_at_scale(self, big_graph):
        for src in pick_sources(big_graph, 3, seed=3):
            bfs_hybrid(big_graph, int(src), m=20, n=100).validate(big_graph)

    def test_profile_at_scale_consistent(self, big_graph):
        from repro.bfs.profiler import profile_bfs

        src = int(pick_sources(big_graph, 1, seed=4)[0])
        profile, result = profile_bfs(big_graph, src)
        assert profile.total_reached() == result.num_reached
        # Total TD work over all levels = degree mass of the component.
        reached = result.level >= 0
        assert profile.frontier_edges().sum() == int(
            big_graph.degrees[reached].sum()
        )
