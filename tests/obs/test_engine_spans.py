"""Every engine emits the observability schema when a tracer is on."""

import pytest

from repro.bfs import bfs_bottom_up, bfs_hybrid, bfs_top_down
from repro.bfs.multisource import msbfs
from repro.bfs.profiler import profile_bfs
from repro.graph500 import HybridEngine, run_graph500
from repro.obs import Tracer, use_tracer


@pytest.fixture()
def tracer():
    return Tracer()


class TestSingleThreadEngines:
    @pytest.mark.parametrize(
        "engine,root_span",
        [
            (bfs_top_down, "bfs.topdown"),
            (bfs_bottom_up, "bfs.bottomup"),
        ],
    )
    def test_root_and_level_spans(
        self, rmat_small, rmat_source, engine, root_span, tracer
    ):
        result = engine(rmat_small, rmat_source, tracer=tracer)
        (root,) = tracer.spans(root_span)
        levels = tracer.spans("bfs.level")
        assert root.attrs["levels"] == result.num_levels
        assert len(levels) == result.num_levels
        assert all(r.parent_id == root.span_id for r in levels)
        assert [r.attrs["depth"] for r in levels] == list(
            range(result.num_levels)
        )
        snap = tracer.metrics.snapshot()
        assert snap["bfs.levels"]["value"] == result.num_levels
        assert snap["bfs.edges_examined"]["value"] == sum(
            result.edges_examined
        )

    def test_hybrid_emits_direction_decisions(
        self, rmat_small, rmat_source, tracer
    ):
        result = bfs_hybrid(
            rmat_small, rmat_source, m=14.0, n=24.0, tracer=tracer
        )
        decisions = tracer.events("bfs.direction")
        assert [e.attrs["direction"] for e in decisions] == list(
            result.directions
        )
        assert all(
            "frontier_edges" in e.attrs and "unvisited_vertices" in e.attrs
            for e in decisions
        )
        snap = tracer.metrics.snapshot()
        assert snap["frontier.claim_ratio"]["count"] >= 1

    def test_ambient_tracer_used_when_not_passed(
        self, rmat_small, rmat_source, tracer
    ):
        with use_tracer(tracer):
            bfs_hybrid(rmat_small, rmat_source, m=14.0, n=24.0)
        assert len(tracer.spans("bfs.hybrid")) == 1

    def test_untraced_run_records_nothing_globally(
        self, rmat_small, rmat_source
    ):
        from repro.obs import get_tracer

        ambient = get_tracer()
        before = len(ambient.spans()) if ambient.enabled else 0
        bfs_hybrid(rmat_small, rmat_source, m=14.0, n=24.0)
        after = len(ambient.spans()) if ambient.enabled else 0
        assert after == before


class TestMultiSource:
    def test_sweep_spans(self, rmat_small, tracer):
        sources = [0, 1, 2, 3]
        msbfs(rmat_small, sources, tracer=tracer)
        (root,) = tracer.spans("bfs.msbfs")
        assert root.attrs["batch"] == len(sources)
        sweeps = tracer.spans("bfs.level")
        assert sweeps
        assert all(r.parent_id == root.span_id for r in sweeps)


class TestProfiler:
    def test_profile_spans_match_profile(
        self, rmat_small, rmat_source, tracer
    ):
        profile, _ = profile_bfs(rmat_small, rmat_source, tracer=tracer)
        (root,) = tracer.spans("bfs.profile")
        levels = tracer.spans("bfs.level")
        assert len(levels) == len(profile)
        for rec, prof_rec in zip(levels, profile):
            assert (
                rec.attrs["frontier_vertices"] == prof_rec.frontier_vertices
            )
            assert rec.attrs["claimed"] == prof_rec.claimed

    def test_profile_children_are_levels_and_counters(
        self, rmat_small, rmat_source, tracer
    ):
        """The traversal's levels and the counter derivation are the
        whole of ``bfs.profile``: no other child, nothing outside it."""
        profile, _ = profile_bfs(rmat_small, rmat_source, tracer=tracer)
        (root,) = tracer.spans("bfs.profile")
        children = [s for s in tracer.spans() if s.parent_id == root.span_id]
        assert [s.name for s in children] == (
            ["bfs.level"] * len(profile) + ["bfs.profile.counters"]
        )
        assert [s.attrs["depth"] for s in children[:-1]] == list(
            range(len(profile))
        )
        (counters,) = tracer.spans("bfs.profile.counters")
        assert counters.attrs["levels"] == len(profile)
        assert all(root.start <= s.start <= s.end <= root.end for s in children)
        assert sum(s.duration for s in children) <= root.duration


class TestGraph500:
    def test_construction_and_per_root_spans(self, tracer):
        result = run_graph500(
            8, 8, num_roots=3, engine=HybridEngine(), tracer=tracer
        )
        assert len(tracer.spans("graph500.construction")) == 1
        roots = tracer.spans("graph500.bfs")
        assert len(roots) == 3
        for i, rec in enumerate(roots):
            assert rec.attrs["index"] == i
            assert rec.attrs["seconds"] > 0
            assert rec.attrs["teps"] > 0
        snap = tracer.metrics.snapshot()
        assert snap["graph500.bfs_seconds"]["count"] == 3
        assert snap["teps"]["count"] == 3
        # The engine's own hybrid spans nest under each root span.
        hybrid = tracer.spans("bfs.hybrid")
        assert len(hybrid) == 0  # engine resolves the ambient tracer
        with use_tracer(tracer):
            run_graph500(
                8, 8, num_roots=1, engine=HybridEngine(), seed=1
            )
        assert len(tracer.spans("bfs.hybrid")) == 1
        assert result.validated

    def test_validation_is_a_sibling_span(self, tracer, monkeypatch):
        """``graph500.bfs`` times the traversal alone: a validator that
        sleeps 50 ms shows up in every ``graph500.validate`` span and in
        no ``graph500.bfs`` span."""
        import time

        import repro.graph.validate as validate

        nap = 0.05

        def slow_check(*args):
            time.sleep(nap)
            return []

        monkeypatch.setattr(validate, "check_bfs", slow_check)
        run_graph500(8, 8, num_roots=3, engine=HybridEngine(), tracer=tracer)
        bfs = tracer.spans("graph500.bfs")
        checks = tracer.spans("graph500.validate")
        assert len(bfs) == len(checks) == 3
        assert all(rec.duration < nap for rec in bfs)
        assert all(rec.duration >= nap for rec in checks)
        assert [rec.attrs["root"] for rec in checks] == [
            rec.attrs["root"] for rec in bfs
        ]
        assert {rec.parent_id for rec in checks} == {
            rec.parent_id for rec in bfs
        }
