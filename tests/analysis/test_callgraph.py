"""The whole-program call graph: resolution, fixpoint propagation,
caching and exports (repro.analysis.callgraph)."""

import json

import pytest

from repro.analysis.callgraph import (
    SummaryCache,
    build_project,
    extract_module,
    module_name_for,
    project_from_sources,
    record_from_dict,
    record_to_dict,
)
from repro.errors import CallGraphError
from pathlib import Path


def _project(*pairs):
    return project_from_sources(list(pairs))


class TestResolution:
    def test_plain_call_same_module(self):
        p = _project(("m.py", "def g():\n    return 1\n\ndef f():\n    return g()\n"))
        edges = [e for e in p.edges if e.caller == "m.f"]
        assert edges and edges[0].callee == "m.g"

    def test_import_aware_cross_module(self):
        p = _project(
            ("helpers.py", "def claim(rows, parent):\n    parent[rows] = 1\n"),
            ("engine.py", "import helpers\n\ndef f(rows, parent):\n    helpers.claim(rows, parent)\n"),
        )
        edges = [e for e in p.edges if e.caller == "engine.f"]
        assert edges[0].callee == "helpers.claim"

    def test_from_import_cross_module(self):
        p = _project(
            ("helpers.py", "def claim(rows, parent):\n    parent[rows] = 1\n"),
            ("engine.py", "from helpers import claim\n\ndef f(rows, parent):\n    claim(rows, parent)\n"),
        )
        edges = [e for e in p.edges if e.caller == "engine.f"]
        assert edges[0].callee == "helpers.claim"

    def test_method_dispatch_via_annotation(self):
        src = (
            "class Engine:\n"
            "    def run(self, g):\n"
            "        return g\n"
            "\n"
            "def drive(eng: Engine, g):\n"
            "    return eng.run(g)\n"
        )
        p = _project(("m.py", src))
        edges = [e for e in p.edges if e.caller == "m.drive"]
        assert edges[0].callee == "m.Engine.run"
        assert edges[0].receiver == "eng"

    def test_method_dispatch_via_ctor_local(self):
        src = (
            "class Engine:\n"
            "    def run(self, g):\n"
            "        return g\n"
            "\n"
            "def drive(g):\n"
            "    eng = Engine()\n"
            "    return eng.run(g)\n"
        )
        p = _project(("m.py", src))
        callees = {e.callee for e in p.edges if e.caller == "m.drive"}
        assert "m.Engine.run" in callees

    def test_nested_scope_resolves_innermost(self):
        src = (
            "def outer():\n"
            "    def helper():\n"
            "        return 1\n"
            "    return helper()\n"
            "\n"
            "def helper():\n"
            "    return 2\n"
        )
        p = _project(("m.py", src))
        edges = [e for e in p.edges if e.caller == "m.outer"]
        assert edges[0].callee == "m.outer.helper"

    def test_dispatch_edges_marked(self):
        src = (
            "def level(pool, frontier, parent):\n"
            "    def scan(chunk):\n"
            "        return chunk\n"
            "    return list(pool.map(scan, frontier))\n"
        )
        p = _project(("m.py", src))
        dispatch = [e for e in p.edges if e.dispatch]
        assert dispatch and dispatch[0].callee == "m.level.scan"
        assert dispatch[0].caller == "m.level"


class TestFixpoint:
    CHAIN = (
        "def _claim(rows, parent, depth):\n"
        "    parent[rows] = depth\n"
        "\n"
        "def level(frontier, parent, depth):\n"
        "    _claim(frontier, parent, depth)\n"
        "\n"
        "def outer(frontier, parent, depth):\n"
        "    level(frontier, parent, depth)\n"
        "\n"
        "def outermost(frontier, parent, depth):\n"
        "    outer(frontier, parent, depth)\n"
    )

    def test_writes_reach_arbitrary_depth(self):
        p = _project(("m.py", self.CHAIN))
        assert "parent" in p.summaries["m.outer"].writes
        assert "parent" in p.summaries["m.outermost"].writes

    def test_raises_propagate_across_modules(self):
        p = _project(
            ("low.py", "def step(v):\n    raise ValueError(v)\n"),
            ("mid.py", "import low\n\ndef drive(v):\n    return low.step(v)\n"),
            ("top.py", "import mid\n\ndef entry(v):\n    return mid.drive(v)\n"),
        )
        assert p.summaries["mid.drive"].raises
        assert p.summaries["top.entry"].raises

    def test_recursion_terminates(self):
        src = (
            "def ping(a, n):\n"
            "    a[n] = 0\n"
            "    return pong(a, n - 1)\n"
            "\n"
            "def pong(a, n):\n"
            "    return ping(a, n - 1)\n"
        )
        p = _project(("m.py", src))
        assert "a" in p.summaries["m.ping"].writes
        assert "a" in p.summaries["m.pong"].writes
        assert p.rounds < 100  # bounded, not spinning

    def test_returns_ws_chains(self):
        src = (
            "def _grab(ws, k):\n"
            "    return ws.buffer(k)\n"
            "\n"
            "def _mid(ws, k):\n"
            "    return _grab(ws, k)\n"
            "\n"
            "def view(workspace, k):\n"
            "    return _mid(workspace, k)\n"
        )
        p = _project(("m.py", src))
        assert p.summaries["m.view"].returns_ws


class TestQueries:
    def test_who_writes_workspace_target(self):
        src = (
            "def fill(ws, depth):\n"
            "    ws.parent[:] = depth\n"
            "\n"
            "def run(workspace, depth):\n"
            "    fill(workspace, depth)\n"
        )
        p = _project(("m.py", src))
        assert set(p.who_writes("workspace.parent")) == {"m.fill", "m.run"}

    def test_reachable_and_callers(self):
        p = _project(("m.py", TestFixpoint.CHAIN))
        assert "m._claim" in p.reachable_from("m.outermost")
        assert p.callers_of("m._claim") == {"m.level", "m.outer", "m.outermost"}

    def test_cycles_detects_mutual_recursion(self):
        src = (
            "def ping(n):\n    return pong(n - 1)\n"
            "\n"
            "def pong(n):\n    return ping(n - 1)\n"
        )
        p = _project(("m.py", src))
        comps = p.cycles()
        assert any(set(c) == {"m.ping", "m.pong"} for c in comps)


class TestExports:
    def test_dot_smoke(self):
        p = _project(("m.py", TestFixpoint.CHAIN))
        dot = p.to_dot()
        assert dot.startswith("digraph callgraph {")
        assert '"m.outer" -> "m.level"' in dot

    def test_json_schema_and_summaries(self):
        p = _project(("m.py", TestFixpoint.CHAIN))
        payload = json.loads(p.to_json(summaries=True))
        assert payload["schema"] == "repro.analysis.callgraph/1"
        assert payload["stats"]["functions"] == 4
        assert "parent" in payload["summaries"]["m.outer"]["writes"]

    def test_stats_counts_resolution(self):
        p = _project(("m.py", TestFixpoint.CHAIN))
        stats = p.stats()
        assert stats["modules"] == 1
        assert stats["resolved_edges"] == 3


class TestCacheAndRecords:
    def test_record_round_trip(self):
        rec = extract_module("m.py", TestFixpoint.CHAIN)
        back = record_from_dict(record_to_dict(rec))
        assert back == rec

    def test_record_keeps_the_noqa_map(self):
        src = (
            "def f(pool):\n"
            "    x = (1 +  # repro: noqa[RPR015]\n"
            "         2)\n"
            "    return x  # repro: noqa\n"
        )
        rec = extract_module("m.py", src)
        assert rec.noqa == ((2, ("RPR015",)), (3, ("RPR015",)), (4, None))
        assert record_from_dict(record_to_dict(rec)) == rec

    def test_summary_cache_round_trip(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        src_file = tmp_path / "m.py"
        src_file.write_text(TestFixpoint.CHAIN, encoding="utf-8")

        cache = SummaryCache(cache_file)
        build_project([src_file], cache=cache)
        cache.save()
        assert cache_file.exists()

        # Drop the in-process cache so the disk cache must serve the hit
        # (simulates a fresh interpreter, e.g. a new CI step).
        from repro.analysis import callgraph as cg

        cg._MEMORY_CACHE.clear()
        fresh = SummaryCache(cache_file)
        p = build_project([src_file], cache=fresh)
        assert fresh.hits == 1 and fresh.misses == 0
        assert "parent" in p.summaries[f"{module_name_for(src_file)}.outer"].writes

    def test_version_bump_invalidates_warm_cache(
        self, tmp_path, monkeypatch
    ):
        """A rule/extraction upgrade (ANALYSIS_VERSION bump) must treat
        every cached record as stale even when file hashes match —
        stale summaries surviving a rule upgrade would silently pin the
        old semantics."""
        from repro.analysis import callgraph as cg

        cache_file = tmp_path / "cache.json"
        src_file = tmp_path / "m.py"
        src_file.write_text(TestFixpoint.CHAIN, encoding="utf-8")

        cache = SummaryCache(cache_file)
        build_project([src_file], cache=cache)
        cache.save()

        cg._MEMORY_CACHE.clear()
        warm = SummaryCache(cache_file)
        build_project([src_file], cache=warm)
        assert warm.hits == 1 and warm.misses == 0

        # same content, newer analyzer: the warm cache must miss
        cg._MEMORY_CACHE.clear()
        monkeypatch.setattr(cg, "ANALYSIS_VERSION", cg.ANALYSIS_VERSION + 1)
        bumped = SummaryCache(cache_file)
        build_project([src_file], cache=bumped)
        assert bumped.hits == 0 and bumped.misses == 1
        # and the re-extracted record lands under the new key
        bumped.save()
        blob = json.loads(cache_file.read_text(encoding="utf-8"))
        versions = {key.rsplit(":", 1)[1] for key in blob["records"]}
        assert f"v{cg.ANALYSIS_VERSION}" in versions

    def test_build_project_skips_broken_files(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("def f():\n    return 1\n", encoding="utf-8")
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        p = build_project([good, bad])
        assert len(p.modules) == 1

    def test_build_project_empty_raises(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        with pytest.raises(CallGraphError):
            build_project([bad])


class TestModuleNames:
    def test_package_walk(self):
        path = Path("src/repro/bfs/hybrid.py")
        assert module_name_for(path) == "repro.bfs.hybrid"

    def test_loose_file_uses_stem(self, tmp_path):
        loose = tmp_path / "scratch.py"
        loose.write_text("x = 1\n", encoding="utf-8")
        assert module_name_for(loose) == "scratch"
