"""Tiny-scale smoke tests for the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layers import TIME_LAYERS  # noqa: E402
from repro.hetero import CrossRun  # noqa: E402

SCALE = 9
WORKLOADS = ("graph500", "cross")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Counts that depend only on the seed, never on timing.
EXACT = (
    "generators.edges",
    "csr.directed_edges",
    "csr.nbytes",
    "hybrid.td_levels",
    "hybrid.bu_levels",
    "hybrid.edges_examined",
    "hybrid.examined_per_traversed",
    "validate.failures",
    "profiler.levels",
    "predictor.calls",
    "arch.sim_transfer_s",
    "cross.sim_gteps_hmean",
)

_runs: dict[tuple, dict] = {}


def run(workload: str, trace: int, seed: int = 5, repeat: int = 0) -> dict:
    """The parsed result line of one tiny run (cached per arguments)."""
    key = (workload, trace, seed, repeat)
    if key not in _runs:
        out = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
                "--scale", str(SCALE),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        lines = out.stdout.splitlines()
        record = json.loads(lines[-2])["record"]
        assert record["seed"] == seed
        assert set(record["host"]) == {"nproc", "cpu", "python", "numpy"}
        _runs[key] = json.loads(lines[-1])
    return _runs[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_unit(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = run(workload, 1)["metrics"]
    second = run(workload, 1, repeat=1)["metrics"]
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_bypassed_layers_stay_idle():
    """Each workload exercises its own layers and bypasses the others."""
    g500 = run("graph500", 1)["metrics"]
    cross = run("cross", 1)["metrics"]
    assert g500["hybrid.edges_examined"]["value"] > 0
    assert g500["validate.check_bfs_s"]["value"] > 0
    assert cross["cross.sim_gteps_hmean"]["value"] > 0
    assert cross["predictor.calls"]["value"] > 0
    assert cross["hybrid.edges_examined"]["value"] == 0
    assert cross["validate.check_bfs_s"]["value"] == 0
    assert g500["profiler.levels"]["value"] == 0
    assert g500["predictor.calls"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_reconcile_to_traced_time(workload):
    m = {k: v["value"] for k, v in run(workload, 1)["metrics"].items()}
    layers = sum(m[name] for name in TIME_LAYERS)
    assert layers + m["bench.unattributed_s"] == pytest.approx(m["bench.traced_s"])
    assert m["bench.unattributed_s"] >= 0
    parts = m["hybrid.pre_level_s"] + m["hybrid.td_level_s"] + m["hybrid.bu_level_s"]
    assert m["hybrid.bfs_s"] == pytest.approx(parts)


# -- planted defects: the output checks must catch a bad result ---------


def _corrupt(level: np.ndarray) -> np.ndarray:
    """A level map with one reached vertex moved two levels deeper."""
    bad = level.copy()
    reached = np.nonzero(bad > 0)[0]
    bad[reached[0]] += 2
    return bad


def test_graph500_counts_corrupted_level_map_as_failed(monkeypatch):
    wl = workloads.Graph500(seed=1, scale=SCALE)
    plain = wl.engine

    def corrupting_engine():
        engine = plain()

        def call(graph, source):
            result = engine(graph, source).detach()
            result.level = _corrupt(result.level)
            return result

        return call

    monkeypatch.setattr(wl, "engine", corrupting_engine)
    tally = workloads.Tally()
    wl.round(tally, 0)
    assert tally.attempted == workloads.NUM_ROOTS
    assert tally.failed == tally.attempted


def test_cross_counts_corrupted_level_map_as_failed(monkeypatch):
    wl = workloads.Cross(seed=1, scale=SCALE)
    wl.setup()
    real = wl.runtime.run

    def corrupted(graph, root):
        out = real(graph, root)
        out.result.level = _corrupt(out.result.level)
        return CrossRun(out.result, out.report, out.m1, out.n1, out.m2, out.n2)

    monkeypatch.setattr(wl.runtime, "run", corrupted)
    tally = workloads.Tally()
    wl.round(tally, 0)
    assert tally.attempted == workloads.CROSS_ROUND
    assert tally.failed == tally.attempted


def test_graph500_teps_counts_only_traversal_time():
    """Graph 500 TEPS divide by the BFS time, not the flow's wall time."""
    wl = workloads.Graph500(seed=1, scale=SCALE)
    tally = workloads.Tally()
    wl.round(tally, 0)
    edges = sum(tally.op_edges)
    assert tally.round_teps == [pytest.approx(edges / sum(tally.op_seconds))]
    assert tally.round_teps[0] > edges / tally.round_seconds[0]
