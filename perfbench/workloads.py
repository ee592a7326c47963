"""The benchmark workloads.

Every workload is a closed loop in one process and one thread: the next
root starts only when the previous one has returned.  All use
R-MAT graphs (Graph 500 parameters) at ``scale`` with edgefactor 16,
generated from the run's seed.  Round ``i`` draws its inputs from
:meth:`Workload.input_seed`, so later rounds widen the sample of graphs
and roots behind a run's medians; round 0's graph and roots are shared
by both workloads.

* ``graph500`` -- the paper's evaluation protocol, exactly what
  ``repro-bfs graph500`` runs: generation, kernel 1 and 64 hybrid
  traversals, each validated by the Graph 500 checks inside
  :func:`repro.graph500.run_graph500`.
* ``cross`` -- the paper's Algorithm 3 over the same 64 roots, with a
  switching-point predictor trained in set-up.  It never runs
  ``bfs_hybrid`` or the validator inside its timed calls.

A workload's ``setup()`` builds everything its rounds need; ``round()``
runs one unit of timed work into a :class:`Tally`.  Output checks run
between timed calls and never inside them.
"""

from __future__ import annotations

import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro.bench.experiments._shared as shared
import repro.graph.generators as generators
import repro.graph.validate as validate
import repro.tuning.training as training
from repro.arch import CPU_SANDY_BRIDGE, GPU_K20X, MIC_KNC, SimulatedMachine
from repro.bench.runner import BenchConfig
from repro.bfs import pick_sources
from repro.graph.csr import CSRGraph
from repro.graph500 import HybridEngine, run_graph500
from repro.hetero import CrossArchitectureBFS
from repro.tuning import SwitchingPointPredictor

__all__ = ["WORKLOADS", "Tally", "Graph500", "Cross"]

SCALE = 16
EDGEFACTOR = 16
NUM_ROOTS = 64
#: Roots per ``cross`` round: a quarter of graph500's 64, so a run holds
#: enough rounds for its median to shrug off a slow spell of the host.
CROSS_ROUND = 16
#: The predictor's training corpus: small graphs, one seed, so set-up
#: stays near a second and a half while covering every corpus family.
CORPUS = BenchConfig(base_scale=12, seeds=(0,))


@dataclass
class Tally:
    """What the timed calls of one run produced."""

    attempted: int = 0
    failed: int = 0
    #: Per operation (one root): seconds and traversed edges.
    op_seconds: list[float] = field(default_factory=list)
    op_edges: list[int] = field(default_factory=list)
    #: Per round: seconds of the timed calls, and traversed edges per
    #: second of the operations' own time.
    round_seconds: list[float] = field(default_factory=list)
    round_teps: list[float] = field(default_factory=list)
    #: Modelled Algorithm 3 GTEPS per root (``cross`` only).
    sim_gteps: list[float] = field(default_factory=list)

    def op(self, seconds: float, edges: int, ok: bool) -> None:
        """Record one checked operation."""
        self.attempted += 1
        self.op_seconds.append(seconds)
        self.op_edges.append(edges)
        if not ok:
            self.failed += 1

    def end_round(self, seconds: float, first_op: int) -> None:
        """Close a round whose operations start at ``first_op``; a round
        in which every call raised leaves no sample."""
        if len(self.op_seconds) > first_op:
            self.round_seconds.append(seconds)
            self.round_teps.append(
                sum(self.op_edges[first_op:]) / sum(self.op_seconds[first_op:])
            )

    def raised(self, ops: int) -> None:
        """Record ``ops`` operations lost to a call that raised."""
        traceback.print_exc(file=sys.stderr)
        self.attempted += ops
        self.failed += ops


class Workload:
    """Shared plumbing: seeded graph construction and timed calls."""

    name = ""
    #: Rounds every run makes, however short ``--seconds`` is.
    min_rounds = 1

    def __init__(self, seed: int, scale: int = SCALE) -> None:
        self.seed = seed
        self.scale = scale
        self.tracer = None  # a LayerTracer while a traced round runs

    def timed(self, tally: Tally, ops: int, call):
        """Run ``call()`` as one timed call, traced when a tracer is set.

        Returns ``(result, seconds)``, or ``None`` after counting ``ops``
        failed operations if the call raised.
        """
        region = nullcontext() if self.tracer is None else self.tracer.region()
        try:
            with region:
                t0 = perf_counter()
                out = call()
                took = perf_counter() - t0
        except Exception:
            tally.raised(ops)
            return None
        return out, took

    def input_seed(self, index: int) -> int:
        """Generator seed of round ``index``'s inputs."""
        return self.seed * 1000 + index

    def build_graph(self) -> None:
        """Generate round 0's R-MAT graph (kernel 1 included)."""
        src, dst = generators.rmat_edges(
            self.scale, EDGEFACTOR, seed=self.input_seed(0)
        )
        self.graph = CSRGraph.from_edges(src, dst, 1 << self.scale, symmetrize=True)

    def setup(self) -> None:
        """Prepare the rounds."""
        raise NotImplementedError

    def round(self, tally: Tally, index: int) -> None:
        """One unit of timed work on round ``index``'s inputs."""
        raise NotImplementedError


class Graph500(Workload):
    """``run_graph500(scale, 16, num_roots=64, engine=HybridEngine())``."""

    name = "graph500"
    min_rounds = 3

    def engine(self):
        """The flow's engine: ``HybridEngine()``, or its traced twin."""
        return HybridEngine() if self.tracer is None else self.tracer.hybrid_engine()

    def setup(self) -> None:
        # Warm-up: the whole flow at full size with a few roots, so lazy
        # imports and the allocator's first growth to a graph-sized heap
        # stay out of the timed rounds (a cold first round ran ~15% slow).
        run_graph500(
            self.scale, EDGEFACTOR, num_roots=4, engine=self.engine(),
            seed=self.input_seed(0),
        )

    def round(self, tally: Tally, index: int) -> None:
        engine = self.engine()
        # A traversal failing validation raises inside the flow; the
        # round's roots then all count as failed.
        timed = self.timed(
            tally, NUM_ROOTS,
            lambda: run_graph500(
                self.scale, EDGEFACTOR, num_roots=NUM_ROOTS, engine=engine,
                seed=self.input_seed(index),
            ),
        )
        if timed is None:
            return
        result, took = timed
        first = len(tally.op_seconds)
        edges = result.teps * result.bfs_seconds
        for seconds, traversed in zip(result.bfs_seconds, edges):
            tally.op(float(seconds), int(round(traversed)), True)
        tally.end_round(took, first)
        if self.tracer is not None:
            # The traced engine must match the untraced one root by root.
            tally.failed += engine.verify()


class Cross(Workload):
    """Algorithm 3: ``CrossArchitectureBFS(...).run(graph, root)``."""

    name = "cross"
    min_rounds = 4

    def setup(self) -> None:
        self.build_graph()
        self.runtime = CrossArchitectureBFS(
            SimulatedMachine({"cpu": CPU_SANDY_BRIDGE, "gpu": GPU_K20X, "mic": MIC_KNC}),
            train_predictor(),
        )
        # Warm-up on a few roots, as for graph500: without it the first
        # timed round paid the heap's growth to graph-sized profiles.
        for root in pick_sources(self.graph, 4, seed=self.input_seed(0)).tolist():
            self.runtime.run(self.graph, root)

    def round(self, tally: Tally, index: int) -> None:
        graph = self.graph
        # A quarter of the 64 roots run_graph500 picks with seed block
        # ``index // 4``; rounds 0-3 cover graph500's round-0 roots.
        block, quarter = divmod(index, NUM_ROOTS // CROSS_ROUND)
        roots = pick_sources(graph, NUM_ROOTS, seed=self.input_seed(block) + 1)
        roots = roots[quarter * CROSS_ROUND:(quarter + 1) * CROSS_ROUND]
        spent = 0.0
        first = len(tally.op_seconds)
        for root in roots.tolist():
            timed = self.timed(tally, 1, lambda: self.runtime.run(graph, root))
            if timed is None:
                continue
            run, took = timed
            spent += took
            ok = check_cross(graph, root, run)
            tally.op(took, run.result.traversed_edges(graph), ok)
            tally.sim_gteps.append(run.report.gteps)
        tally.end_round(spent, first)


def train_predictor() -> SwitchingPointPredictor:
    """Fit the Algorithm 3 predictor in process from the small corpus."""
    corpus = training.build_training_set(
        shared.corpus_graphs(CORPUS), shared.corpus_arch_pairs(),
        seed=CORPUS.seeds[0],
    )
    return SwitchingPointPredictor().fit(corpus)


def check_cross(graph: CSRGraph, root: int, run) -> bool:
    """Graph 500 checks on the real traversal behind one Algorithm 3 run,
    plus a positive finite modelled rate."""
    result = run.result
    failures = validate.check_bfs(graph, root, result.parent, result.level)
    gteps = run.report.gteps
    return not failures and bool(np.isfinite(gteps)) and gteps > 0


WORKLOADS = {cls.name: cls for cls in (Graph500, Cross)}
