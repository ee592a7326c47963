"""Per-layer timing for the traced run, measured from outside the library.

The traced run patches public functions of :mod:`repro` for each traced
phase and restores them afterwards; the untraced run never imports this
module, so the end-to-end numbers carry no instrumentation.  Each
patched call is a span.  A span's *self time* (its duration minus the
time its patched children took) is charged to its layer, so the layer
times, plus ``bench.unattributed_s``, add up to the time the traced
regions took.

Spans only record inside :meth:`LayerTracer.region`: the benchmark wraps
each timed call in a region, so its own output checks, which call some
of the same functions, stay out of the layer times.

The hybrid's levels are split through the public ``policy=`` argument of
:func:`repro.bfs.bfs_hybrid`: :class:`TimingPolicy` wraps the engine's
``MNPolicy(20, 100)`` and charges the gap between successive
``direction()`` calls to the direction chosen at the first of them.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import repro.bench.experiments._shared as shared
import repro.graph.generators as generators
import repro.graph.validate as validate
import repro.graph500 as graph500
import repro.hetero.cross as cross
import repro.tuning.training as training
from repro.arch.machine import SimulatedMachine
from repro.bfs.hybrid import MNPolicy, bfs_hybrid
from repro.bfs.result import BFSResult, Direction
from repro.bfs.workspace import BFSWorkspace
from repro.graph.csr import CSRGraph
from repro.graph500 import HybridEngine
from repro.tuning.predictor import SwitchingPointPredictor

__all__ = ["TIME_LAYERS", "LayerTracer", "TimingPolicy", "TracedHybridEngine"]

#: Layers whose self times partition the traced time (with the
#: unattributed rest).  ``hybrid.bfs_s`` is their hybrid sum, reported
#: beside them but not added again.
TIME_LAYERS = (
    "generators.rmat_edges_s",
    "csr.from_edges_s",
    "hybrid.pre_level_s",
    "hybrid.td_level_s",
    "hybrid.bu_level_s",
    "validate.check_bfs_s",
    "csr.edge_list_s",
    "result.traversed_edges_s",
    "profiler.profile_bfs_s",
    "training.corpus_s",
    "predictor.fit_s",
    "predictor.predict_mn_s",
    "planner.cross_plan_s",
    "arch.machine_run_s",
)


def _count_edges(counts, out) -> None:
    counts["generators.edges"] += int(out[0].size)


def _count_graph(counts, graph) -> None:
    counts["csr.directed_edges"] += graph.num_directed_edges
    counts["csr.nbytes"] += graph.offsets.nbytes + graph.targets.nbytes


def _count_failures(counts, failures) -> None:
    counts["validate.failures"] += len(failures)


def _count_profile(counts, out) -> None:
    counts["profiler.levels"] += len(out[0])


def _count_prediction(counts, out) -> None:
    counts["predictor.calls"] += 1


def _count_sim(counts, report) -> None:
    counts["arch.sim_transfer_s"] += float(report.transfer_seconds.sum())


# (owner, attribute, layer, counter).  Functions bound by ``from ...
# import`` into another module are patched there too, because that is
# the name the caller looks up.
_PATCHES = (
    (generators, "rmat_edges", "generators.rmat_edges_s", _count_edges),
    (graph500, "rmat_edges", "generators.rmat_edges_s", _count_edges),
    (CSRGraph, "from_edges", "csr.from_edges_s", _count_graph),
    (validate, "check_bfs", "validate.check_bfs_s", _count_failures),
    (CSRGraph, "edge_list", "csr.edge_list_s", None),
    (BFSResult, "traversed_edges", "result.traversed_edges_s", None),
    (cross, "profile_bfs", "profiler.profile_bfs_s", _count_profile),
    (training, "profile_bfs", "profiler.profile_bfs_s", _count_profile),
    (shared, "corpus_graphs", "training.corpus_s", None),
    (training, "build_training_set", "training.corpus_s", None),
    (SwitchingPointPredictor, "fit", "predictor.fit_s", None),
    (SwitchingPointPredictor, "predict_mn", "predictor.predict_mn_s",
     _count_prediction),
    (cross, "cross_plan", "planner.cross_plan_s", None),
    (SimulatedMachine, "run", "arch.machine_run_s", _count_sim),
)


class LayerTracer:
    """Accumulates per-layer self times and counts while installed.

    Use as a context manager: entering patches the library, leaving
    restores every original attribute.  :meth:`take` returns and resets
    what has been accumulated, so a caller can separate phases.
    """

    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.traced_seconds = 0.0
        self.active = False
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # -- spans --------------------------------------------------------------

    @contextmanager
    def region(self):
        """Mark one timed call as traced."""
        self.active = True
        start = perf_counter()
        try:
            yield
        finally:
            self.traced_seconds += perf_counter() - start
            self.active = False

    def hybrid_engine(self) -> "TracedHybridEngine":
        """A hybrid engine whose levels are charged to this tracer."""
        return TracedHybridEngine(self)

    def leaf(self, layer: str, seconds: float) -> None:
        """Charge an interval measured elsewhere to ``layer``, as a child
        of the enclosing span."""
        self.seconds[layer] += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    def _wrap(self, fn, layer: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                took = perf_counter() - frame[0]
                tracer.seconds[layer] += took - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += took
            if counter is not None:
                counter(tracer.counts, out)
            return out

        return traced

    # -- install / restore --------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        for owner, attr, layer, counter in _PATCHES:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(
                    owner, attr,
                    classmethod(self._wrap(raw.__func__, layer, counter)),
                )
            else:
                setattr(owner, attr, self._wrap(raw, layer, counter))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def take(self) -> dict[str, float]:
        """Everything accumulated since the last call, then reset."""
        out = {name: 0.0 for name in TIME_LAYERS}
        out.update(self.seconds)
        out.update(self.counts)
        out["bench.traced_s"] = self.traced_seconds
        self.seconds.clear()
        self.counts.clear()
        self.traced_seconds = 0.0
        return out


class TimingPolicy:
    """A :class:`~repro.bfs.hybrid.DirectionPolicy` that times levels.

    Delegates every decision to ``inner``.  :meth:`begin` and
    :meth:`end` bracket one traversal; the interval before the first
    decision is the pre-level set-up, and each later interval belongs
    to the level whose direction opened it.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.parts = {"pre": 0.0, Direction.TOP_DOWN: 0.0, Direction.BOTTOM_UP: 0.0}

    def begin(self) -> None:
        for key in self.parts:
            self.parts[key] = 0.0
        self._open = "pre"
        self._since = perf_counter()

    def direction(self, state) -> str:
        now = perf_counter()
        self.parts[self._open] += now - self._since
        self._open = self.inner.direction(state)
        self._since = now
        return self._open

    def end(self) -> None:
        self.parts[self._open] += perf_counter() - self._since


class TracedHybridEngine:
    """The traced twin of :class:`repro.graph500.HybridEngine`.

    Runs :func:`~repro.bfs.bfs_hybrid` with the same workspace reuse and
    thresholds, through :class:`TimingPolicy`, and keeps each traversal's
    ``directions``, ``edges_examined`` and a digest of ``level`` so
    :meth:`verify` can check them against the untraced engine.
    """

    def __init__(self, tracer: LayerTracer, m: float = 20.0, n: float = 100.0):
        self.tracer = tracer
        self.m = m
        self.n = n
        self.policy = TimingPolicy(MNPolicy(m, n))
        self.graph: CSRGraph | None = None
        self.runs: list[tuple] = []
        self._workspace: BFSWorkspace | None = None

    def __call__(self, graph: CSRGraph, source: int) -> BFSResult:
        ws = self._workspace
        if ws is None or ws.num_vertices != graph.num_vertices:
            ws = BFSWorkspace.for_graph(graph)
            self._workspace = ws
        self.graph = graph
        policy = self.policy
        policy.begin()
        result = bfs_hybrid(graph, source, policy=policy, workspace=ws)
        policy.end()
        tracer = self.tracer
        if tracer.active:
            parts = policy.parts
            tracer.leaf("hybrid.pre_level_s", parts["pre"])
            tracer.leaf("hybrid.td_level_s", parts[Direction.TOP_DOWN])
            tracer.leaf("hybrid.bu_level_s", parts[Direction.BOTTOM_UP])
            counts = tracer.counts
            counts["hybrid.td_levels"] += result.directions.count(Direction.TOP_DOWN)
            counts["hybrid.bu_levels"] += result.directions.count(Direction.BOTTOM_UP)
            counts["hybrid.edges_examined"] += sum(result.edges_examined)
        self.runs.append(
            (
                source,
                list(result.directions),
                list(result.edges_examined),
                level_digest(result.level),
            )
        )
        return result

    def verify(self) -> int:
        """Re-run every recorded root on the untraced
        :class:`~repro.graph500.HybridEngine`; return how many differ in
        ``directions``, ``edges_examined`` or ``level``.

        Also counts the traversed edges behind
        ``hybrid.examined_per_traversed``.
        """
        plain = HybridEngine(self.m, self.n)
        mismatches = 0
        for source, directions, examined, digest in self.runs:
            result = plain(self.graph, source)
            if (
                result.directions != directions
                or result.edges_examined != examined
                or level_digest(result.level) != digest
            ):
                mismatches += 1
            self.tracer.counts["hybrid.traversed_edges"] += result.traversed_edges(
                self.graph
            )
        return mismatches


def level_digest(level) -> bytes:
    """Content hash of a level map (cheaper to keep than a copy)."""
    return hashlib.blake2b(level.tobytes(), digest_size=16).digest()
