"""Plan-driven traversal: run a real BFS under a per-level plan.

The simulated machine prices plans from counters alone; this executor
closes the loop by *actually traversing* the graph with the kernels the
plan prescribes (top-down expansion or bottom-up scan per level,
devices affecting only the simulated clock) and verifying the plan's
depth matches reality.  Used by examples and by the differential tests
that check plan-priced counters equal live-kernel counters.
"""

from __future__ import annotations

import numpy as np

from repro.arch.machine import PlanStep, SimReport, SimulatedMachine
from repro.bfs.hybrid import run_level
from repro.bfs.profiler import profile_bfs
from repro.bfs.result import BFSResult
from repro.bfs.workspace import BFSWorkspace
from repro.errors import PlanError
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer, get_tracer

__all__ = ["execute_plan", "annotate_sim_report"]


def annotate_sim_report(tracer: Tracer, report: SimReport) -> None:
    """Lay a :class:`SimReport`'s schedule onto the tracer as synthetic
    spans on simulated-clock tracks.

    Each level becomes a ``sim.level`` span on track ``sim:<device>``
    and each non-zero handoff a ``sim.transfer`` span on
    ``sim:transfer``; timestamps are the *simulator's* cumulative
    seconds (via :meth:`~repro.obs.Tracer.add_span`), so the exported
    trace shows the simulated device schedule as its own row group next
    to the real wall-clock rows.  No-op on a disabled tracer.
    """
    if not tracer.enabled:
        return
    t = 0.0
    for i, step in enumerate(report.steps):
        xfer = float(report.transfer_seconds[i])
        if xfer > 0:
            tracer.add_span(
                "sim.transfer", t, t + xfer, track="sim:transfer", level=i
            )
            t += xfer
        dur = float(report.level_seconds[i])
        tracer.add_span(
            "sim.level",
            t,
            t + dur,
            track=f"sim:{step.device}",
            level=i,
            device=step.device,
            direction=step.direction,
        )
        t += dur


def execute_plan(
    machine: SimulatedMachine,
    graph: CSRGraph,
    source: int,
    plan: list[PlanStep],
    *,
    workspace: BFSWorkspace | None = None,
    tracer: Tracer | None = None,
) -> tuple[BFSResult, SimReport]:
    """Traverse ``graph`` from ``source`` following ``plan``.

    Each level runs the direction the plan prescribes with the real
    vectorized kernel; the returned :class:`SimReport` prices the same
    levels on the plan's devices.  Raises
    :class:`~repro.errors.PlanError` when the plan is shorter or longer
    than the traversal it claims to describe.

    ``tracer`` overrides the process-global tracer: each level's real
    wall time lands on a per-device track (``dev:<name>``) and the
    priced schedule is appended as simulated-clock spans
    (:func:`annotate_sim_report`).

    Plan execution is single-threaded: this function is the sole owner
    of ``workspace`` (parent/level maps, frontier bitmap, scratch) for
    the duration of the call.  The returned result aliases the
    workspace arrays until ``detach()``, exactly like the other engines
    (deep lint rule ``RPR011`` guards post-return writes).
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise PlanError(f"source {source} out of range [0, {n})")
    tr = tracer if tracer is not None else get_tracer()

    ws = workspace if workspace is not None else BFSWorkspace(n)
    parent, level = ws.begin(source)
    frontier = np.array([source], dtype=np.int64)

    directions: list[str] = []
    edges_examined: list[int] = []
    depth = 0
    with tr.span("hetero.execute_plan", source=source, levels=len(plan)):
        while frontier.size:
            if depth >= len(plan):
                raise PlanError(
                    f"plan has {len(plan)} levels but the traversal reached "
                    f"level {depth + 1}"
                )
            step = plan[depth]
            fv = int(frontier.size)
            with tr.span(
                "hetero.level",
                track=f"dev:{step.device}",
                depth=depth,
                device=step.device,
                direction=step.direction,
            ) as sp:
                frontier, work = run_level(
                    graph, ws, frontier, depth, step.direction
                )
                sp.set("frontier_vertices", fv)
                sp.set("edges_examined", work)
                sp.set("claimed", int(frontier.size))
            directions.append(step.direction)
            edges_examined.append(work)
            depth += 1
        if depth != len(plan):
            raise PlanError(
                f"plan has {len(plan)} levels but the traversal finished "
                f"after {depth}"
            )

    result = BFSResult(
        source=source,
        parent=parent,
        level=level,
        directions=directions,
        edges_examined=edges_examined,
    )
    # Price the identical traversal (counters re-measured for fidelity).
    profile, _ = profile_bfs(graph, source)
    report = machine.run(profile, plan)
    annotate_sim_report(tr, report)
    return result, report
