"""Lint registrations for the typestate tier (RPR022–RPR026).

Thin adapters: all the work happens in
:func:`repro.analysis.typestate.interp.typestate_report`, which runs
the protocol abstract interpreter once per
:class:`~repro.analysis.callgraph.Project` and buckets findings by
``code -> path``.  Each rule callback just surfaces its bucket for the
module being linted, so the usual ``# repro: noqa[RPR02x]`` and
baseline machinery apply unchanged.

========  ==============================================================
RPR022    frame-protocol ordering: frames sent before hello / after
          the close handshake, or a clean exit that never sends
          ``metrics_final``/``bye``
RPR023    use of a closed/undrained handle (``Collector``,
          ``ChannelExporter``, ``FlightRecorder``)
RPR024    a workspace result still live (read later or escaped) when
          the workspace is re-lent to another traversal
RPR025    a raise-capable path on which an open protocol can never
          reach an accepting state (interprocedural; builds on RPR015's
          raise facts, judged against the protocol machine instead of
          a close-call grep)
RPR026    a spawned child whose call path can emit frames without a
          conformant hello→…→bye handshake (tightens RPR021)
========  ==============================================================
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from repro.analysis.callgraph import Project, project_from_sources
from repro.analysis.lint import ModuleContext, rule
from repro.analysis.typestate.interp import typestate_report
from repro.errors import CallGraphError

__all__: list[str] = []


@lru_cache(maxsize=64)
def _single_file_project(ctx: ModuleContext) -> Project | None:
    try:
        return project_from_sources([(ctx.path, ctx.source)])
    except CallGraphError:
        return None


def _yield_for(
    ctx: ModuleContext, code: str
) -> Iterator[tuple[int, int, str]]:
    project = getattr(ctx, "project", None)
    if not isinstance(project, Project):
        project = _single_file_project(ctx)
    if project is None:
        return
    report = typestate_report(
        project, extra_sources={ctx.path: ctx.source}
    )
    yield from report.get(code, {}).get(ctx.path, [])


@rule(
    "RPR022",
    "live-channel frame-protocol ordering violation "
    "(frames before hello / after bye, or no metrics_final on exit)",
    deep=True,
    whole_program=True,
)
def _check_rpr022(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR022")


@rule(
    "RPR023",
    "use of a closed or undrained handle "
    "(Collector/ChannelExporter/FlightRecorder)",
    deep=True,
    whole_program=True,
)
def _check_rpr023(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR023")


@rule(
    "RPR024",
    "workspace re-lent to a traversal while a previous result "
    "still aliases its arrays",
    deep=True,
    whole_program=True,
)
def _check_rpr024(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR024")


@rule(
    "RPR025",
    "raise-capable path on which an open protocol can never reach "
    "an accepting state",
    deep=True,
    whole_program=True,
)
def _check_rpr025(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR025")


@rule(
    "RPR026",
    "spawned child whose call path can emit frames without a "
    "conformant handshake",
    deep=True,
    whole_program=True,
)
def _check_rpr026(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR026")
