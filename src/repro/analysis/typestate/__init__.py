"""Typestate & protocol verification tier.

A declarative registry of protocol state machines
(:class:`~repro.analysis.typestate.spec.ProtocolSpec`) for the repo's
stateful contracts — the ``repro.obs.live/1`` frame handshake,
``ChannelExporter``, ``Collector``, ``FlightRecorder`` and
``BFSWorkspace`` lifecycles — plus an abstract
interpreter (:mod:`~repro.analysis.typestate.interp`) that checks
every function against those machines along the PR 6 call graph.
Registers lint rules RPR022–RPR026; the same machines power the
dynamic twin (:class:`repro.obs.live.ProtocolMonitor` and strict
capture conformance replay).
"""

from __future__ import annotations

from repro.analysis.typestate.interp import (
    TYPESTATE_RULES,
    TypestateAnalysis,
    typestate_report,
)
from repro.analysis.typestate.spec import (
    BFS_WORKSPACE,
    CHANNEL_EXPORTER,
    COLLECTOR,
    FLIGHT_RECORDER,
    LIVE_CHANNEL,
    PROTOCOLS,
    ProtocolSpec,
    all_ctor_names,
    get_protocol,
    protocol_for_ctor,
    protocol_for_type,
)

__all__ = [
    "BFS_WORKSPACE",
    "CHANNEL_EXPORTER",
    "COLLECTOR",
    "FLIGHT_RECORDER",
    "LIVE_CHANNEL",
    "PROTOCOLS",
    "ProtocolSpec",
    "TYPESTATE_RULES",
    "TypestateAnalysis",
    "all_ctor_names",
    "get_protocol",
    "protocol_for_ctor",
    "protocol_for_type",
    "typestate_report",
]
