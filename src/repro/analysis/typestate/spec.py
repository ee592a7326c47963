"""Declarative protocol state machines for the typestate tier.

A :class:`ProtocolSpec` is a finite state machine over the *lifecycle
events* of one kind of handle: constructor calls, method calls, and —
for the live telemetry stream — frame kinds.  The static typestate
interpreter (:mod:`repro.analysis.typestate.interp`) drives these
machines over abstract states per variable; the dynamic
:class:`~repro.obs.live.protocol.ProtocolMonitor` drives the *same*
machines over real method calls and captured frames, so every static
rule has a runtime twin proven on the same scenarios.

Built-in machines (:data:`PROTOCOLS`):

================  =========================================================
live-channel      the ``repro.obs.live/1`` frame handshake:
                  hello → spans/metrics → metrics_final → bye
channel-exporter  :class:`~repro.obs.live.channel.ChannelExporter`:
                  created → (hello) open → (close) closed
collector         :class:`~repro.obs.live.collector.Collector`:
                  created → (enter) attached → (exit) detached
flight-recorder   :class:`~repro.obs.profile.FlightRecorder` attach/detach
bfs-workspace     :class:`~repro.bfs.workspace.BFSWorkspace`:
                  idle → (begin/traverse) active → (result bound) lent
                  → (detach) active
================  =========================================================

Each machine carries the lint rule that owns its misuse findings
(``owner_rule``) and, where applicable, the rule reporting raise-path
incompleteness (``raise_rule``, RPR025).  Machines export to DOT via
:meth:`ProtocolSpec.to_dot` (``repro-bfs protocols --format dot``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import AnalysisError

__all__ = [
    "ProtocolSpec",
    "PROTOCOLS",
    "get_protocol",
    "protocol_for_ctor",
    "protocol_for_type",
    "all_ctor_names",
]


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol state machine.

    ``transitions`` is a tuple of ``(state, event, next_state)``
    triples; an event with no triple for the current state is a
    protocol violation.  ``method_events`` maps method *names* (as
    called on a handle) to event names; ``ctors`` are constructor leaf
    names that create a handle in the ``initial`` state.
    """

    name: str
    subject: str
    description: str
    states: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    transitions: tuple[tuple[str, str, str], ...]
    ctors: frozenset[str] = frozenset()
    classmethod_ctors: frozenset[str] = frozenset()
    method_events: tuple[tuple[str, str], ...] = ()
    enter_event: str | None = None
    exit_event: str | None = None
    #: Rule code that owns ordering/use-after-close findings.
    owner_rule: str | None = None
    #: Rule code for "a raise-capable path leaves the protocol unable
    #: to reach an accepting state" (None when another rule owns it,
    #: e.g. RPR015 already reports leaked thread pools).
    raise_rule: str | None = None
    #: Whether events are frame kinds (the live stream) rather than
    #: method calls on a Python object.
    frame_kinds: bool = False
    _table: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        table: dict[tuple[str, str], str] = {}
        for state, event, nxt in self.transitions:
            if state not in self.states or nxt not in self.states:
                raise AnalysisError(
                    f"protocol {self.name}: transition "
                    f"({state!r}, {event!r}, {nxt!r}) names an "
                    "undeclared state"
                )
            table[(state, event)] = nxt
        if self.initial not in self.states:
            raise AnalysisError(
                f"protocol {self.name}: initial state {self.initial!r} "
                "is not declared"
            )
        object.__setattr__(self, "_table", table)

    # -- stepping ------------------------------------------------------------

    def step(self, state: str, event: str) -> str | None:
        """Next state, or ``None`` when ``event`` violates the
        protocol in ``state``."""
        return self._table.get((state, event))

    def step_set(
        self, states: frozenset[str], event: str
    ) -> tuple[frozenset[str], bool]:
        """Step a *set* of possible states (the abstract lattice).

        Returns ``(next_states, ok)`` where ``ok`` is False when the
        event is a violation from **every** current state — the
        must-fail condition the static rules report on.
        """
        nxt = {self._table[(s, event)]
               for s in states if (s, event) in self._table}
        if not nxt:
            return states, False
        return frozenset(nxt), True

    def allowed(self, state: str) -> tuple[str, ...]:
        """Events legal in ``state``, sorted (for messages)."""
        return tuple(sorted(
            ev for (s, ev) in self._table if s == state
        ))

    def is_accepting(self, state: str) -> bool:
        """Whether a handle may legally end its life in ``state``."""
        return state in self.accepting

    def event_for_method(self, method: str) -> str | None:
        """The event a call to ``handle.method(...)`` signifies."""
        for name, event in self.method_events:
            if name == method:
                return event
        return None

    def events(self) -> tuple[str, ...]:
        """Every event named by any transition, sorted."""
        return tuple(sorted({ev for (_s, ev) in self._table}))

    # -- export --------------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready description (``repro-bfs protocols --format
        json``)."""
        return {
            "name": self.name,
            "subject": self.subject,
            "description": self.description,
            "states": list(self.states),
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "transitions": [list(t) for t in self.transitions],
            "events": list(self.events()),
            "owner_rule": self.owner_rule,
            "raise_rule": self.raise_rule,
        }

    def to_dot(self) -> str:
        """GraphViz DOT rendering: accepting states are double
        circles, the initial state gets an entry arrow."""
        lines = [
            f'digraph "{self.name}" {{',
            "  rankdir=LR;",
            '  __start [shape=point, label=""];',
        ]
        for state in self.states:
            shape = (
                "doublecircle" if state in self.accepting else "circle"
            )
            lines.append(f'  "{state}" [shape={shape}];')
        lines.append(f'  __start -> "{self.initial}";')
        by_pair: dict[tuple[str, str], list[str]] = {}
        for state, event, nxt in self.transitions:
            by_pair.setdefault((state, nxt), []).append(event)
        for (state, nxt), events in by_pair.items():
            label = ", ".join(events)
            lines.append(f'  "{state}" -> "{nxt}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _self_loops(
    states: Iterator[str] | tuple[str, ...], events: tuple[str, ...]
) -> tuple[tuple[str, str, str], ...]:
    return tuple(
        (state, event, state) for state in states for event in events
    )


#: The ``repro.obs.live/1`` frame handshake over one stream (keyed by
#: the frame ``source``).  ``span``/``event`` frames may trail into the
#: ``finalized`` state — a listener racing ``close()`` can land one
#: after ``metrics_final`` — but nothing follows ``bye``, nothing
#: precedes ``hello``, and ``bye`` without ``metrics_final`` means the
#: final registry merge was lost.
LIVE_CHANNEL = ProtocolSpec(
    name="live-channel",
    subject="repro.obs.live/1 frame stream",
    description=(
        "hello opens the stream, spans/events/metrics flow, "
        "metrics_final carries the exact registry merge, bye closes"
    ),
    states=("idle", "open", "streaming", "finalized", "closed"),
    initial="idle",
    accepting=frozenset({"closed"}),
    transitions=(
        ("idle", "hello", "open"),
        ("open", "span_open", "streaming"),
        ("open", "span", "streaming"),
        ("open", "event", "streaming"),
        ("open", "metrics", "streaming"),
        ("open", "metrics_final", "finalized"),
        ("streaming", "span_open", "streaming"),
        ("streaming", "span", "streaming"),
        ("streaming", "event", "streaming"),
        ("streaming", "metrics", "streaming"),
        ("streaming", "metrics_final", "finalized"),
        ("finalized", "span_open", "finalized"),
        ("finalized", "span", "finalized"),
        ("finalized", "event", "finalized"),
        ("finalized", "bye", "closed"),
    ),
    owner_rule="RPR022",
    frame_kinds=True,
)

#: ``ChannelExporter``: ``hello()`` before any frame flows, ``close()``
#: sends ``metrics_final`` + ``bye`` exactly once.  Flushing before
#: hello puts frames on the wire outside the handshake; flushing after
#: close is silently dropped telemetry.
CHANNEL_EXPORTER = ProtocolSpec(
    name="channel-exporter",
    subject="ChannelExporter",
    description=(
        "hello() opens the stream; flush() requires an open stream; "
        "close() finalizes (idempotent)"
    ),
    states=("created", "open", "closed"),
    initial="created",
    accepting=frozenset({"created", "closed"}),
    transitions=(
        ("created", "hello", "open"),
        ("open", "flush", "open"),
        ("open", "close", "closed"),
        ("closed", "close", "closed"),
    ),
    ctors=frozenset({"ChannelExporter"}),
    method_events=(
        ("hello", "hello"),
        ("flush", "flush"),
        ("close", "close"),
    ),
    owner_rule="RPR022",
    raise_rule="RPR025",
)

#: ``Collector``: attach with ``with``, drain with ``close()``, detach
#: on exit.  Watching or polling a detached collector silently loses
#: parent-side telemetry.
COLLECTOR = ProtocolSpec(
    name="collector",
    subject="Collector",
    description=(
        "context entry attaches to the tracer; watch/poll/replay need "
        "an attached (or not-yet-attached) collector; exit detaches"
    ),
    states=("created", "attached", "detached"),
    initial="created",
    accepting=frozenset({"created", "detached"}),
    transitions=(
        ("created", "enter", "attached"),
        ("attached", "exit", "detached"),
        ("created", "use", "created"),
        ("created", "drain", "created"),
        ("created", "evaluate", "created"),
        ("attached", "use", "attached"),
        ("attached", "drain", "attached"),
        ("attached", "evaluate", "attached"),
        ("detached", "evaluate", "detached"),
    ),
    ctors=frozenset({"Collector"}),
    method_events=(
        ("watch", "use"),
        ("poll", "use"),
        ("replay", "use"),
        ("close", "drain"),
        ("evaluate", "evaluate"),
    ),
    enter_event="enter",
    exit_event="exit",
    owner_rule="RPR023",
    raise_rule="RPR025",
)

#: ``FlightRecorder``: attach/detach bracket; ``trigger()`` works in
#: any state (a manual snapshot needs no listener).
FLIGHT_RECORDER = ProtocolSpec(
    name="flight-recorder",
    subject="FlightRecorder",
    description=(
        "context entry attaches the ring to the tracer; exit detaches; "
        "trigger() dumps from any state"
    ),
    states=("created", "attached", "detached"),
    initial="created",
    accepting=frozenset({"created", "detached"}),
    transitions=(
        ("created", "enter", "attached"),
        ("attached", "exit", "detached"),
    ) + _self_loops(
        ("created", "attached", "detached"), ("trigger", "arm")
    ),
    ctors=frozenset({"FlightRecorder"}),
    method_events=(
        ("trigger", "trigger"),
        ("add_artifact_provider", "arm"),
    ),
    enter_event="enter",
    exit_event="exit",
    owner_rule="RPR023",
)

#: ``BFSWorkspace``: ``begin``/a traversal resets every map; a
#: :class:`~repro.bfs.result.BFSResult` built from the workspace
#: *aliases* its arrays (state ``lent``) until ``detach()``.  A new
#: traversal while a live result is lent silently corrupts it — the
#: stateful ordering RPR011's escape analysis cannot see.
BFS_WORKSPACE = ProtocolSpec(
    name="bfs-workspace",
    subject="BFSWorkspace",
    description=(
        "begin()/a traversal resets the maps; a bound result aliases "
        "the workspace (lent) until detach(); re-running while lent "
        "corrupts the live result"
    ),
    states=("idle", "active", "lent"),
    initial="idle",
    accepting=frozenset({"idle", "active", "lent"}),
    transitions=(
        ("idle", "begin", "active"),
        ("active", "begin", "active"),
        ("idle", "traverse", "active"),
        ("active", "traverse", "active"),
        ("idle", "detach", "idle"),
        ("active", "detach", "active"),
        ("lent", "detach", "active"),
    ),
    ctors=frozenset({"BFSWorkspace"}),
    classmethod_ctors=frozenset({"for_graph"}),
    method_events=(("begin", "begin"),),
    owner_rule="RPR024",
)

#: Every built-in machine, by name.
PROTOCOLS: dict[str, ProtocolSpec] = {
    spec.name: spec
    for spec in (
        LIVE_CHANNEL,
        CHANNEL_EXPORTER,
        COLLECTOR,
        FLIGHT_RECORDER,
        BFS_WORKSPACE,
    )
}


def get_protocol(name: str) -> ProtocolSpec:
    """Look a machine up by name (raises
    :class:`~repro.errors.AnalysisError` on unknown names)."""
    spec = PROTOCOLS.get(name)
    if spec is None:
        raise AnalysisError(
            f"unknown protocol {name!r}; known: "
            + ", ".join(sorted(PROTOCOLS))
        )
    return spec


def protocol_for_ctor(leaf: str) -> ProtocolSpec | None:
    """The machine whose handles ``leaf(...)`` constructs, if any."""
    for spec in PROTOCOLS.values():
        if leaf in spec.ctors:
            return spec
    return None


def protocol_for_type(type_name: str) -> ProtocolSpec | None:
    """The machine governing instances of ``type_name`` (the dynamic
    monitor's auto-detection)."""
    for spec in PROTOCOLS.values():
        if spec.subject == type_name or type_name in spec.ctors:
            return spec
    return None


def all_ctor_names() -> frozenset[str]:
    """Every constructor leaf name any machine tracks."""
    out: set[str] = set()
    for spec in PROTOCOLS.values():
        out |= spec.ctors
    return frozenset(out)
