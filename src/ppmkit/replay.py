"""Replay event logs into process models.

Folding a log over an empty model yields the model as it stood after the
last event; stopping early at a seq number or timestamp yields any
intermediate state. Deleting a node also deletes its incident edges, the
way graphical editors do.
"""

from __future__ import annotations

from datetime import datetime
from itertools import takewhile

from .eventlog import (
    KIND_CLASS,
    KIND_OBJECT_TYPE,
    EventClass,
    EventKind,
    EventLog,
    ModelingEvent,
    ObjectType,
    expand_reconnect,
)
from .model import Edge, Node, ProcessModel


def _edit_bendpoints(model: ProcessModel, ev: ModelingEvent) -> None:
    """Add a bendpoint, or move or drop the last one."""
    bendpoints = model.edges[ev.object_id].bendpoints
    if ev.kind is not EventKind.CREATE_EDGE_BENDPOINT:
        bendpoints = bendpoints[:-1]
    if ev.kind is not EventKind.DELETE_EDGE_BENDPOINT:
        bendpoints += (ev.position or (0, 0),)
    model.update_edge(ev.object_id, bendpoints=bendpoints)


def _reconnect(model: ProcessModel, ev: ModelingEvent) -> None:
    raise ValueError("reconnect events must be expanded before replay")


# (action class, acts on an edge) -> what the event does to the model.
_BY_CLASS = {
    (EventClass.CREATE, False): lambda m, ev: m.add_node(
        Node(ev.object_id, KIND_OBJECT_TYPE[ev.kind], ev.label, ev.position or (0, 0))),
    (EventClass.CREATE, True): lambda m, ev: m.add_edge(
        Edge(ev.object_id, ev.source_id, ev.target_id, ev.label)),
    (EventClass.DELETE, False): lambda m, ev: m.remove_node(ev.object_id),
    (EventClass.DELETE, True): lambda m, ev: m.remove_edge(ev.object_id),
    # A move without a position keeps the node where it is.
    (EventClass.MOVE, False): lambda m, ev: m.update_node(ev.object_id, position=ev.position),
    (EventClass.MOVE, True): _edit_bendpoints,
    (EventClass.OTHER, False): lambda m, ev: m.update_node(ev.object_id, label=ev.label),
    (EventClass.OTHER, True): lambda m, ev: m.update_edge(ev.object_id, label=ev.label),
    (EventClass.RECONNECT, True): _reconnect,
}
_APPLY = {kind: _BY_CLASS[(cls, KIND_OBJECT_TYPE[kind] is ObjectType.EDGE)]
          for kind, cls in KIND_CLASS.items()}
# A cosmetic label drag changes nothing, but its edge must exist.
_APPLY[EventKind.MOVE_EDGE_LABEL] = lambda m, ev: m.edges[ev.object_id]


def apply_event(model: ProcessModel, event: ModelingEvent) -> None:
    """Apply one event to the model in place; an action on an object the
    model does not hold raises ValueError."""
    try:
        _APPLY[event.kind](model, event)
    except KeyError as exc:
        raise ValueError(f"cannot apply {event.kind.value} at seq {event.seq}: "
                         f"no such object {exc.args[0]}") from None
    except ValueError as exc:
        raise ValueError(f"cannot apply {event.kind.value} at seq {event.seq}: {exc}") from None


def replay(log: EventLog) -> ProcessModel:
    """Fold the whole log into the final model."""
    model = ProcessModel()
    for event in log.events:
        apply_event(model, event)
    return model


def replay_until(log: EventLog, cutoff: int | datetime) -> ProcessModel:
    """The model after the events up to and including the cutoff, a seq
    number or a timestamp of the log as given; reconnects in that prefix
    are expanded before the replay, which renumbers seqs."""
    if isinstance(cutoff, datetime):
        prefix = takewhile(lambda e: e.timestamp <= cutoff, log.events)
    else:
        prefix = takewhile(lambda e: e.seq <= cutoff, log.events)
    return replay(expand_reconnect(EventLog(log.session_id, prefix)))
