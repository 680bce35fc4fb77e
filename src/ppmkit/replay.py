"""Replay event logs into process models.

Folding a log over an empty model yields the model as it stood after the
last event; stopping early at a seq number or timestamp yields any
intermediate state. Deleting a node also deletes its incident edges, the
way graphical editors do.
"""

from __future__ import annotations

from datetime import datetime
from itertools import takewhile

from .eventlog import EventClass, EventKind, EventLog, ModelingEvent, expand_reconnect
from .model import Edge, Node, ProcessModel


def apply_event(model: ProcessModel, event: ModelingEvent) -> None:
    """Apply one event to the model in place."""
    kind = event.kind
    oid = event.object_id
    try:
        if kind is EventKind.RECONNECT_EDGE:
            raise ValueError("reconnect events must be expanded before replay")
        if kind is EventKind.CREATE_EDGE:
            model.add_edge(
                Edge(id=oid, source=event.source_id, target=event.target_id,
                     label=event.label)
            )
        elif event.is_create():
            model.add_node(
                Node(id=oid, type=event.object_type, label=event.label,
                     position=event.position or (0, 0))
            )
        elif kind is EventKind.DELETE_EDGE:
            model.remove_edge(oid)
        elif event.is_delete():
            model.remove_node(oid)
        elif kind is EventKind.CREATE_EDGE_BENDPOINT:
            bps = model.edges[oid].bendpoints
            model.update_edge(oid, bendpoints=bps + (event.position or (0, 0),))
        elif kind is EventKind.MOVE_EDGE_BENDPOINT:
            bps = model.edges[oid].bendpoints
            point = event.position or (0, 0)
            model.update_edge(oid, bendpoints=(bps[:-1] + (point,)) if bps else (point,))
        elif kind is EventKind.DELETE_EDGE_BENDPOINT:
            bps = model.edges[oid].bendpoints
            if bps:
                model.update_edge(oid, bendpoints=bps[:-1])
        elif kind is EventKind.MOVE_EDGE_LABEL:
            pass  # cosmetic label drag, no model change
        elif event.event_class is EventClass.MOVE:
            if event.position is not None:
                model.update_node(oid, position=event.position)
        elif kind in (EventKind.NAME_ACTIVITY, EventKind.RENAME_ACTIVITY):
            model.update_node(oid, label=event.label)
        elif kind in (EventKind.NAME_EDGE, EventKind.RENAME_EDGE):
            model.update_edge(oid, label=event.label)
        else:  # pragma: no cover - the dispatch above is total
            raise ValueError(f"unhandled event kind {kind.value}")
    except KeyError as exc:
        raise ValueError(f"cannot apply {kind.value} at seq {event.seq}: "
                         f"no such object {exc.args[0]}") from None
    except ValueError as exc:
        raise ValueError(f"cannot apply {kind.value} at seq {event.seq}: {exc}") from None


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
