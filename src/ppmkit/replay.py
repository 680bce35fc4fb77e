"""Replay event logs into process models.

Folding a log over an empty model yields the model as it stood after the
last event; stopping early at a seq number or timestamp yields any
intermediate state. Deleting a node also deletes its incident edges, the
way graphical editors do.

The fold applies each create and delete to eventlog._Skeleton, the
lifecycle rule the log was checked by, and keeps each object's last label,
position and bendpoints beside it. Nodes and edges are built once, at the
end, in creation order; the skeleton becomes the model's graph.
"""

from __future__ import annotations

from datetime import datetime
from itertools import takewhile

from .eventlog import (KIND_CLASS, KIND_OBJECT_TYPE, EventClass, EventKind, EventLog, ObjectType,
                       _Skeleton, expand_reconnect)
from .model import Edge, Node, ProcessModel

# What each event kind does; only creates and deletes change the skeleton. A
# node move without a position stays put, and a label drag changes nothing.
_NODE, _EDGE, _DELETE, _NOTHING, _MOVE, _LABEL, _ADD_BEND, _MOVE_BEND, _DROP_BEND = range(9)
_STEP = {kind: {EventClass.CREATE: _EDGE if KIND_OBJECT_TYPE[kind] is ObjectType.EDGE else _NODE,
                EventClass.DELETE: _DELETE, EventClass.MOVE: _MOVE,
                EventClass.OTHER: _LABEL}.get(cls, _NOTHING) for kind, cls in KIND_CLASS.items()}
_STEP.update({EventKind.MOVE_EDGE_LABEL: _NOTHING, EventKind.CREATE_EDGE_BENDPOINT: _ADD_BEND,
              EventKind.MOVE_EDGE_BENDPOINT: _MOVE_BEND,
              EventKind.DELETE_EDGE_BENDPOINT: _DROP_BEND})


def replay(log: EventLog) -> ProcessModel:
    """Fold the whole log, its reconnects expanded, into the final model."""
    log = expand_reconnect(log)
    skeleton = _Skeleton()
    labels, spots, bends = {}, {}, {}
    for ev in log.events:
        step, oid = _STEP[ev.kind], ev.object_id
        if step <= _DELETE:
            skeleton.apply(ev)
        if step == _MOVE:
            if ev.position is not None:
                spots[oid] = ev.position
        elif step == _LABEL:
            labels[oid] = ev.label
        elif step == _NODE:
            labels[oid], spots[oid] = ev.label, ev.position or (0, 0)
        elif step == _EDGE:
            labels[oid], bends[oid] = ev.label, []
        elif step >= _ADD_BEND:  # a bendpoint added, or the last one moved or dropped
            if step != _ADD_BEND and bends[oid]:
                bends[oid].pop()
            if step != _DROP_BEND:
                bends[oid].append(ev.position or (0, 0))
    return ProcessModel._of({n: Node(n, t, labels[n], spots[n])
                             for n, t in skeleton.types.items() if t is not ObjectType.EDGE},
                            {e: Edge(e, s, t, labels[e], tuple(bends[e]))
                             for e, (s, t) in skeleton.ends.items()}, skeleton)


def replay_until(log: EventLog, cutoff: int | datetime) -> ProcessModel:
    """The model after the events up to and including the cutoff, a seq
    number or a timestamp of the log as given."""
    if isinstance(cutoff, datetime):
        prefix = takewhile(lambda e: e.timestamp <= cutoff, log.events)
    else:
        prefix = takewhile(lambda e: e.seq <= cutoff, log.events)
    return replay(EventLog(log.session_id, prefix))
