from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import strategies as st

from ppmkit.eventlog import EventKind, EventLog, ModelingEvent, ObjectType, parse_log

FIXTURES = Path(__file__).parent / "fixtures"

BASE = datetime(2010, 11, 15, 10, 0, 0, tzinfo=timezone.utc)


def load_fixture(name: str) -> EventLog:
    path = FIXTURES / name
    return parse_log(path.read_text(encoding="utf-8"), session_id=path.stem)


@pytest.fixture
def diamond_log() -> EventLog:
    return load_fixture("diamond.csv")


@pytest.fixture
def churn_log() -> EventLog:
    return load_fixture("churn.csv")


@pytest.fixture
def rewire_log() -> EventLog:
    return load_fixture("rewire.csv")


_NODE_KINDS = {
    ObjectType.START_EVENT: EventKind.CREATE_START_EVENT,
    ObjectType.END_EVENT: EventKind.CREATE_END_EVENT,
    ObjectType.ACTIVITY: EventKind.CREATE_ACTIVITY,
    ObjectType.XOR: EventKind.CREATE_XOR,
    ObjectType.AND: EventKind.CREATE_AND,
}


@st.composite
def event_logs(draw, min_events: int = 1, max_events: int = 40,
               allow_reconnects: bool = True):
    """Random but always-valid session logs.

    A stateful walk: creates dominate early (there is nothing to edit yet),
    later steps may move, rename, rewire, or delete what exists. Ids are
    never reused, so the strict parser accepts the serialized form too.
    Deleting a node drops its edges from the pool, mirroring the cascade
    the replay performs.
    """
    n_events = draw(st.integers(min_events, max_events))
    events: list[ModelingEvent] = []
    clock = BASE
    seq = 0
    counter = 0
    live_nodes: dict[str, ObjectType] = {}
    live_edges: dict[str, tuple[str, str]] = {}

    def node_kind(prefix: str, otype: ObjectType) -> EventKind:
        return EventKind[f"{prefix}_{otype.value}"]

    while len(events) < n_events:
        seq += draw(st.integers(1, 2))
        clock += timedelta(milliseconds=draw(st.integers(0, 5000)))
        roll = draw(st.integers(0, 99))
        kind = object_id = None
        position = label = source = target = None

        if roll < 45 or not live_nodes:
            counter += 1
            object_id = f"n{counter}"
            otype = draw(st.sampled_from(sorted(_NODE_KINDS)))
            kind = _NODE_KINDS[otype]
            if draw(st.booleans()):
                position = (draw(st.integers(0, 1000)), draw(st.integers(0, 1000)))
            live_nodes[object_id] = otype
        elif roll < 60 and len(live_nodes) >= 2:
            counter += 1
            object_id = f"d{counter}"
            kind = EventKind.CREATE_EDGE
            source = draw(st.sampled_from(sorted(live_nodes)))
            target = draw(st.sampled_from(sorted(live_nodes)))
            live_edges[object_id] = (source, target)
        elif roll < 70 and live_edges:
            object_id = draw(st.sampled_from(sorted(live_edges)))
            kind = draw(st.sampled_from([
                EventKind.CREATE_EDGE_BENDPOINT,
                EventKind.MOVE_EDGE_BENDPOINT,
                EventKind.DELETE_EDGE_BENDPOINT,
                EventKind.MOVE_EDGE_LABEL,
            ]))
            if kind is not EventKind.DELETE_EDGE_BENDPOINT:
                position = (draw(st.integers(0, 1000)), draw(st.integers(0, 1000)))
        elif roll < 80:
            object_id = draw(st.sampled_from(sorted(live_nodes)))
            otype = live_nodes[object_id]
            kind = node_kind("MOVE", otype)
            position = (draw(st.integers(0, 1000)), draw(st.integers(0, 1000)))
        elif roll < 85 and live_edges and allow_reconnects:
            object_id = draw(st.sampled_from(sorted(live_edges)))
            kind = EventKind.RECONNECT_EDGE
            source = draw(st.sampled_from(sorted(live_nodes)))
            target = draw(st.sampled_from(sorted(live_nodes)))
            live_edges[object_id] = (source, target)
        elif roll < 92:
            activities = sorted(
                n for n, t in live_nodes.items() if t is ObjectType.ACTIVITY
            )
            pool = activities or sorted(live_edges)
            if not pool:
                continue
            object_id = draw(st.sampled_from(pool))
            if activities:
                kind = draw(st.sampled_from(
                    [EventKind.NAME_ACTIVITY, EventKind.RENAME_ACTIVITY]
                ))
            else:
                kind = draw(st.sampled_from(
                    [EventKind.NAME_EDGE, EventKind.RENAME_EDGE]
                ))
            # includes csv-hostile characters on purpose; empty means "no
            # label" in the csv form, so labels here are never empty
            label = draw(st.text(
                alphabet="abcxyz XYZ-_μ,;\"'", min_size=1, max_size=12,
            ))
        else:
            if live_edges and draw(st.booleans()):
                object_id = draw(st.sampled_from(sorted(live_edges)))
                kind = EventKind.DELETE_EDGE
                del live_edges[object_id]
            else:
                object_id = draw(st.sampled_from(sorted(live_nodes)))
                otype = live_nodes.pop(object_id)
                kind = node_kind("DELETE", otype)
                for eid in [e for e, (s, t) in live_edges.items()
                            if s == object_id or t == object_id]:
                    del live_edges[eid]

        events.append(ModelingEvent(
            seq=seq, timestamp=clock, kind=kind, object_id=object_id,
            position=position, label=label, source_id=source, target_id=target,
        ))

    return EventLog(session_id="generated", events=tuple(events))
