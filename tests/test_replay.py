from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BASE, event_logs, load_fixture, model_state, rewired_blocks, simulated_logs
from oracles import replay_event_by_event
from ppmkit.eventlog import (
    EventKind,
    EventLog,
    ModelingEvent,
    expand_reconnect,
)
from ppmkit.blocks import detect_blocks
from ppmkit.chart import render_ppmchart
from ppmkit.metrics import compute_session_metrics
from ppmkit.model import ProcessModel
from ppmkit.replay import replay, replay_until


def ev(seq, kind, oid, **kw):
    kw.setdefault("timestamp", BASE + timedelta(seconds=seq))
    return ModelingEvent(seq=seq, kind=kind, object_id=oid, **kw)


def test_replay_diamond_final_model(diamond_log):
    model = replay(diamond_log)
    assert len(model.nodes) == 8
    assert len(model.edges) == 8
    assert model.nodes["a2"].position == (440, 100)  # last of two moves wins
    assert model.nodes["a4"].label == "report"


def replayed(*events):
    return replay(EventLog("s", events))


def test_create_respects_position_and_label():
    created = ev(1, EventKind.CREATE_ACTIVITY, "a", position=(5, 9))
    assert replayed(created).nodes["a"].position == (5, 9)
    named = replayed(created, ev(2, EventKind.NAME_ACTIVITY, "a", label="ship"))
    assert named.nodes["a"].label == "ship"
    assert named.nodes["a"].position == (5, 9)


def test_delete_node_cascades_edges(churn_log):
    model = replay(churn_log)
    assert set(model.nodes) == {"a2"}
    assert model.edges == {}


def test_move_without_position_is_noop():
    model = replayed(ev(1, EventKind.CREATE_XOR, "g", position=(3, 4)),
                     ev(2, EventKind.MOVE_XOR, "g"))
    assert model.nodes["g"].position == (3, 4)


class TestBendpoints:
    WIRED = (ev(1, EventKind.CREATE_ACTIVITY, "a"), ev(2, EventKind.CREATE_ACTIVITY, "b"),
             ev(3, EventKind.CREATE_EDGE, "e", source_id="a", target_id="b"))

    def bendpoints(self, *edits):
        return replayed(*self.WIRED, *edits).edges["e"].bendpoints

    def test_create_appends(self):
        assert self.bendpoints(
            ev(4, EventKind.CREATE_EDGE_BENDPOINT, "e", position=(1, 1)),
            ev(5, EventKind.CREATE_EDGE_BENDPOINT, "e", position=(2, 2))) == ((1, 1), (2, 2))

    def test_move_rewrites_last(self):
        assert self.bendpoints(
            ev(4, EventKind.CREATE_EDGE_BENDPOINT, "e", position=(1, 1)),
            ev(5, EventKind.MOVE_EDGE_BENDPOINT, "e", position=(9, 9))) == ((9, 9),)

    def test_move_on_empty_list_appends(self):
        assert self.bendpoints(
            ev(4, EventKind.MOVE_EDGE_BENDPOINT, "e", position=(7, 7))) == ((7, 7),)

    def test_delete_pops(self):
        assert self.bendpoints(
            ev(4, EventKind.CREATE_EDGE_BENDPOINT, "e", position=(1, 1)),
            ev(5, EventKind.DELETE_EDGE_BENDPOINT, "e"),
            ev(6, EventKind.DELETE_EDGE_BENDPOINT, "e")) == ()  # already empty: tolerated

    def test_label_drag_changes_nothing(self):
        before = replayed(*self.WIRED)
        after = replayed(*self.WIRED, ev(4, EventKind.MOVE_EDGE_LABEL, "e", position=(50, 50)))
        assert after.edges == before.edges


@given(log=st.one_of(rewired_blocks(), event_logs()))
@settings(max_examples=60, deadline=None)
def test_every_stage_expands_reconnects_itself(log):
    # A raw log gives each stage what its expansion gives.
    expanded = expand_reconnect(log)
    model = replay(log)
    assert model_state(model) == model_state(replay(expanded))
    blocks = detect_blocks(model, log)
    assert blocks == detect_blocks(model, expanded)
    assert compute_session_metrics(log, blocks) == compute_session_metrics(expanded, blocks)
    assert render_ppmchart(log) == render_ppmchart(expanded)


def test_errors_name_the_seq():
    # A log is checked when it is made, so every EventLog replays.
    with pytest.raises(ValueError, match="action on unknown object ghost at seq 9"):
        EventLog("s", [ev(9, EventKind.MOVE_ACTIVITY, "ghost", position=(0, 0))])


@pytest.mark.parametrize("kind, position", [
    (EventKind.MOVE_ACTIVITY, (0, 0)),
    (EventKind.MOVE_ACTIVITY, None),
    (EventKind.MOVE_AND, None),
    (EventKind.MOVE_EDGE_LABEL, (5, 5)),
    (EventKind.MOVE_EDGE_LABEL, None),
    (EventKind.CREATE_EDGE_BENDPOINT, (1, 1)),
    (EventKind.DELETE_EDGE_BENDPOINT, None),
    (EventKind.NAME_ACTIVITY, None),
    (EventKind.RENAME_EDGE, None),
    (EventKind.DELETE_XOR, None),
    (EventKind.DELETE_EDGE, None),
], ids=lambda v: v.value if isinstance(v, EventKind) else str(v))
def test_action_on_unknown_object_is_refused(kind, position):
    """Every action but a create needs its object, whether or not it would
    change it; the log holding one is refused, so no replay sees it."""
    with pytest.raises(ValueError, match="^action on unknown object ghost at seq 2$"):
        EventLog("s", [ev(1, EventKind.CREATE_ACTIVITY, "a"),
                       ev(2, kind, "ghost", position=position)])


def test_replay_until_seq(diamond_log):
    partial = replay_until(diamond_log, 3)
    assert set(partial.nodes) == {"s1", "a1"}
    assert set(partial.edges) == {"e1"}


def test_replay_until_timestamp(diamond_log):
    cutoff = diamond_log.events[5].timestamp
    by_time = replay_until(diamond_log, cutoff)
    by_seq = replay_until(diamond_log, 6)
    assert by_time == by_seq


def test_replay_until_cuts_the_log_as_given(rewire_log):
    # seq 10 reconnects e2 from a1->x1 to a1->a2; expansion renumbers it
    moved = replay_until(rewire_log, 10)
    assert (moved.edges["e2"].source, moved.edges["e2"].target) == ("a1", "a2")
    assert replay_until(rewire_log, 9).edges["e2"].bendpoints == ((240, 150),)


def test_replay_until_before_start_is_empty(diamond_log):
    assert replay_until(diamond_log, 0) == ProcessModel()


@given(log=event_logs(allow_reconnects=False))
@settings(max_examples=50)
def test_replay_until_last_seq_is_full_replay(log):
    assert replay_until(log, log.events[-1].seq) == replay(log)


@given(log=event_logs())
@settings(max_examples=50)
def test_expanded_logs_always_replay(log):
    model = replay(expand_reconnect(log))
    for edge in model.edges.values():
        assert edge.source in model.nodes
        assert edge.target in model.nodes


# Bendpoint edits, a label drag, renames, moves with and without a
# position, a cascaded delete and a reconnect that moves its flow to the end
# of the edge order.
_K = EventKind
EDITS = [
    (_K.CREATE_ACTIVITY, "a", {"position": (1, 1)}),
    (_K.CREATE_XOR, "g", {"position": (2, 2)}),
    (_K.CREATE_ACTIVITY, "b", {}),
    (_K.CREATE_EDGE, "e", {"source_id": "a", "target_id": "g", "label": "yes"}),
    (_K.CREATE_EDGE, "f", {"source_id": "g", "target_id": "b"}),
    (_K.CREATE_EDGE_BENDPOINT, "f", {"position": (5, 5)}),
    (_K.MOVE_EDGE_BENDPOINT, "f", {"position": (6, 6)}),
    (_K.CREATE_EDGE_BENDPOINT, "f", {"position": (7, 7)}),
    (_K.DELETE_EDGE_BENDPOINT, "f", {}),
    (_K.MOVE_EDGE_LABEL, "f", {"position": (9, 9)}),
    (_K.NAME_EDGE, "f", {"label": "no"}),
    (_K.NAME_ACTIVITY, "a", {"label": "ship"}),
    (_K.RENAME_ACTIVITY, "a", {"label": "send"}),
    (_K.MOVE_XOR, "g", {"position": (8, 8)}),
    (_K.MOVE_XOR, "g", {}),
    (_K.RECONNECT_EDGE, "e", {"source_id": "a", "target_id": "b"}),
    (_K.CREATE_EDGE_BENDPOINT, "e", {"position": (4, 4)}),
    (_K.MOVE_ACTIVITY, "b", {"position": (3, 3)}),
    (_K.CREATE_AND, "d", {}),
    (_K.CREATE_EDGE, "h", {"source_id": "d", "target_id": "b"}),
    (_K.CREATE_EDGE, "i", {"source_id": "g", "target_id": "d"}),
    (_K.DELETE_AND, "d", {}),
    (_K.CREATE_AND, "k", {}),
    (_K.CREATE_EDGE, "m", {"source_id": "b", "target_id": "k"}),
    (_K.DELETE_EDGE_BENDPOINT, "m", {}),
    (_K.CREATE_EDGE_BENDPOINT, "m", {}),
]
EDITED = expand_reconnect(EventLog("edited", [ev(seq, kind, oid, **kw) for seq, (kind, oid, kw)
                                               in enumerate(EDITS, start=1)]))
# A deleted id created again, as another type: a log the strict parser refuses.
RECREATED = EventLog("recreated", [
    ModelingEvent(1, BASE, EventKind.CREATE_ACTIVITY, "a", label="x"),
    ModelingEvent(2, BASE, EventKind.CREATE_AND, "b"),
    ModelingEvent(3, BASE, EventKind.CREATE_EDGE, "e", source_id="a", target_id="b"),
    ModelingEvent(4, BASE, EventKind.DELETE_ACTIVITY, "a"),
    ModelingEvent(5, BASE, EventKind.CREATE_XOR, "a", position=(3, 4)),
    ModelingEvent(6, BASE, EventKind.CREATE_EDGE, "e", source_id="b", target_id="a"),
])


@given(log=st.one_of(event_logs(allow_reconnects=False), event_logs().map(expand_reconnect),
                     simulated_logs()))
@example(log=EDITED)
@example(log=RECREATED)
@settings(max_examples=300, deadline=None)
def test_replay_matches_the_event_by_event_fold(log):
    assert model_state(replay(log)) == model_state(replay_event_by_event(log))
