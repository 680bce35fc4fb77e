from datetime import timedelta

import pytest
from hypothesis import given, settings

from conftest import BASE, event_logs, load_fixture
from ppmkit.eventlog import (
    EventKind,
    EventLog,
    ModelingEvent,
    expand_reconnect,
)
from ppmkit.model import ProcessModel
from ppmkit.replay import apply_event, replay, replay_until


def ev(seq, kind, oid, **kw):
    kw.setdefault("timestamp", BASE + timedelta(seconds=seq))
    return ModelingEvent(seq=seq, kind=kind, object_id=oid, **kw)


def test_replay_diamond_final_model(diamond_log):
    model = replay(diamond_log)
    assert len(model.nodes) == 8
    assert len(model.edges) == 8
    assert model.nodes["a2"].position == (440, 100)  # last of two moves wins
    assert model.nodes["a4"].label == "report"


def test_create_respects_position_and_label():
    model = ProcessModel()
    apply_event(model, ev(1, EventKind.CREATE_ACTIVITY, "a", position=(5, 9)))
    assert model.nodes["a"].position == (5, 9)
    apply_event(model, ev(2, EventKind.NAME_ACTIVITY, "a", label="ship"))
    assert model.nodes["a"].label == "ship"


def test_delete_node_cascades_edges(churn_log):
    model = replay(churn_log)
    assert set(model.nodes) == {"a2"}
    assert model.edges == {}


def test_move_without_position_is_noop():
    model = ProcessModel()
    apply_event(model, ev(1, EventKind.CREATE_XOR, "g", position=(3, 4)))
    apply_event(model, ev(2, EventKind.MOVE_XOR, "g"))
    assert model.nodes["g"].position == (3, 4)


class TestBendpoints:
    def build(self):
        model = ProcessModel()
        apply_event(model, ev(1, EventKind.CREATE_ACTIVITY, "a"))
        apply_event(model, ev(2, EventKind.CREATE_ACTIVITY, "b"))
        apply_event(model, ev(3, EventKind.CREATE_EDGE, "e", source_id="a", target_id="b"))
        return model

    def test_create_appends(self):
        model = self.build()
        apply_event(model, ev(4, EventKind.CREATE_EDGE_BENDPOINT, "e", position=(1, 1)))
        apply_event(model, ev(5, EventKind.CREATE_EDGE_BENDPOINT, "e", position=(2, 2)))
        assert model.edges["e"].bendpoints == ((1, 1), (2, 2))

    def test_move_rewrites_last(self):
        model = self.build()
        apply_event(model, ev(4, EventKind.CREATE_EDGE_BENDPOINT, "e", position=(1, 1)))
        apply_event(model, ev(5, EventKind.MOVE_EDGE_BENDPOINT, "e", position=(9, 9)))
        assert model.edges["e"].bendpoints == ((9, 9),)

    def test_move_on_empty_list_appends(self):
        model = self.build()
        apply_event(model, ev(4, EventKind.MOVE_EDGE_BENDPOINT, "e", position=(7, 7)))
        assert model.edges["e"].bendpoints == ((7, 7),)

    def test_delete_pops(self):
        model = self.build()
        apply_event(model, ev(4, EventKind.CREATE_EDGE_BENDPOINT, "e", position=(1, 1)))
        apply_event(model, ev(5, EventKind.DELETE_EDGE_BENDPOINT, "e"))
        apply_event(model, ev(6, EventKind.DELETE_EDGE_BENDPOINT, "e"))  # already empty: tolerated
        assert model.edges["e"].bendpoints == ()

    def test_label_drag_changes_nothing(self):
        model = self.build()
        before = model.edges["e"]
        apply_event(model, ev(4, EventKind.MOVE_EDGE_LABEL, "e", position=(50, 50)))
        assert model.edges["e"] == before


def test_reconnect_must_be_expanded(rewire_log):
    with pytest.raises(ValueError, match="must be expanded before replay"):
        replay(rewire_log)
    replay(expand_reconnect(rewire_log))  # fine after expansion


def test_errors_name_the_seq():
    model = ProcessModel()
    with pytest.raises(ValueError, match="cannot apply MOVE_ACTIVITY at seq 9"):
        apply_event(model, ev(9, EventKind.MOVE_ACTIVITY, "ghost", position=(0, 0)))


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
    change it."""
    model = ProcessModel()
    apply_event(model, ev(1, EventKind.CREATE_ACTIVITY, "a"))
    before = model.copy()
    with pytest.raises(ValueError, match=f"^cannot apply {kind.value} at seq 2: "
                                         "no such object ghost$"):
        apply_event(model, ev(2, kind, "ghost", position=position))
    assert model == before


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
