import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import any_models, event_logs, simulated_logs
from golden_cases import build
from oracles import named, to_wfnet_by_node_type, to_wfnet_by_place_names
from ppmkit.eventlog import ObjectType, expand_reconnect
from ppmkit.model import Edge, Node, ProcessModel
from ppmkit.normalize import normalize
from ppmkit.replay import replay
from ppmkit.soundness import check_soundness
from ppmkit.wfnet import SINK_PLACE, SOURCE_PLACE, WFNet, to_wfnet, uncovered


def linear():
    return build(
        nodes=[("s", ObjectType.START_EVENT), ("a", ObjectType.ACTIVITY),
               ("e", ObjectType.END_EVENT)],
        edges=[("s", "a"), ("a", "e")],
    )


def transitions(net):
    """The net's transitions by id, with place ids."""
    return {t.id: t for t in named(net).transitions}


def xor_diamond():
    return build(
        nodes=[("s", ObjectType.START_EVENT), ("g1", ObjectType.XOR),
               ("a", ObjectType.ACTIVITY), ("b", ObjectType.ACTIVITY),
               ("g2", ObjectType.XOR), ("e", ObjectType.END_EVENT)],
        edges=[("s", "g1"), ("g1", "a"), ("g1", "b"), ("a", "g2"),
               ("b", "g2"), ("g2", "e")],
    )


class TestToWfnet:
    def test_linear_mapping(self):
        net = to_wfnet(linear())
        assert net.places == ("i", "o", "p_f1", "p_f2")
        assert (net.source, net.sink) == (0, 1)
        by_id = transitions(net)
        assert by_id["t_s"].pre == ("i",)
        assert by_id["t_s"].post == ("p_f1",)
        assert by_id["t_a"] == ("t_a", ("p_f1",), ("p_f2",))
        assert by_id["t_e"].post == ("o",)

    def test_place_count_is_edges_plus_two(self, diamond_log):
        from ppmkit.replay import replay

        model = replay(diamond_log)
        net = to_wfnet(model)
        assert len(net.places) == len(model.edges) + 2

    def test_xor_split_gets_branch_transitions(self):
        by_id = transitions(to_wfnet(xor_diamond()))
        assert "t_g1_f2" in by_id and "t_g1_f3" in by_id
        assert "t_g1" not in by_id
        split_a = by_id["t_g1_f2"]
        assert split_a.pre == ("p_f1",)
        assert split_a.post == ("p_f2",)

    def test_xor_join_competes_for_output(self):
        joins = [t for tid, t in transitions(to_wfnet(xor_diamond())).items()
                 if tid.startswith("t_g2_")]
        assert len(joins) == 2
        assert {t.post for t in joins} == {("p_f6",)}

    def test_and_gateway_single_transition(self):
        model = xor_diamond()
        model.update_node("g1", type=ObjectType.AND)
        t = transitions(to_wfnet(model))["t_g1"]
        assert t.pre == ("p_f1",)
        assert t.post == ("p_f2", "p_f3")

    def test_pass_through_xor_is_single(self):
        model = build(
            nodes=[("s", ObjectType.START_EVENT), ("g", ObjectType.XOR),
                   ("e", ObjectType.END_EVENT)],
            edges=[("s", "g"), ("g", "e")],
        )
        assert "t_g" in to_wfnet(model).transitions

    def test_activity_multi_flow_raises(self):
        model = build(
            nodes=[("s", ObjectType.START_EVENT), ("a", ObjectType.ACTIVITY),
                   ("b", ObjectType.ACTIVITY), ("c", ObjectType.ACTIVITY)],
            edges=[("s", "a"), ("a", "b"), ("a", "c")],
        )
        with pytest.raises(ValueError, match="activity a has multiple flows"):
            to_wfnet(model)

    def test_mixed_xor_raises(self):
        model = build(
            nodes=[("a", ObjectType.ACTIVITY), ("b", ObjectType.ACTIVITY),
                   ("g", ObjectType.XOR), ("c", ObjectType.ACTIVITY),
                   ("d", ObjectType.ACTIVITY)],
            edges=[("a", "g"), ("b", "g"), ("g", "c"), ("g", "d")],
        )
        with pytest.raises(ValueError, match="mixed XOR gateway g"):
            to_wfnet(model)


def _net_or_error(translate, model):
    try:
        return translate(model)
    except ValueError as exc:
        return str(exc)


@given(model=st.one_of(any_models(), any_models(clashing=True)))
@settings(max_examples=400, deadline=None)
def test_to_wfnet_matches_per_type_translation(model):
    assert _net_or_error(to_wfnet, model) == _net_or_error(to_wfnet_by_node_type, model)


def _normal_form(model):
    """The normalized model, or the model itself when normalize rejects it."""
    return normalize(model).model or model if model.nodes else model


# XOR split a's branch t_a_x comes before task a_b's t_a_b by node id, after
# it by transition id.
SPLIT_BEFORE_TASK = ProcessModel(
    [Node("s", ObjectType.START_EVENT), Node("a", ObjectType.XOR),
     Node("a_b", ObjectType.ACTIVITY), Node("c", ObjectType.ACTIVITY)],
    [Edge("f", "s", "a"), Edge("x", "a", "a_b"), Edge("y", "a", "c")])


@given(model=st.one_of(
    any_models(), any_models(clashing=True),
    event_logs().map(lambda log: _normal_form(replay(expand_reconnect(log)))),
    simulated_logs().map(lambda log: _normal_form(replay(log)))))
@example(model=SPLIT_BEFORE_TASK)
@settings(max_examples=300, deadline=None)
def test_net_numbered_from_the_model_as_by_place_names(model):
    assert (_net_or_error(to_wfnet, model)
            == _net_or_error(to_wfnet_by_place_names, model))


def xor_block(split, join, tasks, flows):
    """start -> split -> two tasks -> join -> end, every id given."""
    nodes = [Node("s", ObjectType.START_EVENT), Node(split, ObjectType.XOR),
             Node(tasks[0], ObjectType.ACTIVITY), Node(tasks[1], ObjectType.ACTIVITY),
             Node(join, ObjectType.XOR), Node("end", ObjectType.END_EVENT)]
    ends = [("s", split), (split, tasks[0]), (split, tasks[1]), (tasks[0], join),
            (tasks[1], join), (join, "end")]
    return ProcessModel(nodes, [Edge(f, a, b) for f, (a, b) in zip(flows, ends)])


class TestTransitionIdClashes:
    def test_branch_meeting_a_task_takes_the_next_suffix(self):
        # XOR split x with flow e1 and a task x_e1 both give t_x_e1.
        model = xor_block("x", "j", ("x_e1", "b"), ("e0", "e1", "e2", "e3", "e4", "e5"))
        by_id = transitions(to_wfnet(model))
        assert by_id["t_x_e1"] == ("t_x_e1", ("p_e0",), ("p_e1",))
        assert by_id["t_x_e1_2"] == ("t_x_e1_2", ("p_e1",), ("p_e3",))
        assert check_soundness(to_wfnet(model)).verdict == "Sound"

    def test_two_gateways_branches_clash(self):
        # Split a with flow b_c and join a_b with flow c both give t_a_b_c.
        model = xor_block("a", "a_b", ("t1", "t2"), ("f0", "b_c", "f2", "c", "f4", "f5"))
        by_id = transitions(to_wfnet(model))
        assert by_id["t_a_b_c"].post == ("p_b_c",)
        assert by_id["t_a_b_c_2"].pre == ("p_c",)
        assert check_soundness(to_wfnet(model)).verdict == "Sound"

    def test_a_taken_suffix_is_skipped(self):
        # t_x_e1 twice and a task x_e1_2 already holding t_x_e1_2.
        model = xor_block("x", "j", ("x_e1", "x_e1_2"), ("e0", "e1", "e2", "e3", "e4", "e5"))
        ids = to_wfnet(model).transitions
        assert sorted(ids) == ["t_end", "t_j_e3", "t_j_e4", "t_s", "t_x_e1", "t_x_e1_2",
                               "t_x_e1_3", "t_x_e2"]
        assert to_wfnet(model) == to_wfnet_by_node_type(model)


class TestWFNetValidation:
    def test_duplicate_place_ids(self):
        with pytest.raises(ValueError, match="duplicate place ids"):
            WFNet.of(("i", "o", "p", "p"), [("t", ("i",), ("o",))])

    def test_duplicate_transition_ids(self):
        with pytest.raises(ValueError, match="duplicate transition ids"):
            WFNet.of((SOURCE_PLACE, SINK_PLACE), [("t", ("i",), ("o",)), ("t", ("i",), ("o",))])

    def test_source_sink_required(self):
        for places in (("a", "b"), ("i", "b"), ("a", "o")):
            with pytest.raises(ValueError, match="source and sink must be places"):
                WFNet.of(places, ())

    def test_unknown_place_in_transition(self):
        with pytest.raises(ValueError, match="transition t touches unknown place nowhere"):
            WFNet.of((SOURCE_PLACE, SINK_PLACE), [("t", ("i",), ("nowhere",))])

    def test_nothing_feeds_source(self):
        with pytest.raises(ValueError, match="transition t feeds the source place"):
            WFNet.of((SOURCE_PLACE, SINK_PLACE), [("t", ("i",), ("i",))])

    def test_nothing_consumes_sink(self):
        with pytest.raises(ValueError, match="transition t consumes the sink place"):
            WFNet.of((SOURCE_PLACE, SINK_PLACE), [("t", ("o",), ())])

    def test_ordering_is_canonical(self):
        net = WFNet.of((SINK_PLACE, SOURCE_PLACE, "p_z", "p_a"),
                       [("t2", ("p_z",), ("o",)), ("t1", ("i",), ("p_z", "p_a")),
                        ("t0", ("p_a",), ("o",))])
        assert net.places == ("i", "o", "p_a", "p_z")
        assert net.transitions == ("t0", "t1", "t2")
        assert net.pre == [(2,), (0,), (3,)]
        assert net.post == [(1,), (2, 3), (1,)]
        assert net.producers == [[], [0, 2], [1], [1]]
        assert net.consumers == [[1], [], [0], [2]]
        assert (net.source, net.sink) == (0, 1)

    def test_arc_weight_two_repeats_the_place(self):
        net = WFNet.of(("i", "o", "p"), [("t1", ("i",), ("p", "p")), ("t2", ("p", "p"), ("o",))])
        assert net.post[0] == (2, 2) and net.pre[1] == (2, 2)
        assert net.producers[2] == [0, 0] and net.consumers[2] == [1, 1]


class TestWfStructured:
    def test_linear_ok(self):
        assert uncovered(to_wfnet(linear())) == ()

    def test_dangling_place_flagged(self):
        model = linear()
        model.add_node(Node("orphan", ObjectType.ACTIVITY))
        assert uncovered(to_wfnet(model)) == ("t_orphan",)

    def test_unreachable_cycle_flagged(self):
        model = linear()
        model.add_node(Node("x", ObjectType.ACTIVITY))
        model.add_node(Node("y", ObjectType.ACTIVITY))
        from ppmkit.model import Edge

        model.add_edge(Edge("c1", "x", "y"))
        model.add_edge(Edge("c2", "y", "x"))
        offending = uncovered(to_wfnet(model))
        assert set(offending) == {"t_x", "t_y", "p_c1", "p_c2"}

    def test_no_start_event_means_nothing_covered(self):
        model = build(nodes=[("a", ObjectType.ACTIVITY),
                             ("b", ObjectType.ACTIVITY)],
                      edges=[("a", "b")])
        assert "p_f1" in uncovered(to_wfnet(model))
