import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_cases import build
from oracles import to_wfnet_by_node_type
from ppmkit.eventlog import ObjectType
from ppmkit.model import Edge, Node, ProcessModel
from ppmkit.soundness import check_soundness
from ppmkit.wfnet import (
    SINK_PLACE,
    SOURCE_PLACE,
    Transition,
    WFNet,
    index_net,
    to_wfnet,
    uncovered,
)


def linear():
    return build(
        nodes=[("s", ObjectType.START_EVENT), ("a", ObjectType.ACTIVITY),
               ("e", ObjectType.END_EVENT)],
        edges=[("s", "a"), ("a", "e")],
    )


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
        by_id = {t.id: t for t in net.transitions}
        assert by_id["t_s"].pre == ("i",)
        assert by_id["t_s"].post == ("p_f1",)
        assert by_id["t_a"] == Transition("t_a", ("p_f1",), ("p_f2",))
        assert by_id["t_e"].post == ("o",)

    def test_place_count_is_edges_plus_two(self, diamond_log):
        from ppmkit.replay import replay

        model = replay(diamond_log)
        net = to_wfnet(model)
        assert len(net.places) == len(model.edges) + 2

    def test_xor_split_gets_branch_transitions(self):
        net = to_wfnet(xor_diamond())
        ids = {t.id for t in net.transitions}
        assert "t_g1_f2" in ids and "t_g1_f3" in ids
        assert "t_g1" not in ids
        split_a = next(t for t in net.transitions if t.id == "t_g1_f2")
        assert split_a.pre == ("p_f1",)
        assert split_a.post == ("p_f2",)

    def test_xor_join_competes_for_output(self):
        net = to_wfnet(xor_diamond())
        joins = [t for t in net.transitions if t.id.startswith("t_g2_")]
        assert len(joins) == 2
        assert {t.post for t in joins} == {("p_f6",)}

    def test_and_gateway_single_transition(self):
        model = xor_diamond()
        model.update_node("g1", type=ObjectType.AND)
        net = to_wfnet(model)
        t = next(t for t in net.transitions if t.id == "t_g1")
        assert t.pre == ("p_f1",)
        assert t.post == ("p_f2", "p_f3")

    def test_pass_through_xor_is_single(self):
        model = build(
            nodes=[("s", ObjectType.START_EVENT), ("g", ObjectType.XOR),
                   ("e", ObjectType.END_EVENT)],
            edges=[("s", "g"), ("g", "e")],
        )
        ids = [t.id for t in to_wfnet(model).transitions]
        assert "t_g" in ids

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

    def test_labels_carried_onto_transitions(self):
        model = linear()
        model.update_node("a", label="review order")
        net = to_wfnet(model)
        assert next(t for t in net.transitions if t.id == "t_a").label == "review order"


NODE_TYPES = [ObjectType.START_EVENT, ObjectType.END_EVENT, ObjectType.ACTIVITY,
              ObjectType.XOR, ObjectType.AND]


# Ids joined by "_" out of one small alphabet, so that a branch transition
# t_<gateway>_<flow> can meet a task's t_<task> or another branch's id.
CLASHING_IDS = ["a", "b", "c", "a_b", "b_c", "a_b_c", "a_b_2", "b_2", "2", "a_2"]


@st.composite
def any_models(draw, clashing=False):
    """Models of 1-8 nodes of every type, with parallel edges and self-loops;
    with clashing, node and flow ids come from CLASHING_IDS."""
    types = draw(st.lists(st.sampled_from(NODE_TYPES), min_size=1, max_size=8))
    node = st.integers(0, len(types) - 1)
    ends = draw(st.lists(st.tuples(node, node), max_size=14))
    if clashing:
        names = draw(st.permutations(CLASHING_IDS)) + [f"x{k}" for k in range(22)]
        node_ids, edge_ids = names[:len(types)], names[len(types):]
    else:
        node_ids = [f"n{k}" for k in range(len(types))]
        edge_ids = [f"e{k}" for k in range(len(ends))]
    return ProcessModel([Node(n, t, label=f"l{k}")
                         for k, (n, t) in enumerate(zip(node_ids, types))],
                        [Edge(e, node_ids[s], node_ids[t]) for e, (s, t) in zip(edge_ids, ends)])


def _net_or_error(translate, model):
    try:
        return translate(model)
    except ValueError as exc:
        return str(exc)


@given(model=st.one_of(any_models(), any_models(clashing=True)))
@settings(max_examples=400, deadline=None)
def test_to_wfnet_matches_per_type_translation(model):
    assert _net_or_error(to_wfnet, model) == _net_or_error(to_wfnet_by_node_type, model)


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
        by_id = {t.id: t for t in to_wfnet(model).transitions}
        assert by_id["t_x_e1"] == Transition("t_x_e1", ("p_e0",), ("p_e1",))
        assert by_id["t_x_e1_2"] == Transition("t_x_e1_2", ("p_e1",), ("p_e3",))
        assert check_soundness(to_wfnet(model)).verdict == "Sound"

    def test_two_gateways_branches_clash(self):
        # Split a with flow b_c and join a_b with flow c both give t_a_b_c.
        model = xor_block("a", "a_b", ("t1", "t2"), ("f0", "b_c", "f2", "c", "f4", "f5"))
        by_id = {t.id: t for t in to_wfnet(model).transitions}
        assert by_id["t_a_b_c"].post == ("p_b_c",)
        assert by_id["t_a_b_c_2"].pre == ("p_c",)
        assert check_soundness(to_wfnet(model)).verdict == "Sound"

    def test_a_taken_suffix_is_skipped(self):
        # t_x_e1 twice and a task x_e1_2 already holding t_x_e1_2.
        model = xor_block("x", "j", ("x_e1", "x_e1_2"), ("e0", "e1", "e2", "e3", "e4", "e5"))
        ids = [t.id for t in to_wfnet(model).transitions]
        assert sorted(ids) == ["t_end", "t_j_e3", "t_j_e4", "t_s", "t_x_e1", "t_x_e1_2",
                               "t_x_e1_3", "t_x_e2"]
        assert to_wfnet(model) == to_wfnet_by_node_type(model)


class TestWFNetValidation:
    def test_source_sink_required(self):
        with pytest.raises(ValueError, match="source and sink must be places"):
            WFNet(places=("a", "b"), transitions=())

    def test_unknown_place_in_transition(self):
        with pytest.raises(ValueError, match="unknown place"):
            WFNet(places=(SOURCE_PLACE, SINK_PLACE),
                  transitions=(Transition("t", ("i",), ("nowhere",)),))

    def test_nothing_feeds_source(self):
        with pytest.raises(ValueError, match="feeds the source"):
            WFNet(places=(SOURCE_PLACE, SINK_PLACE),
                  transitions=(Transition("t", ("i",), ("i",)),))

    def test_nothing_consumes_sink(self):
        with pytest.raises(ValueError, match="consumes the sink"):
            WFNet(places=(SOURCE_PLACE, SINK_PLACE),
                  transitions=(Transition("t", ("o",), ()),))

    def test_duplicate_transition_ids(self):
        with pytest.raises(ValueError, match="duplicate transition ids"):
            WFNet(places=(SOURCE_PLACE, SINK_PLACE),
                  transitions=(Transition("t", ("i",), ("o",)),
                               Transition("t", ("i",), ("o",))))

    def test_ordering_is_canonical(self):
        net = WFNet(places=(SINK_PLACE, SOURCE_PLACE, "p_z", "p_a"),
                    transitions=(Transition("t2", ("p_z",), ("o",)),
                                 Transition("t1", ("i",), ("p_a", "p_z")),
                                 Transition("t0", ("p_a",), ("o",))))
        assert net.places == ("i", "o", "p_a", "p_z")
        assert [t.id for t in net.transitions] == ["t0", "t1", "t2"]
        assert net.transitions[1].post == ("p_a", "p_z")


class TestWfStructured:
    def test_linear_ok(self):
        assert uncovered(index_net(to_wfnet(linear()))) == ()

    def test_dangling_place_flagged(self):
        model = linear()
        model.add_node(Node("orphan", ObjectType.ACTIVITY))
        assert uncovered(index_net(to_wfnet(model))) == ("t_orphan",)

    def test_unreachable_cycle_flagged(self):
        model = linear()
        model.add_node(Node("x", ObjectType.ACTIVITY))
        model.add_node(Node("y", ObjectType.ACTIVITY))
        from ppmkit.model import Edge

        model.add_edge(Edge("c1", "x", "y"))
        model.add_edge(Edge("c2", "y", "x"))
        offending = uncovered(index_net(to_wfnet(model)))
        assert set(offending) == {"t_x", "t_y", "p_c1", "p_c2"}

    def test_no_start_event_means_nothing_covered(self):
        model = build(nodes=[("a", ObjectType.ACTIVITY),
                             ("b", ObjectType.ACTIVITY)],
                      edges=[("a", "b")])
        assert "p_f1" in uncovered(index_net(to_wfnet(model)))
