from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import scan_adjacency
from ppmkit.eventlog import ObjectType
from ppmkit.model import NODE_TYPES, Edge, Node, ProcessModel


def linear_model():
    return ProcessModel(
        nodes=[
            Node("s", ObjectType.START_EVENT),
            Node("a", ObjectType.ACTIVITY, label="do it", position=(100, 50)),
            Node("e", ObjectType.END_EVENT),
        ],
        edges=[Edge("f1", "s", "a"), Edge("f2", "a", "e")],
    )


def test_edge_node_type_rejected():
    with pytest.raises(ValueError, match="invalid node type"):
        Node("x", ObjectType.EDGE)


def test_duplicate_node_id():
    m = linear_model()
    with pytest.raises(ValueError, match="duplicate object id s"):
        m.add_node(Node("s", ObjectType.ACTIVITY))


def test_node_and_edge_share_namespace():
    m = linear_model()
    with pytest.raises(ValueError, match="duplicate object id f1"):
        m.add_node(Node("f1", ObjectType.ACTIVITY))


def test_duplicate_edge_id():
    m = linear_model()
    with pytest.raises(ValueError, match="^duplicate object id f1$"):
        m.add_edge(Edge("f1", "s", "e"))
    with pytest.raises(ValueError, match="^duplicate object id a$"):
        m.add_edge(Edge("a", "s", "e"))
    assert set(m.edges) == {"f1", "f2"}


def test_edge_endpoints_must_exist():
    m = linear_model()
    with pytest.raises(ValueError, match="^edge f3 ends at ghost, not a live node$"):
        m.add_edge(Edge("f3", "ghost", "a"))
    with pytest.raises(ValueError, match="^edge f3 ends at ghost, not a live node$"):
        m.add_edge(Edge("f3", "a", "ghost"))


def test_remove_node_cascades():
    m = linear_model()
    assert m.remove_node("a") is None
    assert "a" not in m.nodes
    assert m.edges == {}
    assert m.out_degree("s") == m.in_degree("e") == 0


def test_remove_node_cascade_in_edge_order():
    # Parallel flows and a self-loop go; the flows left keep their order.
    m = ProcessModel(nodes=[Node("a", ObjectType.ACTIVITY), Node("b", ObjectType.ACTIVITY),
                            Node("c", ObjectType.ACTIVITY)],
                     edges=[Edge("v", "c", "a"), Edge("x", "a", "b"), Edge("y", "b", "a"),
                            Edge("z", "b", "b"), Edge("u", "a", "c"), Edge("w", "a", "b")])
    m.remove_node("b")
    assert list(m.edges) == ["v", "u"]
    assert m.out_edges("a") == [m.edges["u"]] and m.in_edges("a") == [m.edges["v"]]


def test_remove_missing_raises_keyerror():
    m = linear_model()
    with pytest.raises(KeyError):
        m.remove_node("nope")
    with pytest.raises(KeyError):
        m.remove_edge("nope")


def test_update_node_replaces_in_place():
    m = linear_model()
    updated = m.update_node("a", position=(7, 8), label="renamed")
    assert m.nodes["a"] is updated
    assert updated.position == (7, 8)
    assert updated.type is ObjectType.ACTIVITY


def test_degree_queries():
    m = linear_model()
    assert m.predecessors("a") == ["s"]
    assert m.successors("a") == ["e"]
    assert m.in_degree("s") == 0
    assert m.out_degree("s") == 1


def test_gateway_queries():
    m = linear_model()
    m.add_node(Node("g", ObjectType.XOR))
    m.add_node(Node("h", ObjectType.AND))
    assert m.is_gateway("g") and m.is_gateway("h")
    assert not m.is_gateway("a")
    assert [n.id for n in m.nodes_of_type(ObjectType.ACTIVITY)] == ["a"]


def test_self_loop_and_parallel_edges_representable():
    m = linear_model()
    m.add_edge(Edge("loop", "a", "a"))
    m.add_edge(Edge("dup", "s", "a"))
    assert m.in_degree("a") == 3


def test_equality_ignores_insertion_order():
    a = linear_model()
    b = ProcessModel()
    b.add_node(Node("e", ObjectType.END_EVENT))
    b.add_node(Node("s", ObjectType.START_EVENT))
    b.add_node(Node("a", ObjectType.ACTIVITY, label="do it", position=(100, 50)))
    b.add_edge(Edge("f2", "a", "e"))
    b.add_edge(Edge("f1", "s", "a"))
    assert a == b
    b.update_node("a", label="other")
    assert a != b


def test_copy_is_independent():
    m = linear_model()
    clone = m.copy()
    clone.remove_node("a")
    assert "a" in m.nodes
    assert m.edges != clone.edges


def test_json_round_trip():
    m = linear_model()
    m.remove_edge("f1")
    m.add_edge(Edge("f1", "s", "a", label="yes", bendpoints=((10, 20),)))
    again = ProcessModel.from_json(m.to_json())
    assert again == m
    # serialization itself is stable
    assert again.to_json() == m.to_json()


def test_to_dict_sorted_by_id():
    m = ProcessModel(nodes=[Node("z", ObjectType.ACTIVITY), Node("a", ObjectType.ACTIVITY)])
    ids = [nd["id"] for nd in m.to_dict()["nodes"]]
    assert ids == ["a", "z"]


def adjacency(model: ProcessModel) -> dict:
    """Every node's answers to the indexed queries, plus an unknown id."""
    return {
        node_id: {name: getattr(model, name)(node_id) for name in scan_adjacency(model, node_id)}
        for node_id in [*model.nodes, "unknown"]
    }


def scanned(model: ProcessModel) -> dict:
    return {node_id: scan_adjacency(model, node_id) for node_id in [*model.nodes, "unknown"]}


def mutate(model: ProcessModel, data, fresh: str):
    """One random mutation; node and edge ids come from `fresh`."""
    nodes, edges = sorted(model.nodes), sorted(model.edges)
    op = data.draw(st.sampled_from(
        ["add_node"] + ["add_edge"] * 2 * bool(nodes) + ["remove_node", "retype"] * bool(nodes)
        + ["remove_edge", "move_edge", "move_edge"] * bool(edges)))
    if op == "add_node":
        model.add_node(Node(f"n{fresh}", ObjectType.ACTIVITY))
    elif op == "retype":
        model.update_node(data.draw(st.sampled_from(nodes)),
                          type=data.draw(st.sampled_from(NODE_TYPES)))
    elif op == "add_edge":
        source, target = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
        model.add_edge(Edge(f"e{fresh}", source, target))
    elif op == "remove_node":
        node_id = data.draw(st.sampled_from(nodes))
        kept = [(eid, e) for eid, e in model.edges.items() if node_id not in (e.source, e.target)]
        model.remove_node(node_id)
        assert list(model.edges.items()) == kept
    elif op == "remove_edge":
        model.remove_edge(data.draw(st.sampled_from(edges)))
    else:  # an edge moves by leaving and coming back under its id
        edge = model.edges[data.draw(st.sampled_from(edges))]
        end = data.draw(st.sampled_from(["source", "target"]))
        model.remove_edge(edge.id)
        model.add_edge(replace(edge, **{end: data.draw(st.sampled_from(nodes))}))


def assert_graph_agrees(model: ProcessModel):
    """The graph's types and ends are the records' node types and edge ends."""
    assert model._graph.types == {**{n.id: n.type for n in model.nodes.values()},
                                  **dict.fromkeys(model.edges, ObjectType.EDGE)}
    assert model._graph.ends == {e.id: (e.source, e.target) for e in model.edges.values()}


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_adjacency_index_matches_edge_scan(data):
    model = ProcessModel()
    for step in range(data.draw(st.integers(1, 30))):
        if data.draw(st.integers(0, 9)) == 0:
            before = (dict(model.nodes), dict(model.edges), adjacency(model))
            clone = model.copy()
            mutate(clone, data, f"{step}c")
            assert (model.nodes, model.edges, adjacency(model)) == before
            assert_graph_agrees(model)
            model = clone
        else:
            mutate(model, data, str(step))
        assert adjacency(model) == scanned(model)
        assert_graph_agrees(model)
