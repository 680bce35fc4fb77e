"""Process model graphs: nodes, edges, and their JSON form.

Node types are the five modeling constructs (start event, end event,
activity, XOR gateway, AND gateway); edges are directed sequence flows
with optional labels and bendpoints. The JSON form lists nodes and edges
sorted by id so serialization is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .eventlog import ObjectType, _quote, _Skeleton

NODE_TYPES = (
    ObjectType.START_EVENT,
    ObjectType.END_EVENT,
    ObjectType.ACTIVITY,
    ObjectType.XOR,
    ObjectType.AND,
)

GATEWAY_TYPES = (ObjectType.XOR, ObjectType.AND)

_KEEP = object()  # update_node's label when it stays (None is a label)

_TYPE_NAMES = {str: "a string", int: "an int", bool: "a bool", type(None): "null", list: "a list"}


def typed(value, name: str, *types: type):
    """`value` read from JSON when its type is exactly one of `types`, so a
    bool is no int; anything else raises TypeError."""
    if type(value) not in types:
        wanted = " or ".join(_TYPE_NAMES[t] for t in types)
        raise TypeError(f"{name} must be {wanted}, got {_quote(value)}")
    return value


def read_json(text: str):
    """json.loads, refusing with ValueError input nested too deep for it
    and, in words of its own, an integer longer than int() reads."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # the wording differs between Python versions
        raise ValueError("JSON integer has too many digits") from None


@dataclass(frozen=True, slots=True)
class Node:
    id: str
    type: ObjectType
    label: str | None = None
    position: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if self.type not in NODE_TYPES:
            raise ValueError(f"invalid node type {self.type.value} for node {self.id}")


@dataclass(frozen=True, slots=True)
class Edge:
    id: str
    source: str
    target: str
    label: str | None = None
    bendpoints: tuple[tuple[int, int], ...] = ()


class ProcessModel:
    """A mutable directed graph of modeling constructs.

    add_node and add_edge are the graph's own edits, a log's too: they
    refuse an id in use and a flow end that is not a live node, and no
    lifecycle rule of a log. Parallel edges and self-loops are
    representable; whether they make sense is a question for validation
    stages further down the pipeline, not for the container.

    Edges keep their endpoints: the editor's reconnect is a delete plus a
    create, so a flow that moves is removed and added again. Adjacency
    queries therefore list a node's edges in `edges` order.
    """

    def __init__(self, nodes=(), edges=()):
        self.nodes: dict[str, Node] = {}
        self.edges: dict[str, Edge] = {}
        self._graph = _Skeleton()  # the types, ends and adjacency
        for node in nodes:
            self.add_node(node)
        for edge in edges:
            self.add_edge(edge)

    # -- mutation ---------------------------------------------------------

    def add_node(self, node: Node):
        self._graph._add(node.id, node.type)
        self.nodes[node.id] = node

    def add_edge(self, edge: Edge):
        self._graph._link(edge.id, edge.source, edge.target)
        self.edges[edge.id] = edge

    def remove_node(self, node_id: str) -> None:
        """Remove a node and every incident edge."""
        del self.nodes[node_id]
        for eid in self._graph._drop(node_id):
            del self.edges[eid]

    def remove_edge(self, edge_id: str):
        del self.edges[edge_id]
        self._graph._unlink(edge_id)

    def update_node(self, node_id: str, *, type: ObjectType | None = None,
                    label: str | None | object = _KEEP,
                    position: tuple[int, int] | None = None) -> Node:
        """Change a node's type, label or position; what is not given stays."""
        old = self.nodes[node_id]
        node = Node(node_id, old.type if type is None else type,
                    old.label if label is _KEEP else label,
                    old.position if position is None else position)
        self.nodes[node_id], self._graph.types[node_id] = node, node.type
        return node

    # -- queries ----------------------------------------------------------

    def in_edges(self, node_id: str) -> list[Edge]:
        return [self.edges[eid] for eid in self._graph._in.get(node_id, ())]

    def out_edges(self, node_id: str) -> list[Edge]:
        return [self.edges[eid] for eid in self._graph._out.get(node_id, ())]

    def predecessors(self, node_id: str) -> list[str]:
        return list(self._graph._in.get(node_id, {}).values())

    def successors(self, node_id: str) -> list[str]:
        return list(self._graph._out.get(node_id, {}).values())

    def in_degree(self, node_id: str) -> int:
        return len(self._graph._in.get(node_id, ()))

    def out_degree(self, node_id: str) -> int:
        return len(self._graph._out.get(node_id, ()))

    def is_gateway(self, node_id: str) -> bool:
        return self.nodes[node_id].type in GATEWAY_TYPES

    def nodes_of_type(self, node_type: ObjectType) -> list[Node]:
        return sorted(
            (n for n in self.nodes.values() if n.type is node_type),
            key=lambda n: n.id,
        )

    def copy(self) -> "ProcessModel":
        return ProcessModel._of(dict(self.nodes), dict(self.edges), self._graph.copy())

    @classmethod
    def _of(cls, nodes: dict, edges: dict, graph: _Skeleton) -> "ProcessModel":
        """The model of these records and the graph they make, with no edit
        replayed and no second graph built."""
        model = cls.__new__(cls)
        model.nodes, model.edges, model._graph = nodes, edges, graph
        return model

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProcessModel):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __repr__(self) -> str:
        return f"ProcessModel({len(self.nodes)} nodes, {len(self.edges)} edges)"

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "id": n.id,
                    "type": n.type.value,
                    "label": n.label,
                    "x": n.position[0],
                    "y": n.position[1],
                }
                for n in sorted(self.nodes.values(), key=lambda n: n.id)
            ],
            "edges": [
                {
                    "id": e.id,
                    "source": e.source,
                    "target": e.target,
                    "label": e.label,
                    "bendpoints": [list(p) for p in e.bendpoints],
                }
                for e in sorted(self.edges.values(), key=lambda e: e.id)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProcessModel":
        """Rebuild from to_dict output; a missing key or a value of the
        wrong type raises ValueError."""
        def point(x, y) -> tuple[int, int]:
            return typed(x, "x", int), typed(y, "y", int)

        def node_type(name) -> ObjectType:
            if name not in NODE_TYPES:  # each equals its name, a str Enum
                raise ValueError(f"invalid node type {_quote(name)}")
            return ObjectType(name)

        model = cls()
        try:
            for nd in typed(data.get("nodes", []), "nodes", list):
                model.add_node(
                    Node(
                        id=typed(nd["id"], "node id", str),
                        type=node_type(nd["type"]),
                        label=typed(nd.get("label"), "label", str, type(None)),
                        position=point(nd.get("x", 0), nd.get("y", 0)),
                    )
                )
            for ed in typed(data.get("edges", []), "edges", list):
                model.add_edge(
                    Edge(
                        id=typed(ed["id"], "edge id", str),
                        source=typed(ed["source"], "source", str),
                        target=typed(ed["target"], "target", str),
                        label=typed(ed.get("label"), "label", str, type(None)),
                        bendpoints=tuple(point(x, y) for x, y in
                                         typed(ed.get("bendpoints", []), "bendpoints", list)),
                    )
                )
            return model
        except KeyError as exc:
            raise ValueError(f"missing key {exc.args[0]!r}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"wrong value type: {exc}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProcessModel":
        return cls.from_dict(read_json(text))
