"""Normalize sloppy BPMN-subset models into well-formed ones.

Modelers forget start and end events, draw several of them, or hang two
flows off one activity. These repairs make such models translatable to a
workflow net, inserting fresh events and gateways only where the drawing
strongly hints at what was meant: when all the flows being bundled lead to
(or come from) one common gateway, the inserted gateway copies its kind,
otherwise a conservative default applies. A gateway that both joins and
splits (2+ in and 2+ out) admits no such reading, so it rejects the model
outright instead of being repaired.

Repair order: mixed-gateway check, then start/end handling, then
split/join insertion. One pass over the node degrees serves all three;
they are read again only from a copy that the start/end stage edited.
A model no rule applies to is returned as it is; each stage copies its
model once, before its first edit.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace

from .eventlog import ObjectType
from .model import GATEWAY_TYPES, Edge, Node, ProcessModel


@dataclass(frozen=True, slots=True)
class AppliedRule:
    rule: str
    nodes: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class NormalizationOutcome:
    model: ProcessModel | None
    reason: str | None = None  # why the model was rejected; None when repaired
    applied_rules: tuple[AppliedRule, ...] = ()

    @property
    def rejected(self) -> bool:
        return self.reason is not None


# Per rule, the nodes it applies to, in model order: mixed gateways (rejected),
# activities without an in-flow or an out-flow, the start or the end events
# when 2+ (merged), and the other nodes with 2+ in-flows or 2+ out-flows.
_Hits = namedtuple("_Hits", "mixed sourceless sinkless starts ends joins splits")


def _hits(model: ProcessModel) -> _Hits:
    """One pass over the node degrees, no sort, no copy; an empty model raises."""
    if not model.nodes:
        raise ValueError("empty model")
    hits = _Hits([], [], [], [], [], [], [])
    for node_id, node in model.nodes.items():
        n_in, n_out = model.in_degree(node_id), model.out_degree(node_id)
        if node.type in GATEWAY_TYPES:
            if n_in >= 2 and n_out >= 2:
                hits.mixed.append(node_id)
            continue
        if n_in > 1:
            hits.joins.append(node_id)
        if n_out > 1:
            hits.splits.append(node_id)
        if node.type is ObjectType.ACTIVITY:
            if not n_in:
                hits.sourceless.append(node_id)
            if not n_out:
                hits.sinkless.append(node_id)
        else:
            (hits.starts if node.type is ObjectType.START_EVENT else hits.ends).append(node_id)
    for events in (hits.starts, hits.ends):
        if len(events) < 2:
            events.clear()
    return hits


def _fresh(model: ProcessModel, base: str) -> str:
    fresh, n, taken = base, 2, model._graph.types  # node and edge ids
    while fresh in taken:
        fresh, n = f"{base}_{n}", n + 1
    return fresh


def _meeting_gateway(model: ProcessModel, node: str, forward: bool,
                     check_first: bool = False) -> str | None:
    """Follow the unique flow from node to the first node where flows meet.

    Downstream (forward) that is the first successor with in-degree > 1,
    upstream the first predecessor with out-degree > 1. Returns it if it is
    a gateway; None when the chain forks, dead-ends, loops, or the meeting
    node is not a gateway. With check_first the starting node itself may
    be the meeting node.
    """
    step, meets = ((model.successors, model.in_degree) if forward
                   else (model.predecessors, model.out_degree))
    if check_first and meets(node) > 1:
        return node if model.is_gateway(node) else None
    current = node
    while True:
        following = step(current)
        # Only the start can close a loop: any other node met twice has two
        # ways in, so the walk stopped there the first time.
        if len(following) != 1 or following[0] == node:
            return None
        current = following[0]
        if meets(current) > 1:
            return current if model.is_gateway(current) else None


def _common_gateway(candidates: list[str | None]) -> str | None:
    found = set(candidates)
    if len(found) == 1 and None not in found:
        return found.pop()
    return None


def _sorted_edges(edges: list[Edge]) -> list[Edge]:
    return sorted(edges, key=lambda e: e.id)


def _start_end(model: ProcessModel, hits: _Hits, rules: list[AppliedRule]) -> ProcessModel:
    """Give every source task a start event and every sink task an end
    event, then collapse multiple start (end) events into one behind a
    gateway whose kind is copied from the common merge (fork) gateway of
    the original starting (ending) paths, XOR when there is none. `hits`
    are the model's; each rule applied is appended to `rules`."""
    if not (hits.sourceless or hits.sinkless or hits.starts or hits.ends):
        return model
    m = model.copy()

    # A start event leads to what it starts; an end event is led to.
    sides = (("start", ObjectType.START_EVENT, True, hits.sourceless),
             ("end", ObjectType.END_EVENT, False, hits.sinkless))
    for name, event_type, forward, tasks in sides:
        for task in sorted(tasks):  # an inserted event changes no other task's degrees
            event = _fresh(m, f"{name}_{task}")
            m.add_node(Node(event, event_type))
            m.add_edge(Edge(_fresh(m, f"e_{event}"), *((event, task) if forward
                                                        else (task, event))))
            rules.append(AppliedRule(f"insert_{name}_event", (task,)))
    for name, event_type, forward, _ in sides:
        events = [n.id for n in m.nodes_of_type(event_type)]
        if len(events) < 2:
            continue
        meeting = _common_gateway([_meeting_gateway(m, x, forward) for x in events])
        sign = m.nodes[meeting].type if meeting else ObjectType.XOR
        others = [e.target if forward else e.source for x in events
                  for e in _sorted_edges(m.out_edges(x) if forward else m.in_edges(x))]
        for x in events:
            m.remove_node(x)
        event, gateway = _fresh(m, name), _fresh(m, f"g_{name}")
        m.add_node(Node(event, event_type))
        m.add_node(Node(gateway, sign))
        m.add_edge(Edge(_fresh(m, f"e_{event}"), *((event, gateway) if forward
                                                    else (gateway, event))))
        for x in others:
            if x in m.nodes:  # a flow between two starts (ends) vanishes
                ends = (gateway, x) if forward else (x, gateway)
                m.add_edge(Edge(_fresh(m, "e_{}_{}".format(*ends)), *ends))
        rules.append(AppliedRule(f"merge_{name}_events", tuple(events)))
    return m


def _splits_joins(model: ProcessModel, hits: _Hits, rules: list[AppliedRule]) -> ProcessModel:
    """Bundle multiple flows at activities and events through fresh
    gateways: a join (XOR unless all flows come from one common split
    gateway) before the node, a split (AND unless all flows lead to one
    common join gateway) after it.

    All insertions are decided against the model as it enters this stage,
    so the outcome does not depend on processing order. `hits` are the
    model's; each rule applied is appended to `rules`.
    """
    if not (hits.joins or hits.splits):
        return model
    m = model.copy()
    # By node id, a node's join before its split; each read off `model`.
    for node_id, kind in sorted([(n, "join") for n in hits.joins]
                                + [(n, "split") for n in hits.splits]):
        join = kind == "join"
        edges = _sorted_edges(model.in_edges(node_id) if join else model.out_edges(node_id))
        meeting = _common_gateway([_meeting_gateway(model, e.source if join else e.target,
                                                    not join, check_first=True) for e in edges])
        gateway = _fresh(m, f"{kind[0]}_{node_id}")  # j_<node> or s_<node>
        m.add_node(Node(gateway, model.nodes[meeting].type if meeting
                        else ObjectType.XOR if join else ObjectType.AND))
        for e in edges:  # edges keep their endpoints: re-add under the same id
            edge = m.edges[e.id]
            m.remove_edge(e.id)
            m.add_edge(replace(edge, **{"target" if join else "source": gateway}))
        m.add_edge(Edge(_fresh(m, f"e_{gateway}"), *((gateway, node_id) if join
                                                      else (node_id, gateway))))
        rules.append(AppliedRule(f"insert_{kind}", (node_id,)))
    return m


def normalize(model: ProcessModel) -> NormalizationOutcome:
    """Full repair pipeline; Rejected only for mixed gateways. The model
    itself comes back, with no rules, when no rule applies to it."""
    hits = _hits(model)
    if hits.mixed:
        return NormalizationOutcome(None, "mixed gateway: " + ", ".join(sorted(hits.mixed)))
    rules: list[AppliedRule] = []
    m = _start_end(model, hits, rules)
    m = _splits_joins(m, hits if m is model else _hits(m), rules)
    return NormalizationOutcome(model=m, applied_rules=tuple(rules))
