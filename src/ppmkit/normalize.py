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
split/join insertion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .eventlog import ObjectType
from .model import Edge, Node, ProcessModel


@dataclass(frozen=True)
class AppliedRule:
    rule: str
    nodes: tuple[str, ...]


@dataclass(frozen=True)
class NormalizationOutcome:
    model: ProcessModel | None
    reason: str | None = None  # why the model was rejected; None when repaired
    applied_rules: tuple[AppliedRule, ...] = ()

    @property
    def rejected(self) -> bool:
        return self.reason is not None


def check_mixed_gateways(model: ProcessModel) -> tuple[str, ...]:
    """Gateways that both join and split (2+ in and 2+ out), sorted."""
    return tuple(
        g
        for g in model.gateway_ids()
        if model.in_degree(g) >= 2 and model.out_degree(g) >= 2
    )


def _fresh(model: ProcessModel, base: str) -> str:
    if base not in model.nodes and base not in model.edges:
        return base
    n = 2
    while f"{base}_{n}" in model.nodes or f"{base}_{n}" in model.edges:
        n += 1
    return f"{base}_{n}"


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


def normalize_start_end(model: ProcessModel,
                        rules: list[AppliedRule] | None = None) -> ProcessModel:
    """Give every source task a start event and every sink task an end
    event, then collapse multiple start (end) events into one behind a
    gateway whose kind is copied from the common merge (fork) gateway of
    the original starting (ending) paths, XOR when there is none."""
    if not model.nodes:
        raise ValueError("empty model")
    applied = rules if rules is not None else []
    m = model.copy()

    for task in [n.id for n in m.nodes_of_type(ObjectType.ACTIVITY)]:
        if m.in_degree(task) == 0:
            start = _fresh(m, f"start_{task}")
            m.add_node(Node(start, ObjectType.START_EVENT))
            m.add_edge(Edge(_fresh(m, f"e_{start}"), start, task))
            applied.append(AppliedRule("insert_start_event", (task,)))
    for task in [n.id for n in m.nodes_of_type(ObjectType.ACTIVITY)]:
        if m.out_degree(task) == 0:
            end = _fresh(m, f"end_{task}")
            m.add_node(Node(end, ObjectType.END_EVENT))
            m.add_edge(Edge(_fresh(m, f"e_{end}"), task, end))
            applied.append(AppliedRule("insert_end_event", (task,)))

    starts = [n.id for n in m.nodes_of_type(ObjectType.START_EVENT)]
    if len(starts) > 1:
        merge = _common_gateway([_meeting_gateway(m, s, forward=True) for s in starts])
        sign = m.nodes[merge].type if merge else ObjectType.XOR
        targets = [e.target for s in starts for e in _sorted_edges(m.out_edges(s))]
        for s in starts:
            m.remove_node(s)
        new_start = _fresh(m, "start")
        gateway = _fresh(m, "g_start")
        m.add_node(Node(new_start, ObjectType.START_EVENT))
        m.add_node(Node(gateway, sign))
        m.add_edge(Edge(_fresh(m, f"e_{new_start}"), new_start, gateway))
        for t in targets:
            if t in m.nodes:  # a start pointing at another start vanishes
                m.add_edge(Edge(_fresh(m, f"e_{gateway}_{t}"), gateway, t))
        applied.append(AppliedRule("merge_start_events", tuple(starts)))

    ends = [n.id for n in m.nodes_of_type(ObjectType.END_EVENT)]
    if len(ends) > 1:
        fork = _common_gateway([_meeting_gateway(m, e, forward=False) for e in ends])
        sign = m.nodes[fork].type if fork else ObjectType.XOR
        sources = [e.source for x in ends for e in _sorted_edges(m.in_edges(x))]
        for x in ends:
            m.remove_node(x)
        new_end = _fresh(m, "end")
        gateway = _fresh(m, "g_end")
        m.add_node(Node(new_end, ObjectType.END_EVENT))
        m.add_node(Node(gateway, sign))
        m.add_edge(Edge(_fresh(m, f"e_{new_end}"), gateway, new_end))
        for s in sources:
            if s in m.nodes:
                m.add_edge(Edge(_fresh(m, f"e_{s}_{gateway}"), s, gateway))
        applied.append(AppliedRule("merge_end_events", tuple(ends)))

    return m


def normalize_splits_joins(model: ProcessModel,
                           rules: list[AppliedRule] | None = None) -> ProcessModel:
    """Bundle multiple flows at activities and events through fresh
    gateways: a join (XOR unless all flows come from one common split
    gateway) before the node, a split (AND unless all flows lead to one
    common join gateway) after it.

    All insertions are decided against the model as it enters this stage,
    so the outcome does not depend on processing order.
    """
    applied = rules if rules is not None else []
    m = model.copy()

    plans: list[tuple[str, str, ObjectType, list[str]]] = []
    for node_id in sorted(model.nodes):
        if model.is_gateway(node_id):
            continue
        ins = _sorted_edges(model.in_edges(node_id))
        if len(ins) > 1:
            origin = _common_gateway(
                [_meeting_gateway(model, e.source, forward=False, check_first=True) for e in ins]
            )
            sign = model.nodes[origin].type if origin else ObjectType.XOR
            plans.append(("join", node_id, sign, [e.id for e in ins]))
        outs = _sorted_edges(model.out_edges(node_id))
        if len(outs) > 1:
            dest = _common_gateway(
                [_meeting_gateway(model, e.target, forward=True, check_first=True) for e in outs]
            )
            sign = model.nodes[dest].type if dest else ObjectType.AND
            plans.append(("split", node_id, sign, [e.id for e in outs]))

    for kind, node_id, sign, edge_ids in plans:
        end = "target" if kind == "join" else "source"
        gateway = _fresh(m, f"{kind[0]}_{node_id}")  # j_<node> or s_<node>
        m.add_node(Node(gateway, sign))
        for eid in edge_ids:  # edges keep their endpoints: re-add under the same id
            edge = m.edges[eid]
            m.remove_edge(eid)
            m.add_edge(replace(edge, **{end: gateway}))
        ends = (gateway, node_id) if kind == "join" else (node_id, gateway)
        m.add_edge(Edge(_fresh(m, f"e_{gateway}"), *ends))
        applied.append(AppliedRule(f"insert_{kind}", (node_id,)))

    return m


def normalize(model: ProcessModel) -> NormalizationOutcome:
    """Full repair pipeline; Rejected only for mixed gateways."""
    offenders = check_mixed_gateways(model)
    if offenders:
        return NormalizationOutcome(model=None, reason="mixed gateway: " + ", ".join(offenders))
    rules: list[AppliedRule] = []
    m = normalize_start_end(model, rules)
    m = normalize_splits_joins(m, rules)
    return NormalizationOutcome(model=m, applied_rules=tuple(rules))
