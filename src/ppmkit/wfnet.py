"""Translate normalized models into workflow nets.

Every sequence flow becomes a place; a fresh source place i feeds the
start event's transition and the end event's transition fills a fresh sink
place o. Activities and AND gateways become single transitions. An XOR
gateway becomes one transition per branch, which is what makes it a
choice: each transition competes for the same input token (split) or
produces into the same output place (join).
"""

from __future__ import annotations

from dataclasses import dataclass

from .eventlog import ObjectType
from .model import ProcessModel

SOURCE_PLACE = "i"
SINK_PLACE = "o"


@dataclass(frozen=True)
class Transition:
    id: str
    pre: tuple[str, ...]
    post: tuple[str, ...]
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "pre", tuple(sorted(self.pre)))
        object.__setattr__(self, "post", tuple(sorted(self.post)))


@dataclass(frozen=True)
class WFNet:
    places: tuple[str, ...]
    transitions: tuple[Transition, ...]
    source: str = SOURCE_PLACE
    sink: str = SINK_PLACE

    def __post_init__(self):
        object.__setattr__(self, "places", tuple(sorted(self.places)))
        object.__setattr__(
            self, "transitions", tuple(sorted(self.transitions, key=lambda t: t.id))
        )
        place_set = set(self.places)
        if len(place_set) != len(self.places):
            raise ValueError("duplicate place ids")
        ids = [t.id for t in self.transitions]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate transition ids")
        if self.source not in place_set or self.sink not in place_set:
            raise ValueError("source and sink must be places")
        for t in self.transitions:
            for p in t.pre + t.post:
                if p not in place_set:
                    raise ValueError(f"transition {t.id} touches unknown place {p}")
            if self.source in t.post:
                raise ValueError(f"transition {t.id} feeds the source place")
            if self.sink in t.pre:
                raise ValueError(f"transition {t.id} consumes the sink place")

    def arcs(self) -> list[tuple[str, str]]:
        """All (from, to) arcs, place→transition and transition→place."""
        out = []
        for t in self.transitions:
            out.extend((p, t.id) for p in t.pre)
            out.extend((t.id, p) for p in t.post)
        return out


def _place(edge_id: str) -> str:
    return f"p_{edge_id}"


def to_wfnet(model: ProcessModel) -> WFNet:
    """Map a model to its workflow net.

    Intended for normalized models. Activities with more than one flow on
    a side, and XOR gateways mixing 2+ in with 2+ out, have no single-net
    reading and raise. Degenerate but unambiguous shapes (a missing start
    event, a dangling gateway) translate to structurally broken nets and
    are left for the soundness check to reject.
    """
    places = [SOURCE_PLACE, SINK_PLACE] + [_place(e) for e in sorted(model.edges)]
    transitions: list[Transition] = []
    for node_id in sorted(model.nodes):
        node = model.nodes[node_id]
        ins, outs = model.in_edges(node_id), model.out_edges(node_id)
        pre = [_place(e.id) for e in ins]
        post = [_place(e.id) for e in outs]
        if node.type is ObjectType.START_EVENT:
            pre.append(SOURCE_PLACE)
        elif node.type is ObjectType.END_EVENT:
            post.append(SINK_PLACE)
        elif node.type is ObjectType.ACTIVITY and (len(ins) > 1 or len(outs) > 1):
            raise ValueError(f"activity {node_id} has multiple flows on one side; "
                             "normalize the model first")
        if node.type is ObjectType.XOR and (len(ins) > 1 or len(outs) > 1):
            if len(ins) > 1 and len(outs) > 1:
                raise ValueError(f"mixed XOR gateway {node_id}; normalize rejects this")
            # one transition per flow on the branching side
            split = len(outs) > 1
            for e in outs if split else ins:
                branch = [_place(e.id)]
                transitions.append(Transition(f"t_{node_id}_{e.id}", pre if split else branch,
                                              branch if split else post, label=node.label))
        else:
            transitions.append(Transition(f"t_{node_id}", pre, post, label=node.label))
    return WFNet(places=tuple(places), transitions=tuple(transitions))


def is_wf_structured(net: WFNet) -> tuple[bool, tuple[str, ...]]:
    """Whether every place and transition lies on a path from i to o.

    Returns (ok, offending ids). Uses plain reachability over the arc
    graph; token counts play no role here.
    """
    succ: dict[str, list[str]] = {}
    pred: dict[str, list[str]] = {}
    for a, b in net.arcs():
        succ.setdefault(a, []).append(b)
        pred.setdefault(b, []).append(a)

    def reach(start: str, adj: dict[str, list[str]]) -> set[str]:
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adj.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    covered = reach(net.source, succ) & reach(net.sink, pred)
    everything = set(net.places) | {t.id for t in net.transitions}
    offending = tuple(sorted(everything - covered))
    return not offending, offending

