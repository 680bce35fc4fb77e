"""Translate normalized models into workflow nets.

Every sequence flow e becomes a place p_e; a fresh source place i feeds
the start event's transition and the end event's transition fills a fresh
sink place o. Activities and AND gateways become single transitions
t_<node>. An XOR gateway with 2+ flows on one side becomes one transition
t_<node>_<flow> per flow on that side, which is what makes it a choice:
each transition competes for the same input token (split) or produces into
the same output place (join). Such an id can meet another transition's (a
split x with flow e1 and a task x_e1 both give t_x_e1): ids are handed out
by node id, then flow id, and a repeated one takes the first suffix _2,
_3, ... that no transition has. An id nothing clashes with stays as it is.

`index_net` numbers a net's places and transitions; the soundness check
reads that one integer form for the structure check, the reduction and
the explorer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


def _sorted_transition(tid: str, pre: tuple[str, ...], post: tuple[str, ...],
                       label: str | None) -> Transition:
    """A Transition whose pre and post are sorted tuples already."""
    t = object.__new__(Transition)
    object.__setattr__(t, "__dict__", {"id": tid, "pre": pre, "post": post, "label": label})
    return t


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


def to_wfnet(model: ProcessModel) -> WFNet:
    """Map a model to its workflow net.

    Intended for normalized models. Activities with more than one flow on
    a side, and XOR gateways mixing 2+ in with 2+ out, have no single-net
    reading and raise. Degenerate but unambiguous shapes (a missing start
    event, a dangling gateway) translate to structurally broken nets and
    are left for the soundness check to reject.
    """
    places = [SOURCE_PLACE, SINK_PLACE]  # i and o sort before every p_ place
    ins: dict[str, list[str]] = {n: [] for n in model.nodes}
    outs: dict[str, list[str]] = {n: [] for n in model.nodes}
    for e in sorted(model.edges):
        edge, p = model.edges[e], f"p_{e}"
        places.append(p)
        outs[edge.source].append(p)
        ins[edge.target].append(p)
    transitions: list[Transition] = []
    for node_id in sorted(model.nodes):
        node = model.nodes[node_id]
        pre, post = tuple(ins[node_id]), tuple(outs[node_id])
        if node.type is ObjectType.START_EVENT:
            pre = (SOURCE_PLACE, *pre)
        elif node.type is ObjectType.END_EVENT:
            post = (SINK_PLACE, *post)
        elif node.type is ObjectType.ACTIVITY and (len(pre) > 1 or len(post) > 1):
            raise ValueError(f"activity {node_id} has multiple flows on one side; "
                             "normalize the model first")
        if node.type is ObjectType.XOR and (len(pre) > 1 or len(post) > 1):
            if len(pre) > 1 and len(post) > 1:
                raise ValueError(f"mixed XOR gateway {node_id}; normalize rejects this")
            # one transition per flow on the branching side
            split = len(post) > 1
            for p in post if split else pre:  # p is p_<flow>
                transitions.append(_sorted_transition(
                    f"t_{node_id}_{p[2:]}", pre if split else (p,), (p,) if split else post,
                    node.label))
        else:
            transitions.append(_sorted_transition(f"t_{node_id}", pre, post, node.label))
    taken = {t.id for t in transitions}
    if len(taken) < len(transitions):  # a branch id met another transition's id
        seen = set()
        for k, t in enumerate(transitions):
            if t.id in seen:
                n = 2
                while f"{t.id}_{n}" in taken:
                    n += 1
                taken.add(f"{t.id}_{n}")
                transitions[k] = t = _sorted_transition(f"{t.id}_{n}", t.pre, t.post, t.label)
            seen.add(t.id)
    return WFNet(places=tuple(places), transitions=tuple(transitions))


class NetIndex(NamedTuple):
    """A net with places and transitions numbered in the net's order.

    Per transition its input and output place numbers, repeated per arc;
    per place the numbers of the transitions that give to and take from
    it, once per arc."""
    places: tuple[str, ...]
    transitions: tuple[str, ...]  # ids
    pre: list[tuple[int, ...]]
    post: list[tuple[int, ...]]
    producers: list[list[int]]
    consumers: list[list[int]]
    source: int
    sink: int


def index_net(net: WFNet) -> NetIndex:
    number = {p: k for k, p in enumerate(net.places)}.__getitem__
    pre = [tuple(map(number, t.pre)) for t in net.transitions]
    post = [tuple(map(number, t.post)) for t in net.transitions]
    producers: list[list[int]] = [[] for _ in net.places]
    consumers: list[list[int]] = [[] for _ in net.places]
    for n, ks in enumerate(pre):
        for k in ks:
            consumers[k].append(n)
    for n, ks in enumerate(post):
        for k in ks:
            producers[k].append(n)
    return NetIndex(net.places, tuple(t.id for t in net.transitions), pre, post,
                    producers, consumers, number(net.source), number(net.sink))


def uncovered(net: NetIndex) -> tuple[str, ...]:
    """Ids of the places and transitions on no path from source to sink, sorted."""

    def reach(start: int, takers: list[list[int]], gives: list[tuple[int, ...]]):
        places, transitions, stack = {start}, set(), [start]
        while stack:
            for t in takers[stack.pop()]:
                if t not in transitions:
                    transitions.add(t)
                    for q in gives[t]:
                        if q not in places:
                            places.add(q)
                            stack.append(q)
        return places, transitions

    ahead, fired = reach(net.source, net.consumers, net.post)
    behind, fed = reach(net.sink, net.producers, net.pre)
    return tuple(sorted(
        [p for k, p in enumerate(net.places) if k not in ahead or k not in behind]
        + [t for n, t in enumerate(net.transitions) if n not in fired or n not in fed]))
