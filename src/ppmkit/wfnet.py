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

A net has one form, the one the soundness check reads: places and
transitions numbered in id order. No node's label enters it: witnesses
and traces name transitions by id. `to_wfnet` numbers a model's net straight
from the model, and `WFNet.of` numbers a net given by ids, each transition
as (id, pre, post).
"""

from __future__ import annotations

from itertools import count
from operator import itemgetter
from typing import NamedTuple

from .eventlog import ObjectType
from .model import ProcessModel

SOURCE_PLACE = "i"
SINK_PLACE = "o"


class WFNet(NamedTuple):
    """A workflow net with its places and transitions numbered in id order.

    Per transition its input and output place numbers, sorted and repeated
    per arc; per place the numbers of the transitions that give to and
    take from it, once per arc. source and sink are place numbers."""
    places: tuple[str, ...]
    transitions: tuple[str, ...]  # ids
    pre: list[tuple[int, ...]]
    post: list[tuple[int, ...]]
    producers: list[list[int]]
    consumers: list[list[int]]
    source: int
    sink: int

    @staticmethod
    def of(places, transitions) -> WFNet:
        """The net of places and transitions given by id, each transition
        as (id, pre, post) with place ids; the source is i and the sink o."""
        places = tuple(sorted(places))
        ts = sorted(transitions, key=itemgetter(0))
        number = {p: k for k, p in enumerate(places)}
        if len(number) != len(places):
            raise ValueError("duplicate place ids")
        if len({t[0] for t in ts}) != len(ts):
            raise ValueError("duplicate transition ids")
        if SOURCE_PLACE not in number or SINK_PLACE not in number:
            raise ValueError("source and sink must be places")
        for tid, pre, post in ts:
            for p in sorted(pre) + sorted(post):
                if p not in number:
                    raise ValueError(f"transition {tid} touches unknown place {p}")
            if SOURCE_PLACE in post:
                raise ValueError(f"transition {tid} feeds the source place")
            if SINK_PLACE in pre:
                raise ValueError(f"transition {tid} consumes the sink place")
        n = number.__getitem__
        return _numbered(places, [t[0] for t in ts], [tuple(sorted(map(n, t[1]))) for t in ts],
                         [tuple(sorted(map(n, t[2]))) for t in ts], n(SOURCE_PLACE), n(SINK_PLACE))


def _numbered(places: tuple[str, ...], ids: list[str], pre: list[tuple[int, ...]],
              post: list[tuple[int, ...]], source: int, sink: int) -> WFNet:
    """The WFNet of transitions given as columns, in net order."""
    producers: list[list[int]] = [[] for _ in places]
    consumers: list[list[int]] = [[] for _ in places]
    for n, (ins, outs) in enumerate(zip(pre, post)):
        for k in ins:
            consumers[k].append(n)
        for k in outs:
            producers[k].append(n)
    return WFNet(places, tuple(ids), pre, post, producers, consumers, source, sink)


def to_wfnet(model: ProcessModel) -> WFNet:
    """A model's workflow net.

    Intended for normalized models. Activities with more than one flow on
    a side, and XOR gateways mixing 2+ in with 2+ out, have no single-net
    reading and raise. Degenerate but unambiguous shapes (a missing start
    event, a dangling gateway) translate to structurally broken nets and
    are left for the soundness check to reject.
    """
    # i and o sort before every p_ place, so p_<flow> is 2, 3, ... in flow
    # id order, and every pre and post sorts alike by name and by number.
    flows = sorted(model.edges)
    ins: dict[str, list[int]] = {n: [] for n in model.nodes}
    outs: dict[str, list[int]] = {n: [] for n in model.nodes}
    for k, e in enumerate(flows, 2):
        edge = model.edges[e]
        outs[edge.source].append(k)
        ins[edge.target].append(k)
    made = []  # (id, pre, post), by node id, then flow id
    for node_id in sorted(model.nodes):
        node = model.nodes[node_id]
        pre, post = tuple(ins[node_id]), tuple(outs[node_id])
        if node.type is ObjectType.START_EVENT:
            pre = (0, *pre)
        elif node.type is ObjectType.END_EVENT:
            post = (1, *post)
        elif node.type is ObjectType.ACTIVITY and (len(pre) > 1 or len(post) > 1):
            raise ValueError(f"activity {node_id} has multiple flows on one side; "
                             "normalize the model first")
        if node.type is ObjectType.XOR and (len(pre) > 1 or len(post) > 1):
            if len(pre) > 1 and len(post) > 1:
                raise ValueError(f"mixed XOR gateway {node_id}; normalize rejects this")
            split = len(post) > 1  # one transition per flow on the branching side
            made += [(f"t_{node_id}_{flows[k - 2]}", pre if split else (k,),
                      (k,) if split else post) for k in (post if split else pre)]
        else:
            made.append((f"t_{node_id}", pre, post))
    taken = {t[0] for t in made}
    if len(taken) < len(made):  # a branch id met another transition's id
        seen = set()
        for k, (tid, *rest) in enumerate(made):
            if tid in seen:
                tid = next(f"{tid}_{n}" for n in count(2) if f"{tid}_{n}" not in taken)
                taken.add(tid)
                made[k] = (tid, *rest)
            seen.add(tid)
    made.sort(key=itemgetter(0))
    return _numbered((SOURCE_PLACE, SINK_PLACE, *[f"p_{e}" for e in flows]),
                     *([t[k] for t in made] for k in range(3)), 0, 1)


def uncovered(net: WFNet) -> tuple[str, ...]:
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
