"""Independent reference implementations the tests check against.

Everything here deliberately takes a different route from the package:
reachability through networkx, two edge-disjoint paths through
unit-capacity max-flow, unboundedness through an unmemoized
Karp-Miller-style tree, the explorer's report by testing every transition
in every marking, the net reduction in full rounds over a net keyed by
ids, WF-structure by reachability over the arcs, the normalizer's gateway
walk as two mirrored walkers, the workflow-net translation case by case
per node type, p-values through
numeric quadrature in mpmath, three of the log metrics by one walk each
and durations from timedelta's fields,
the lifecycle rule by replaying into a ProcessModel, the report codec as
json.dumps over a dict form and a loader that builds every object through
its constructor, and a session's whole report (`reference_report`) as
these definitions composed. Nine are the package's own earlier paths: the replay as
one ProcessModel update per event (`apply_event`), normalization on copies
whatever it finds, the net as string-keyed transitions that WFNet.of
sorts and numbers, the chart in two passes over the events, the CSV
writer field by field, the event rule as a function that names the
first broken field (`event_problem`), the log reader as a loop that
parses each row on its own (`parse_log_row_by_row`) and the explorer's
acyclicity test as a graphlib toposort (`may_run_forever_by_toposort`), and
each record's constructor as dataclasses' own frozen one (`plain_record`).
The net oracles read a numbered WFNet back by ids through `named`.
Slow and dumb on purpose. `iter_states` is a plain test helper: it yields
the model after each event of a replay.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from collections import deque
from dataclasses import field, fields, make_dataclass, replace
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from functools import lru_cache
from graphlib import CycleError, TopologicalSorter
from itertools import count
from typing import NamedTuple
from xml.sax.saxutils import quoteattr

import networkx as nx

from ppmkit.blocks import Block
from ppmkit.chart import _CLASS_KEY, ROW_HEIGHT, PPMChartSpec
from ppmkit.classify import STAGES, PerspicuityVerdict, SessionReport, _strings
from ppmkit.eventlog import (
    CSV_HEADER,
    KIND_CLASS,
    KIND_OBJECT_TYPE,
    EventClass,
    EventKind,
    EventLog,
    LogFormatError,
    ModelingEvent,
    ObjectType,
    _QUOTE_LIMIT,
    _check_events,
    expand_reconnect,
    format_timestamp,
    parse_timestamp,
)
from ppmkit.metrics import METRIC_NAMES, SessionMetrics
from ppmkit.model import GATEWAY_TYPES, Edge, Node, ProcessModel, typed
from ppmkit.normalize import (
    AppliedRule,
    NormalizationOutcome,
    _common_gateway,
    _fresh,
    _meeting_gateway,
    _sorted_edges,
)
from ppmkit.soundness import VIOLATION_KINDS, SoundnessReport, Violation
from ppmkit.wfnet import SINK_PLACE, SOURCE_PLACE, WFNet


class NamedTransition(NamedTuple):
    id: str
    pre: tuple[str, ...]
    post: tuple[str, ...]


class NamedNet(NamedTuple):
    """A WFNet read by ids, the form the net oracles are written against."""
    places: tuple[str, ...]
    transitions: tuple[NamedTransition, ...]
    source: str
    sink: str


def named(net: WFNet) -> NamedNet:
    """The net with its place and transition numbers read back as ids."""
    name = net.places.__getitem__
    return NamedNet(net.places, tuple(
        NamedTransition(tid, tuple(map(name, pre)), tuple(map(name, post)))
        for tid, pre, post in zip(net.transitions, net.pre, net.post)),
        name(net.source), name(net.sink))


def random_wfnet(seed: int) -> WFNet:
    """Small random workflow net, arc density about 1.5-2.5 per node.

    Half the time a chain skeleton i -> t1 -> p -> ... -> o is laid first,
    which makes structurally covered (and sometimes sound) nets common
    enough to matter; the rest is uniform arc sprinkling.
    """
    rng = random.Random(seed)
    n_extra = rng.randint(1, 8)  # places besides i and o, total <= 10
    n_trans = rng.randint(1, 8)
    places = ["i", "o"] + [f"p{k}" for k in range(1, n_extra + 1)]
    pre_pool = [p for p in places if p != "o"]
    post_pool = [p for p in places if p != "i"]
    trans: list[tuple[str, set[str], set[str]]] = [
        (f"t{k}", set(), set()) for k in range(1, n_trans + 1)
    ]

    if rng.random() < 0.5:
        hops = places[2 : 2 + min(n_extra, n_trans - 1)]
        chain = ["i"] + hops + ["o"]
        for k in range(len(chain) - 1):
            trans[k][1].add(chain[k])
            trans[k][2].add(chain[k + 1])
    for tid, pre, post in trans:
        if not pre:
            pre.add(rng.choice(pre_pool))
        if not post:
            post.add(rng.choice(post_pool))

    arcs = sum(len(pre) + len(post) for _, pre, post in trans)
    target = round(rng.uniform(1.5, 2.5) * (len(places) + n_trans))
    for _ in range(1000):
        if arcs >= target:
            break
        _, pre, post = trans[rng.randrange(n_trans)]
        if rng.random() < 0.5:
            p = rng.choice(pre_pool)
            if p not in pre:
                pre.add(p)
                arcs += 1
        else:
            p = rng.choice(post_pool)
            if p not in post:
                post.add(p)
                arcs += 1

    return WFNet.of(places, trans)


def _arcs(net: NamedNet) -> list[tuple[str, str]]:
    """All (from, to) arcs, place -> transition and transition -> place."""
    return ([(p, t.id) for t in net.transitions for p in t.pre]
            + [(t.id, p) for t in net.transitions for p in t.post])


def _successors(net: NamedNet, marking: tuple[int, ...], index: dict[str, int]):
    out = []
    for t in net.transitions:
        pre = [index[p] for p in t.pre]
        if all(marking[k] >= pre.count(k) for k in pre):
            nxt = list(marking)
            for k in pre:
                nxt[k] -= 1
            for k in (index[p] for p in t.post):
                nxt[k] += 1
            out.append((t.id, tuple(nxt)))
    return out


def _unbounded(net: NamedNet, initial: tuple[int, ...], index: dict[str, int]) -> bool:
    # Unmemoized tree search; a branch stops at a repeat of or strict
    # domination over any marking on its own path. Dickson's lemma keeps
    # every path finite, so the whole tree is finite.
    stack = [(initial, [initial])]
    while stack:
        marking, path = stack.pop()
        for _, child in _successors(net, marking, index):
            if any(child == anc for anc in path):
                continue
            if any(all(a >= b for a, b in zip(child, anc)) for anc in path):
                return True
            stack.append((child, path + [child]))
    return False


def brute_force_soundness(net: WFNet) -> str:
    """'Sound' or 'Unsound', straight from the definition.

    The answer is kept per net, keyed on its ids and arcs: simulated
    sessions end in few distinct nets, and an unsound one can take seconds."""
    return _sound_by_definition(named(net))


@lru_cache
def _sound_by_definition(net: NamedNet) -> str:
    graph = nx.DiGraph()
    graph.add_nodes_from(net.places)
    graph.add_nodes_from(t.id for t in net.transitions)
    graph.add_edges_from(_arcs(net))
    on_path = (nx.descendants(graph, net.source) | {net.source}) & (
        nx.ancestors(graph, net.sink) | {net.sink}
    )
    if set(graph.nodes) - on_path:
        return "Unsound"

    index = {p: k for k, p in enumerate(net.places)}
    initial = tuple(1 if p == net.source else 0 for p in net.places)
    final = tuple(1 if p == net.sink else 0 for p in net.places)
    if _unbounded(net, initial, index):
        return "Unsound"

    state_graph = nx.MultiDiGraph()
    state_graph.add_node(initial)
    frontier = [initial]
    fired = set()
    while frontier:
        marking = frontier.pop()
        for tid, child in _successors(net, marking, index):
            fired.add(tid)
            known = child in state_graph
            state_graph.add_edge(marking, child, key=tid)
            if not known:
                frontier.append(child)

    can_complete = (
        {final} | nx.ancestors(state_graph, final) if final in state_graph else set()
    )
    if set(state_graph.nodes) - can_complete:
        return "Unsound"
    o = index[net.sink]
    if any(m[o] >= 1 and m != final for m in state_graph.nodes):
        return "Unsound"
    if fired != {t.id for t in net.transitions}:
        return "Unsound"
    return "Sound"


def reduces_in_rounds(net: WFNet) -> bool:
    """Whether the reduction rules collapse the net to i -> t -> o, by
    rounds over every place and transition until a round changes nothing.

    Only the source place is marked. The rules, applied until none does:

    1. abstraction: an unmarked place s with producers, whose only consumer
       t has s as its only input, merges into t's producers when t has
       outputs, s is not one of them and no producer of s already outputs
       to one of them;
    2. parallel places: of two unmarked places other than the sink with
       the same producers and the same consumers, one goes;
    3. parallel transitions: of two transitions with the same inputs and
       the same outputs, one goes;
    4. self-loops: a transition whose only input and only output are the
       same place goes. If no other transition touches that place, the
       place is left isolated, and no rule removes an isolated place.
    """
    net = named(net)
    if any(len(set(t.pre)) < len(t.pre) or len(set(t.post)) < len(t.post)
           for t in net.transitions):
        return False  # arc weights above 1 are outside the rules
    pre = {t.id: set(t.pre) for t in net.transitions}
    post = {t.id: set(t.post) for t in net.transitions}
    producers: dict[str, set[str]] = {p: set() for p in net.places}
    consumers: dict[str, set[str]] = {p: set() for p in net.places}
    for t in net.transitions:
        for p in t.pre:
            consumers[p].add(t.id)
        for p in t.post:
            producers[p].add(t.id)
    inner = [p for p in net.places if p not in (net.source, net.sink)]

    def drop_transition(t: str) -> None:
        for p in pre.pop(t):
            consumers[p].discard(t)
        for p in post.pop(t):
            producers[p].discard(t)

    def drop_place(p: str) -> None:
        for t in producers.pop(p):
            post[t].discard(p)
        for t in consumers.pop(p):
            pre[t].discard(p)
        inner.remove(p)

    changed = True
    while changed:
        changed = False
        for s in list(inner):
            if len(consumers[s]) != 1 or not producers[s]:
                continue
            (t,) = consumers[s]
            outs = post[t]
            if pre[t] != {s} or not outs or s in outs:
                continue
            if any(post[u] & outs for u in producers[s]):
                continue
            for u in producers[s]:
                post[u] |= outs
                for p in outs:
                    producers[p].add(u)
            drop_transition(t)
            drop_place(s)
            changed = True

        twins: dict[tuple[frozenset[str], frozenset[str]], str] = {}
        for p in list(inner):
            key = (frozenset(producers[p]), frozenset(consumers[p]))
            if key in twins:
                drop_place(p)
                changed = True
            else:
                twins[key] = p

        twins = {}
        for t in list(pre):
            key = (frozenset(pre[t]), frozenset(post[t]))
            if key in twins:
                drop_transition(t)
                changed = True
            else:
                twins[key] = t

        for t in list(pre):
            if len(pre[t]) == 1 and pre[t] == post[t]:
                drop_transition(t)
                changed = True

    if inner or len(pre) != 1:
        return False
    ((t, ins),) = pre.items()
    return ins == {net.source} and post[t] == {net.sink}


def wf_structured_by_arcs(net: WFNet) -> tuple[bool, tuple[str, ...]]:
    """Whether every place and transition lies on a path from i to o, by
    reachability over the net's (from, to) arcs.

    Returns (ok, offending ids). Uses plain reachability over the arc
    graph; token counts play no role here.
    """
    net = named(net)
    succ: dict[str, list[str]] = {}
    pred: dict[str, list[str]] = {}
    for a, b in _arcs(net):
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


def explore_every_transition(net: WFNet, max_states: int) -> SoundnessReport:
    """The explorer's report, testing every transition in every marking and
    walking every new marking's ancestors for strict domination.

    No enabling index and no shortcut for acyclic nets: the markings, their
    order, witnesses, traces and state count of soundness._explore must
    match this report exactly.
    """
    net = named(net)
    index = {p: k for k, p in enumerate(net.places)}
    compiled = [
        (t.id, tuple(index[p] for p in t.pre), tuple(index[p] for p in t.post))
        for t in net.transitions
    ]
    o_idx = index[net.sink]

    initial = tuple(1 if k == index[net.source] else 0 for k in range(len(net.places)))
    final = tuple(1 if k == o_idx else 0 for k in range(len(net.places)))

    # parent[m] = (parent marking, transition fired to reach m)
    parent: dict[tuple[int, ...], tuple[tuple[int, ...] | None, str | None]] = {
        initial: (None, None)
    }
    total = {initial: 1}  # tokens per marking
    order = [initial]
    succ: dict[tuple[int, ...], list[tuple[str, tuple[int, ...]]]] = {initial: []}
    fired: set[str] = set()
    queue = deque([initial])

    def trace_to(m: tuple[int, ...]) -> tuple[str, ...]:
        steps = []
        while True:
            prev, tid = parent[m]
            if prev is None:
                return tuple(reversed(steps))
            steps.append(tid)
            m = prev

    def as_dict(m: tuple[int, ...]) -> dict[str, int]:
        return {net.places[k]: c for k, c in enumerate(m) if c}

    while queue:
        m = queue.popleft()
        for tid, pre, post in compiled:
            if any(m[k] < pre.count(k) for k in pre):
                continue
            marked = list(m)
            for k in pre:
                marked[k] -= 1
            for k in post:
                marked[k] += 1
            child = tuple(marked)
            succ[m].append((tid, child))
            fired.add(tid)
            if child in parent:
                continue
            # Strict domination of any ancestor on the generation path means
            # the connecting firing sequence can be repeated forever. A strict
            # dominator holds more tokens, so ancestors with as many or more
            # are skipped without a place-by-place comparison.
            tokens = total[m] - len(pre) + len(post)
            anc = m
            while anc is not None:
                if total[anc] < tokens and all(a >= b for a, b in zip(child, anc)):
                    return SoundnessReport(
                        violations=(
                            Violation("Unbounded", witness=as_dict(child),
                                      trace=trace_to(m) + (tid,)),
                        ),
                        states_explored=len(parent),
                    )
                anc = parent[anc][0]
            parent[child] = (m, tid)
            total[child] = tokens
            if len(parent) > max_states:
                return SoundnessReport(
                    violations=(Violation("StateSpaceExceeded"),),
                    states_explored=len(parent),
                )
            order.append(child)
            succ[child] = []
            queue.append(child)

    violations: list[Violation] = []

    # Option to complete: every reachable marking must reach the completion
    # marking. Witness preference: a stuck marking over a live-locked one.
    backward: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for m, outs in succ.items():
        for _, child in outs:
            backward.setdefault(child, []).append(m)
    completing: set[tuple[int, ...]] = set()
    if final in parent:
        completing.add(final)
        stack = [final]
        while stack:
            for prev in backward.get(stack.pop(), ()):
                if prev not in completing:
                    completing.add(prev)
                    stack.append(prev)
    stranded = [m for m in order if m not in completing]
    if stranded:
        witness = next((m for m in stranded if not succ[m]), stranded[0])
        violations.append(
            Violation("DeadlockNoCompletion", witness=as_dict(witness),
                      trace=trace_to(witness))
        )

    # Proper completion: a token on the sink means exactly the completion
    # marking, nothing more.
    for m in order:
        if m[o_idx] >= 1 and m != final:
            violations.append(
                Violation("ImproperCompletion", witness=as_dict(m), trace=trace_to(m))
            )
            break

    for t in net.transitions:
        if t.id not in fired:
            violations.append(Violation("DeadTransition", witness=t.id))

    return SoundnessReport(tuple(violations), len(parent))


def may_run_forever_by_toposort(net: WFNet) -> bool:
    """Whether the net has a transition without inputs, or a cycle that
    graphlib's TopologicalSorter finds among the places, p -> q when a
    transition takes p and gives q."""
    if not all(net.pre):
        return True
    try:
        TopologicalSorter({p: {q for t in ts for q in net.post[t]}
                           for p, ts in enumerate(net.consumers)}).prepare()
    except CycleError:
        return True
    return False


def edge_disjoint_path_count(model: ProcessModel, source: str, sink: str,
                             cap: int = 2) -> int:
    """Count edge-disjoint directed paths, up to `cap` (unit-capacity flow)."""
    if source == sink:
        return 0
    flow: dict[str, bool] = {}
    found = 0
    while found < cap:
        parent: dict[str, tuple[str, bool, str]] = {}
        seen = {source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == sink:
                break
            for e in model.out_edges(u):
                if not flow.get(e.id) and e.target not in seen:
                    seen.add(e.target)
                    parent[e.target] = (e.id, True, u)
                    queue.append(e.target)
            for e in model.in_edges(u):
                if flow.get(e.id) and e.source not in seen:
                    seen.add(e.source)
                    parent[e.source] = (e.id, False, u)
                    queue.append(e.source)
        if sink not in seen:
            break
        v = sink
        while v != source:
            eid, fwd, u = parent[v]
            flow[eid] = fwd
            v = u
        found += 1
    return found


def dominators_by_removal(model: ProcessModel,
                          root: str) -> tuple[dict[str, str], dict[str, int]]:
    """Each node `root` reaches, but the root, mapped to its immediate
    dominator and to its number of ways in, from the definitions: v
    dominates w when w is unreachable from `root` once v is removed; the
    immediate dominator of w is the one strict dominator of w that all the
    others dominate; an in-flow (p, w) from a reached p other than w is a
    way in unless w dominates p."""
    def reach(removed):
        seen = {root} - {removed}
        stack = list(seen)
        while stack:
            for t in model.successors(stack.pop()):
                if t != removed and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    reached = reach(None)
    dominated = {v: reached - reach(v) for v in reached}  # v itself included
    dominators = {w: {v for v in reached if w in dominated[v]} for w in reached}
    idom, ways = {}, {}
    for w in reached - {root}:
        strict = dominators[w] - {w}
        idom[w], = (d for d in strict if strict <= dominators[d])
        ways[w] = sum(1 for p in model.predecessors(w)
                      if p in reached and p != w and p not in dominated[w])
    return idom, ways


def _gateway_ids(model: ProcessModel) -> list[str]:
    return sorted(n.id for n in model.nodes.values() if n.type in GATEWAY_TYPES)


def find_block_pairs_maxflow(model: ProcessModel) -> list[tuple[str, str, frozenset[str]]]:
    """All (split, join, member nodes) blocks of a model, sorted by
    (split, join), by testing every split x join pair.

    A pair is a block when the join has two edge-disjoint paths from the
    split (a max-flow), and no node strictly between them (reached from
    the split and reaching the join) has an edge to or from a non-member.
    """
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(model.nodes)
    graph.add_edges_from((e.source, e.target) for e in model.edges.values())
    splits = [g for g in _gateway_ids(model) if model.out_degree(g) >= 2]
    joins = [g for g in _gateway_ids(model) if model.in_degree(g) >= 2]
    out = []
    for s in splits:
        descendants = nx.descendants(graph, s) | {s}
        for j in joins:
            if j == s or j not in descendants or edge_disjoint_path_count(model, s, j) < 2:
                continue
            interior = (descendants & nx.ancestors(graph, j)) - {s, j}
            members = interior | {s, j}
            if all(e.source in members and e.target in members
                   for v in interior for e in model.in_edges(v) + model.out_edges(v)):
                out.append((s, j, frozenset(members)))
    return out


def _latest_creates(log: EventLog, until: int) -> dict:
    """Each object's last create event at or before seq `until`: the
    incarnation alive then, if the object was."""
    return {ev.object_id: ev for ev in log.events
            if ev.seq <= until and ev.event_class is EventClass.CREATE}


def _built_whole(members: frozenset[str], log: EventLog, until: int) -> bool:
    created = _latest_creates(log, until)
    spans = [created[oid].seq for oid in members]
    lo, hi = min(spans), max(spans)
    return not any(
        ev.event_class is EventClass.CREATE
        and ev.object_type is not ObjectType.EDGE
        and lo < ev.seq < hi
        and ev.object_id not in members
        for ev in log.events
    )


def whole_share(blocks: list[Block], log: EventLog) -> Fraction | None:
    """Share of blocks built as a whole, recomputed from the log.

    A block is whole when no foreign node is created between the first and
    the last create of its members, each dated by the incarnation alive at
    the block's completion; edge creates never count. Rescans the whole log
    per block instead of reading the flag detection stored.
    """
    if not blocks:
        return None
    return Fraction(sum(_built_whole(b.members, log, b.completion_seq) for b in blocks),
                    len(blocks))


def _require_expanded(log: EventLog):
    if log.has_reconnects():
        raise ValueError("expand reconnect events before computing metrics")


def avg_move_on_moved_elements(log: EventLog) -> Fraction | None:
    """Average number of move operations over elements moved at least once.

    None when nothing was ever moved. Bendpoint edits and edge label drags
    count as moves of the edge.
    """
    _require_expanded(log)
    moves_by_object: dict[str, int] = {}
    for ev in log.events:
        if ev.event_class is EventClass.MOVE:
            moves_by_object[ev.object_id] = moves_by_object.get(ev.object_id, 0) + 1
    if not moves_by_object:
        return None
    return Fraction(sum(moves_by_object.values()), len(moves_by_object))


def perc_num_elements_with_moves(log: EventLog) -> Fraction:
    """Share of elements with at least one move operation.

    The denominator counts every element ever created, including elements
    deleted later: each had its time on the canvas.
    """
    _require_expanded(log)
    created: set[str] = set()
    moved: set[str] = set()
    for ev in log.events:
        if ev.event_class is EventClass.CREATE:
            created.add(ev.object_id)
        elif ev.event_class is EventClass.MOVE:
            moved.add(ev.object_id)
    if not created:
        raise ValueError("empty session: no created elements")
    return Fraction(len(moved), len(created))


def seconds_by_fields(delta: timedelta) -> Fraction:
    """A timedelta in exact seconds, summed from its days, seconds and
    microseconds fields."""
    return Fraction((delta.days * 86_400 + delta.seconds) * 10**6 + delta.microseconds, 10**6)


def tot_create_time(log: EventLog) -> Fraction:
    """Seconds between the first and last create action."""
    _require_expanded(log)
    stamps = [ev.timestamp for ev in log.events if ev.event_class is EventClass.CREATE]
    if not stamps:
        raise ValueError("empty session: no create events")
    return seconds_by_fields(stamps[-1] - stamps[0])


def _edit_edge(model: ProcessModel, ev: ModelingEvent, **changes) -> None:
    """Change an edge's label or bendpoints; its ends stay."""
    model.edges[ev.object_id] = replace(model.edges[ev.object_id], **changes)


def _edit_bendpoints(model: ProcessModel, ev: ModelingEvent) -> None:
    """Add a bendpoint, or move or drop the last one."""
    bendpoints = model.edges[ev.object_id].bendpoints
    if ev.kind is not EventKind.CREATE_EDGE_BENDPOINT:
        bendpoints = bendpoints[:-1]
    if ev.kind is not EventKind.DELETE_EDGE_BENDPOINT:
        bendpoints += (ev.position or (0, 0),)
    _edit_edge(model, ev, bendpoints=bendpoints)


def _reconnect(model: ProcessModel, ev: ModelingEvent) -> None:
    raise ValueError("reconnect events must be expanded before replay")


# (action class, acts on an edge) -> what the event does to the model.
_BY_CLASS = {
    (EventClass.CREATE, False): lambda m, ev: m.add_node(
        Node(ev.object_id, KIND_OBJECT_TYPE[ev.kind], ev.label, ev.position or (0, 0))),
    (EventClass.CREATE, True): lambda m, ev: m.add_edge(
        Edge(ev.object_id, ev.source_id, ev.target_id, ev.label)),
    (EventClass.DELETE, False): lambda m, ev: m.remove_node(ev.object_id),
    (EventClass.DELETE, True): lambda m, ev: m.remove_edge(ev.object_id),
    # A move without a position keeps the node where it is.
    (EventClass.MOVE, False): lambda m, ev: m.update_node(ev.object_id, position=ev.position),
    (EventClass.MOVE, True): _edit_bendpoints,
    (EventClass.OTHER, False): lambda m, ev: m.update_node(ev.object_id, label=ev.label),
    (EventClass.OTHER, True): lambda m, ev: _edit_edge(m, ev, label=ev.label),
    (EventClass.RECONNECT, True): _reconnect,
}
_APPLY = {kind: _BY_CLASS[(cls, KIND_OBJECT_TYPE[kind] is ObjectType.EDGE)]
          for kind, cls in KIND_CLASS.items()}
# A cosmetic label drag changes nothing, but its edge must exist.
_APPLY[EventKind.MOVE_EDGE_LABEL] = lambda m, ev: m.edges[ev.object_id]


def apply_event(model: ProcessModel, event: ModelingEvent) -> None:
    """Apply one event to the model in place, one ProcessModel update per
    event; an action on an object the model does not hold raises
    ValueError."""
    try:
        _APPLY[event.kind](model, event)
    except KeyError as exc:
        raise ValueError(f"cannot apply {event.kind.value} at seq {event.seq}: "
                         f"no such object {exc.args[0]}") from None
    except ValueError as exc:
        raise ValueError(f"cannot apply {event.kind.value} at seq {event.seq}: {exc}") from None


def replay_event_by_event(log: EventLog) -> ProcessModel:
    """The final model by applying each event to a ProcessModel in turn."""
    model = ProcessModel()
    for event in log.events:
        apply_event(model, event)
    return model


def replays(events) -> bool:
    """Whether `events` replay into a ProcessModel: apply_event takes each
    in turn, a reconnect as a delete plus a create of its edge.

    An event whose kind names another type than its object's is refused
    here, since update_node and remove_node do not look at types.
    """
    model = ProcessModel()
    for ev in events:
        node = model.nodes.get(ev.object_id)
        if (node is not None and ev.event_class is not EventClass.CREATE
                and node.type is not ev.object_type):
            return False
        steps = [ev]
        if ev.kind is EventKind.RECONNECT_EDGE:
            steps = [replace(ev, kind=EventKind.DELETE_EDGE, source_id=None, target_id=None),
                     replace(ev, kind=EventKind.CREATE_EDGE)]
        try:
            for step in steps:
                apply_event(model, step)
        except ValueError:
            return False
    return True


def iter_states(log: EventLog):
    """Yield (event, model) after each event, for checks on every
    intermediate model of a replay.

    The same mutable model object is yielded every time; callers that need
    a snapshot must copy it.
    """
    model = ProcessModel()
    for event in log.events:
        apply_event(model, event)
        yield event, model


def blocks_dated_all_pairs(log: EventLog) -> list[Block]:
    """The final model's blocks, dated by rescanning every gateway pair.

    After every create or delete, every split x join pair of the model as
    it stands is tested by max-flow; a pair's first qualifying event dates it,
    and its members by the creates of the incarnations alive then. Then
    the pairs that are blocks of the final model are reported. The log
    must have its reconnect events expanded.
    """
    first_completed: dict[tuple[str, str], tuple[int, frozenset[str]]] = {}
    current = ProcessModel()
    for ev in log.events:
        apply_event(current, ev)
        if ev.event_class not in (EventClass.CREATE, EventClass.DELETE):
            continue
        for s, j, members in find_block_pairs_maxflow(current):
            first_completed.setdefault((s, j), (ev.seq, members))

    blocks = []
    for s, j, _ in find_block_pairs_maxflow(current):
        seq, members = first_completed[(s, j)]
        created = _latest_creates(log, seq)
        stamps = [created[oid].timestamp for oid in members]
        blocks.append(Block(split=s, join=j, members=members, completion_seq=seq,
                            interval=(min(stamps), max(stamps)),
                            whole=_built_whole(members, log, seq)))
    blocks.sort(key=lambda b: (b.completion_seq, b.split, b.join))
    return blocks


def scan_adjacency(model: ProcessModel, node_id: str) -> dict:
    """A node's edges, neighbours and degrees by scanning every edge."""
    ins: list[Edge] = [e for e in model.edges.values() if e.target == node_id]
    outs: list[Edge] = [e for e in model.edges.values() if e.source == node_id]
    return {
        "in_edges": ins,
        "out_edges": outs,
        "predecessors": [e.source for e in ins],
        "successors": [e.target for e in outs],
        "in_degree": len(ins),
        "out_degree": len(outs),
    }


def forward_merge_gateway(model: ProcessModel, node: str,
                          check_first: bool = False) -> str | None:
    """Follow the unique outgoing chain until a node with in-degree > 1.

    Returns that node if it is a gateway. None when the chain forks, dead-
    ends, loops, or the merge point is not a gateway. With check_first the
    starting node itself may be the merge point.
    """
    current = node
    seen = {node}
    if check_first and model.in_degree(current) > 1:
        return current if model.is_gateway(current) else None
    while True:
        outs = model.out_edges(current)
        if len(outs) != 1:
            return None
        nxt = outs[0].target
        if nxt in seen:
            return None
        if model.in_degree(nxt) > 1:
            return nxt if model.is_gateway(nxt) else None
        seen.add(nxt)
        current = nxt


def backward_split_gateway(model: ProcessModel, node: str,
                           check_first: bool = False) -> str | None:
    """Mirror of forward_merge_gateway: walk back to the first node with
    out-degree > 1."""
    current = node
    seen = {node}
    if check_first and model.out_degree(current) > 1:
        return current if model.is_gateway(current) else None
    while True:
        ins = model.in_edges(current)
        if len(ins) != 1:
            return None
        prv = ins[0].source
        if prv in seen:
            return None
        if model.out_degree(prv) > 1:
            return prv if model.is_gateway(prv) else None
        seen.add(prv)
        current = prv


def parse_timestamp_strptime(text: str) -> datetime:
    """The strptime definition of eventlog.parse_timestamp.

    Looser than the documented shape: it also takes one-digit fields,
    lower-case T and Z and non-ASCII digits.
    """
    try:
        ts = datetime.strptime(text, "%Y-%m-%dT%H:%M:%S.%fZ").replace(tzinfo=timezone.utc)
    except ValueError:
        raise ValueError(f"bad timestamp {text!r}") from None
    if ts.microsecond % 1000 != 0:
        raise ValueError(f"timestamp {text!r} not millisecond-aligned")
    return ts


def t_p_value(t: float, df: int) -> float:
    """Two-tailed Student-t p-value by numeric quadrature."""
    from mpmath import gamma, inf, mp, mpf, pi, quad, sqrt

    mp.dps = 30
    v = mpf(df)
    norm = gamma((v + 1) / 2) / (sqrt(v * pi) * gamma(v / 2))

    def density(x):
        return norm * (1 + x * x / v) ** (-(v + 1) / 2)

    return float(2 * quad(density, [abs(t), inf]))


def models_isomorphic(left: ProcessModel, right: ProcessModel,
                      pinned_ids: set[str]) -> bool:
    """Graph isomorphism where nodes in pinned_ids must map to themselves
    and all nodes must preserve their type. Fresh ids are free to differ."""

    def to_graph(model: ProcessModel) -> nx.MultiDiGraph:
        graph = nx.MultiDiGraph()
        for node in model.nodes.values():
            graph.add_node(
                node.id,
                type=node.type.value,
                pin=node.id if node.id in pinned_ids else None,
            )
        for edge in model.edges.values():
            graph.add_edge(edge.source, edge.target)
        return graph

    return nx.is_isomorphic(
        to_graph(left),
        to_graph(right),
        node_match=lambda a, b: a["type"] == b["type"] and a["pin"] == b["pin"],
    )


def _wf_place(edge_id: str) -> str:
    return f"p_{edge_id}"


def to_wfnet_by_node_type(model: ProcessModel) -> WFNet:
    """The workflow-net translation written out once per node type, each
    XOR side on its own."""
    places = [SOURCE_PLACE, SINK_PLACE] + [_wf_place(e) for e in sorted(model.edges)]
    transitions: list[tuple] = []  # (id, pre, post)
    for node_id in sorted(model.nodes):
        node = model.nodes[node_id]
        in_places = [_wf_place(e.id) for e in model.in_edges(node_id)]
        out_places = [_wf_place(e.id) for e in model.out_edges(node_id)]
        if node.type is ObjectType.START_EVENT:
            transitions.append(
                (f"t_{node_id}", [SOURCE_PLACE] + in_places, out_places))
        elif node.type is ObjectType.END_EVENT:
            transitions.append(
                (f"t_{node_id}", in_places, [SINK_PLACE] + out_places))
        elif node.type is ObjectType.ACTIVITY:
            if len(in_places) > 1 or len(out_places) > 1:
                raise ValueError(f"activity {node_id} has multiple flows on one side; "
                                 "normalize the model first")
            transitions.append((f"t_{node_id}", in_places, out_places))
        elif node.type is ObjectType.AND:
            transitions.append((f"t_{node_id}", in_places, out_places))
        else:  # XOR: one transition per branch
            if len(in_places) >= 2 and len(out_places) >= 2:
                raise ValueError(f"mixed XOR gateway {node_id}; normalize rejects this")
            if len(out_places) >= 2:
                for e in sorted(model.out_edges(node_id), key=lambda e: e.id):
                    transitions.append(
                        (f"t_{node_id}_{e.id}", in_places, [_wf_place(e.id)]))
            elif len(in_places) >= 2:
                for e in sorted(model.in_edges(node_id), key=lambda e: e.id):
                    transitions.append(
                        (f"t_{node_id}_{e.id}", [_wf_place(e.id)], out_places))
            else:
                transitions.append((f"t_{node_id}", in_places, out_places))
    # A repeated id, after the first, takes the least free suffix _2, _3, ...
    ids = [t[0] for t in transitions]
    for k in range(len(ids)):
        if ids[k] in ids[:k]:
            ids[k] = next(f"{ids[k]}_{n}" for n in count(2)
                          if f"{ids[k]}_{n}" not in ids)
    return WFNet.of(places, [(tid, *t[1:]) for tid, t in zip(ids, transitions)])


def format_timestamp_fields(ts: datetime) -> str:
    """eventlog.format_timestamp field by field."""
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc)
    return (f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}T{ts.hour:02d}:{ts.minute:02d}:"
            f"{ts.second:02d}.{ts.microsecond // 1000:03d}Z")


def event_problem(seq, kind, object_id, source_id, target_id) -> str | None:
    """Why these fields make no ModelingEvent, or None: the rule as a
    function apart from the constructor, checks in the constructor's order."""
    if not isinstance(kind, EventKind):
        return f"unknown event kind {kind!r}"
    if seq < 1:
        return f"seq must be positive, got {seq}"
    if not object_id:
        return "object_id must be non-empty"
    if kind in (EventKind.CREATE_EDGE, EventKind.RECONNECT_EDGE):
        if not source_id or not target_id:
            return f"{kind.value} requires source_id and target_id"
    elif source_id or target_id:
        return f"{kind.value} must not carry edge endpoints"
    return None


def serialize_log_by_fields(log: EventLog) -> str:
    """eventlog.serialize_log with each field converted to its string here."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for ev in log.events:
        x, y = ("", "") if ev.position is None else (str(ev.position[0]), str(ev.position[1]))
        writer.writerow(
            [
                str(ev.seq),
                format_timestamp(ev.timestamp),
                ev.kind.value,
                ev.object_id,
                ev.object_type.value,
                x,
                y,
                ev.label or "",
                ev.source_id or "",
                ev.target_id or "",
            ]
        )
    return out.getvalue()




def _is_int(text: str) -> bool:
    """The one integer form serialize_log writes, of at most 640 digits:
    int() reads that many under any sys.set_int_max_str_digits."""
    return re.fullmatch("0|-?[1-9][0-9]*", text) is not None and len(text.lstrip("-")) <= 640


def _shown(text: str) -> str:
    """A refused field as its message quotes it: whole, or when longer than
    _QUOTE_LIMIT characters its first _QUOTE_LIMIT and its length."""
    if len(text) > _QUOTE_LIMIT:
        return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"
    return repr(text)


def _shown_json(value) -> str:
    """A refused JSON value as its message quotes it: a string as _shown
    gives it, anything else its repr, whole or cut after _QUOTE_LIMIT
    characters and then given its length."""
    if isinstance(value, str):
        return _shown(value)
    text = repr(value)
    if len(text) > _QUOTE_LIMIT:
        return f"{text[:_QUOTE_LIMIT]}... ({len(text)} characters)"
    return text


_KIND_BY_VALUE = {kind.value: kind for kind in EventKind}
_OBJECT_TYPE_BY_VALUE = {otype.value: otype for otype in ObjectType}


def _parse_row(row: list[str], line: int) -> ModelingEvent:
    if len(row) != 10:
        raise LogFormatError(f"expected 10 fields, got {len(row)}", line)
    raw_seq, raw_ts, raw_kind, oid, raw_otype, x, y, label, src, tgt = row
    if not _is_int(raw_seq):
        raise LogFormatError(f"bad seq {_shown(raw_seq)}", line)
    seq = int(raw_seq)
    try:
        ts = parse_timestamp(raw_ts)
    except ValueError as exc:
        raise LogFormatError(str(exc), line) from None
    kind = _KIND_BY_VALUE.get(raw_kind)
    if kind is None:
        raise LogFormatError(f"unknown event {_shown(raw_kind)}", line)
    otype = _OBJECT_TYPE_BY_VALUE.get(raw_otype)
    if otype is None:
        raise LogFormatError(f"unknown object type {_shown(raw_otype)}", line)
    if bool(x) != bool(y):
        raise LogFormatError("x and y must be given together", line)
    position = None
    if x:
        if not (_is_int(x) and _is_int(y)):
            raise LogFormatError(f"bad coordinates {_shown(x)},{_shown(y)}", line)
        position = (int(x), int(y))
    expected = KIND_OBJECT_TYPE[kind]
    if otype is not expected:
        raise LogFormatError(f"{raw_kind} implies object type {expected.value}, got {raw_otype}",
                             line)
    try:
        return ModelingEvent(seq, ts, kind, oid, position, label or None, src or None, tgt or None)
    except ValueError as exc:
        raise LogFormatError(str(exc), line) from None


class _Nul(Exception):
    pass


def _refuse_nul(text: str):
    """The log's lines as csv.reader reads them, stopping at the first line
    that holds NUL, the line Python 3.10's csv module refuses."""
    for line in io.StringIO(text, newline=""):
        if "\0" in line:
            raise _Nul
        yield line


def parse_log_row_by_row(text: str) -> tuple[list[ModelingEvent], bool]:
    """eventlog.parse_log's events and reconnect flag, or its LogFormatError,
    as its row loop gave them before the column checks: each row parsed on
    its own as it is read, each rule a statement of its own, the lifecycle
    walk last. A NUL ends the read at its line on every Python, as 3.10's
    csv module does."""
    reader = csv.reader(_refuse_nul(text))
    events: list[ModelingEvent] = []
    lines: list[int] = []
    try:
        header = next(reader, None)
        if header is None:
            raise LogFormatError("empty input, expected header row", 1)
        if header != CSV_HEADER.split(","):
            raise LogFormatError(f"bad header {_shown(','.join(header))}", 1)
        # A record's number is its first line; a quoted field may span lines.
        line = reader.line_num + 1
        for row in reader:
            if row:
                events.append(_parse_row(row, line))
                lines.append(line)
            line = reader.line_num + 1
    except csv.Error as exc:
        raise LogFormatError(f"malformed CSV: {exc}", reader.line_num) from None
    except _Nul:  # the reader had not yet counted the line it was refused
        raise LogFormatError("malformed CSV: line contains NUL", reader.line_num + 1) from None
    return events, _check_events(events, lines)


def _num(value: float) -> str:
    return f"{value:.2f}"


def render_ppmchart_two_pass(log: EventLog, spec: PPMChartSpec | None = None) -> str:
    """chart.render_ppmchart as two passes over the events: one numbers the
    rows, one draws every dot into its object's list and notes its first x."""
    log = expand_reconnect(log)
    if spec is None:
        spec = PPMChartSpec()
    missing = [key for key in _CLASS_KEY.values() if key not in spec.colors]
    if missing:
        raise ValueError(f"spec colors lack {', '.join(missing)}")
    if not log.events:
        raise ValueError("cannot chart an empty session")

    t_first = log.events[0].timestamp
    t_last = log.events[-1].timestamp
    span = (t_last - t_first).total_seconds()
    if span > spec.window:
        raise ValueError(
            f"session spans {span:.0f}s but the window is {spec.window:.0f}s; "
            "pass a larger window"
        )

    row_of: dict[str, int] = {}
    for ev in log.events:
        if ev.object_id not in row_of:
            row_of[ev.object_id] = len(row_of)

    rows = len(row_of)
    height = spec.height if spec.height is not None else rows * ROW_HEIGHT

    def x_of(ts) -> float:
        return spec.width * (1.0 - (t_last - ts).total_seconds() / spec.window)

    fills = {cls: f"fill={quoteattr(spec.colors[key])}" for cls, key in _CLASS_KEY.items()}
    dots: dict[str, list[str]] = {obj: [] for obj in row_of}
    first_x: dict[str, float] = {}
    for ev in log.events:
        x = x_of(ev.timestamp)
        obj = ev.object_id
        if obj not in first_x:
            first_x[obj] = x
        y = (row_of[obj] + 0.5) * (height / rows)
        dots[obj].append(
            f'    <circle cx="{_num(x)}" cy="{_num(y)}" r="3" '
            f"{fills[ev.event_class]}><title>{ev.seq} {ev.kind.value}</title></circle>"
        )

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_num(spec.width)}" '
        f'height="{_num(height)}" viewBox="0 0 {_num(spec.width)} {_num(height)}">',
        f'  <rect width="{_num(spec.width)}" height="{_num(height)}" fill="white"/>',
    ]
    for obj, row in row_of.items():
        y = (row + 0.5) * (height / rows)
        lines.append(f"  <g class=\"row\" data-object={quoteattr(obj)}>")
        lines.append(
            f'    <line x1="{_num(first_x[obj])}" y1="{_num(y)}" '
            f'x2="{_num(spec.width)}" y2="{_num(y)}" stroke="#ddd"/>'
        )
        lines.extend(dots[obj])
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _metric_value(value):
    return float(value) if isinstance(value, Fraction) else value


def soundness_dict(report: SoundnessReport) -> dict:
    """The dict whose json.dumps(indent=2) is a soundness report's JSON form."""
    return {
        "verdict": report.verdict,
        "states_explored": report.states_explored,
        "violations": [{"kind": v.kind,
                        "witness": list(v.witness) if isinstance(v.witness, tuple)
                        else v.witness,
                        "trace": None if v.trace is None else list(v.trace)}
                       for v in report.violations],
    }


def verdict_dict(verdict: PerspicuityVerdict) -> dict:
    """The dict whose json.dumps(indent=2) is a verdict's JSON form."""
    norm, sound = verdict.normalization, verdict.soundness
    return {
        "perspicuous": verdict.perspicuous,
        "stage": verdict.stage,
        "normalization": {
            "rejected": norm.rejected,
            "reason": norm.reason,
            "applied_rules": [{"rule": r.rule, "nodes": list(r.nodes)}
                              for r in norm.applied_rules],
        },
        "soundness": None if sound is None else soundness_dict(sound),
    }


def session_dict(session_id: str, metrics: SessionMetrics, blocks, verdict=None) -> dict:
    """The dict whose json.dumps(indent=2) is classify.session_json's text."""
    data = {
        "session_id": session_id,
        "metrics": {name: _metric_value(getattr(metrics, name)) for name in METRIC_NAMES},
        "blocks": [{"split": b.split, "join": b.join, "members": sorted(b.members),
                    "interval": [format_timestamp_fields(t) for t in b.interval],
                    "whole": b.whole} for b in blocks],
    }
    if verdict is not None:
        data["verdict"] = verdict_dict(verdict)
    return data


def report_json(report: SessionReport) -> str:
    """SessionReport.to_json as json.dumps(indent=2) over the report's dict."""
    data = session_dict(report.session_id, report.metrics, report.blocks, report.verdict)
    return json.dumps(data, indent=2) + "\n"


def _metrics_from_dict(data: dict) -> SessionMetrics:
    def frac(name: str, optional: bool = False) -> Fraction | None:
        value = data[name]
        if value is None and optional:
            return None
        if type(value) not in (int, float):  # a bool is an int, but no metric
            raise TypeError(f"{name} must be a number, got {_shown_json(value)}")
        return Fraction(value)

    return SessionMetrics(
        max_simul_block=typed(data["max_simul_block"], "max_simul_block", int),
        perc_num_block_as_a_whole=frac("perc_num_block_as_a_whole", optional=True),
        avg_move_on_moved_elements=frac("avg_move_on_moved_elements", optional=True),
        perc_num_elements_with_moves=frac("perc_num_elements_with_moves"),
        tot_time=frac("tot_time"),
        tot_create_time=frac("tot_create_time"),
    )


def _witness(kind: str, w):
    """The witness `kind` writes, one kind at a time: null, a transition
    id, offending ids (as the tuple the check gives), else a marking."""
    if kind == "StateSpaceExceeded":
        shape, ok = "null", w is None
    elif kind == "DeadTransition":
        shape, ok = "a string", isinstance(w, str)
    elif kind == "NotWFStructured":
        shape = "a non-empty list of strings"
        ok = isinstance(w, list) and len(w) > 0 and all(isinstance(x, str) for x in w)
    else:
        shape = "a non-empty object of string to int"
        ok = isinstance(w, dict) and len(w) > 0 and all(
            isinstance(p, str) and isinstance(n, int) and not isinstance(n, bool)
            for p, n in w.items())
    if not ok:
        raise TypeError(f"{kind} witness must be {shape}, got {_shown_json(w)}")
    return tuple(w) if kind == "NotWFStructured" else w


def _verdict_from_dict(data: dict) -> PerspicuityVerdict:
    norm = data["normalization"]
    rejected = typed(norm["rejected"], "rejected", bool)
    reason = typed(norm["reason"], "reason", str, type(None))
    applied = [AppliedRule(typed(r["rule"], "applied rule", str),
                           _strings(r["nodes"], "applied rule nodes"))
               for r in typed(norm["applied_rules"], "applied_rules", list)]
    outcome = NormalizationOutcome(model=None, reason=reason, applied_rules=tuple(applied))
    if rejected != outcome.rejected:
        raise ValueError(f"rejected {rejected} does not match reason {_shown_json(reason)}")
    sound = None
    if data["soundness"] is not None:
        s = data["soundness"]
        violations = []
        for v in typed(s["violations"], "violations", list):
            if v["kind"] not in VIOLATION_KINDS:
                raise TypeError(f"violation kind must be one of {', '.join(VIOLATION_KINDS)}"
                                f", got {_shown_json(v['kind'])}")
            trace = None if v["trace"] is None else _strings(v["trace"], "trace")
            violations.append(Violation(v["kind"], _witness(v["kind"], v["witness"]), trace))
        explored = typed(s["states_explored"], "states_explored", int)
        if explored < 0:
            raise ValueError(f"states_explored must be a non-negative int, got {explored}")
        sound = SoundnessReport(tuple(violations), explored)
        if s["verdict"] != sound.verdict:
            raise ValueError(f"soundness verdict {_shown_json(s['verdict'])} does not match "
                             f"{sound.verdict!r} from its violations")
    perspicuous, stage = typed(data["perspicuous"], "perspicuous", bool), data["stage"]
    if stage not in STAGES:
        raise ValueError(f"unknown stage {_shown_json(stage)}")
    if perspicuous != (stage == "Sound"):
        raise ValueError(f"perspicuous {perspicuous} does not match stage {stage!r}")
    verdict = PerspicuityVerdict(normalization=outcome, soundness=sound)
    if stage != verdict.stage:
        raise ValueError(f"stage {stage!r} does not match {verdict.stage!r} "
                         "from its evidence")
    return verdict


def report_from_dict(data: dict) -> SessionReport:
    """SessionReport.from_dict building every object through its
    constructor, without the checks that a block is one a detector could
    find (its split and join among its members, no member twice, an
    interval in order)."""
    def block(b: dict) -> Block:
        split, join, pair, whole = b["split"], b["join"], b["interval"], b["whole"]
        if (type(split), type(join), type(whole)) != (str, str, bool):
            raise TypeError("block split and join must be strings and whole a bool, "
                            f"got {_shown_json(split)}, {_shown_json(join)}, {_shown_json(whole)}")
        if type(pair) is not list or len(pair) != 2 or {type(pair[0]), type(pair[1])} != {str}:
            raise TypeError(f"interval must be a list of two strings, got {_shown_json(pair)}")
        interval = parse_timestamp(pair[0]), parse_timestamp(pair[1])
        members = frozenset(_strings(b["members"], "members"))
        return Block(split, join, members, 0, interval, whole)

    try:
        blocks = tuple(map(block, typed(data["blocks"], "blocks", list)))
        return SessionReport(
            session_id=typed(data["session_id"], "session_id", str),
            metrics=_metrics_from_dict(data["metrics"]),
            blocks=blocks,
            verdict=_verdict_from_dict(data["verdict"]),
        )
    except KeyError as exc:
        raise ValueError(f"missing key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"wrong value type: {exc}") from None
    except OverflowError as exc:
        raise ValueError(f"bad number: {exc}") from None


def _normalize_start_end_on_a_copy(model: ProcessModel, rules: list) -> ProcessModel:
    """normalize_start_end as it was before it learned to skip models it
    leaves alone: it copies every model and finds each rule's nodes by
    sorted scans of the copy."""
    if not model.nodes:
        raise ValueError("empty model")
    m = model.copy()

    for task in [n.id for n in m.nodes_of_type(ObjectType.ACTIVITY)]:
        if m.in_degree(task) == 0:
            start = _fresh(m, f"start_{task}")
            m.add_node(Node(start, ObjectType.START_EVENT))
            m.add_edge(Edge(_fresh(m, f"e_{start}"), start, task))
            rules.append(AppliedRule("insert_start_event", (task,)))
    for task in [n.id for n in m.nodes_of_type(ObjectType.ACTIVITY)]:
        if m.out_degree(task) == 0:
            end = _fresh(m, f"end_{task}")
            m.add_node(Node(end, ObjectType.END_EVENT))
            m.add_edge(Edge(_fresh(m, f"e_{end}"), task, end))
            rules.append(AppliedRule("insert_end_event", (task,)))

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
        rules.append(AppliedRule("merge_start_events", tuple(starts)))

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
        rules.append(AppliedRule("merge_end_events", tuple(ends)))

    return m


def _normalize_splits_joins_on_a_copy(model: ProcessModel, rules: list) -> ProcessModel:
    """normalize_splits_joins as it was: it copies every model and plans
    from a scan of every node in id order."""
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
        rules.append(AppliedRule(f"insert_{kind}", (node_id,)))

    return m


def normalize_on_copies(model: ProcessModel) -> NormalizationOutcome:
    """The repair pipeline with both stages run on copies, whatever they
    find; the mixed-gateway check over the sorted gateway ids."""
    offenders = tuple(g for g in _gateway_ids(model)
                      if model.in_degree(g) >= 2 and model.out_degree(g) >= 2)
    if offenders:
        return NormalizationOutcome(model=None, reason="mixed gateway: " + ", ".join(offenders))
    rules: list[AppliedRule] = []
    m = _normalize_start_end_on_a_copy(model, rules)
    m = _normalize_splits_joins_on_a_copy(m, rules)
    return NormalizationOutcome(model=m, applied_rules=tuple(rules))


def to_wfnet_by_place_names(model: ProcessModel) -> WFNet:
    """The workflow-net translation over place and transition ids, as
    `to_wfnet` made it before nets were numbered from the model: one
    string-keyed transition per transition, sorted, validated and numbered
    by WFNet.of."""
    places = [SOURCE_PLACE, SINK_PLACE]  # i and o sort before every p_ place
    ins: dict[str, list[str]] = {n: [] for n in model.nodes}
    outs: dict[str, list[str]] = {n: [] for n in model.nodes}
    for e in sorted(model.edges):
        edge, p = model.edges[e], f"p_{e}"
        places.append(p)
        outs[edge.source].append(p)
        ins[edge.target].append(p)
    transitions: list[tuple] = []  # (id, pre, post)
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
                transitions.append((f"t_{node_id}_{p[2:]}", pre if split else (p,),
                                    (p,) if split else post))
        else:
            transitions.append((f"t_{node_id}", pre, post))
    taken = {t[0] for t in transitions}
    if len(taken) < len(transitions):  # a branch id met another transition's id
        seen = set()
        for k, (tid, *rest) in enumerate(transitions):
            if tid in seen:
                n = 2
                while f"{tid}_{n}" in taken:
                    n += 1
                tid = f"{tid}_{n}"
                taken.add(tid)
                transitions[k] = (tid, *rest)
            seen.add(tid)
    return WFNet.of(places, transitions)


def _most_blocks_at_once(blocks: list[Block]) -> int:
    """max_simul_block by counting, at each block's start, the closed
    intervals that hold it: the most overlap is reached at some start."""
    return max((sum(b.interval[0] <= a.interval[0] <= b.interval[1] for b in blocks)
                for a in blocks), default=0)


def reference_report(log: EventLog) -> tuple[SessionMetrics, list[Block], str]:
    """A session's metrics, dated blocks and verdict stage from the slow
    definitions alone: blocks by rescanning every gateway pair, the metrics
    by one walk each, normalization on copies, the net per node type and
    soundness straight from its definition. Only reconnect expansion is
    the package's. A session no stage can take raises ValueError.
    """
    expanded = expand_reconnect(log)
    blocks = blocks_dated_all_pairs(expanded)
    if not expanded.events:
        raise ValueError("empty session: no events")
    span = expanded.events[-1].timestamp - expanded.events[0].timestamp
    metrics = SessionMetrics(
        max_simul_block=_most_blocks_at_once(blocks),
        perc_num_block_as_a_whole=whole_share(blocks, expanded),
        avg_move_on_moved_elements=avg_move_on_moved_elements(expanded),
        perc_num_elements_with_moves=perc_num_elements_with_moves(expanded),
        tot_time=Fraction(span // timedelta(microseconds=1), 10**6),
        tot_create_time=tot_create_time(expanded),
    )
    outcome = normalize_on_copies(replay_event_by_event(expanded))
    if outcome.rejected:
        return metrics, blocks, "MixedGateway"
    net = to_wfnet_by_node_type(outcome.model)
    if not wf_structured_by_arcs(net)[0]:
        return metrics, blocks, "NotWFStructured"
    return metrics, blocks, brute_force_soundness(net)


def plain_record(cls) -> type:
    """cls's fields, defaults and __post_init__ under the __init__ that
    dataclass(frozen=True, slots=True) writes itself, which assigns each
    field through the frozen class's object.__setattr__."""
    specs = [(f.name, f.type, field(default=f.default)) for f in fields(cls)]
    post = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return make_dataclass(cls.__qualname__, specs, namespace=post, frozen=True, slots=True)
