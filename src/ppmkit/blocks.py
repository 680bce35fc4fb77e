"""Detect gateway blocks in replayed models and date their construction.

A block is a split gateway, a matching join gateway, and every node built
between them: at least two edge-disjoint directed paths from split to join,
with the nodes on those paths connected only within the block (single
entry, single exit). Edges are never block members; blocks are about where
the modeler placed the nodes. Each block found in the final model is dated
by the event at which it first satisfied the definition during replay and
by the create timestamps of the member nodes present at that moment.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime
from fractions import Fraction
from operator import itemgetter

from .eventlog import KIND_CLASS, EventClass, EventKind, EventLog, ModelingEvent, format_timestamp
from .model import ProcessModel
from .replay import apply_event


@dataclass(frozen=True)
class Block:
    split: str
    join: str
    members: frozenset[str]  # node ids, split and join included
    completion_seq: int  # event at which the pair first formed a block
    interval: tuple[datetime, datetime]  # first to last member create
    whole: bool  # no foreign node created inside the member-create span

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "join": self.join,
            "members": sorted(self.members),
            "interval": [format_timestamp(t) for t in self.interval],
            "whole": self.whole,
        }


def _reverse_postorder(model: ProcessModel, start: str) -> list[str]:
    """Every node reachable from `start`, in reverse postorder of a DFS."""
    post: list[str] = []
    seen = {start}
    stack = [(start, iter(model.successors(start)))]
    while stack:
        u, successors = stack[-1]
        for v in successors:
            if v not in seen:
                seen.add(v)
                stack.append((v, iter(model.successors(v))))
                break
        else:
            stack.pop()
            post.append(u)
    post.reverse()
    return post


def _two_path_nodes(model: ProcessModel, s: str) -> tuple[set[str], set[str]]:
    """The nodes `s` reaches, and those it reaches by two edge-disjoint paths.

    By Menger's theorem, v has two edge-disjoint paths from s exactly when
    no single edge lies on every path to it. One iterative dominator pass
    (Cooper, Harvey & Kennedy 2001) in reverse postorder decides this for
    every descendant: an in-edge (p, v) is a separate way in unless v
    dominates p, and v is cut by one edge when it has fewer than two ways
    in or its immediate dominator is cut.
    """
    order = _reverse_postorder(model, s)
    rank = {v: k for k, v in enumerate(order)}
    preds = {v: [p for p in model.predecessors(v) if p in rank and p != v]
             for v in order}
    idom = {s: s}

    def climb(a: str, above: str) -> str:
        while rank[a] > rank[above]:
            a = idom[a]
        return a

    def intersect(a: str, b: str) -> str:
        while a != b:
            a = climb(a, b)
            b = climb(b, a)
        return a

    changed = True
    while changed:
        changed = False
        for v in order[1:]:
            new = None
            for p in preds[v]:
                if p in idom:
                    new = p if new is None else intersect(p, new)
            if idom.get(v) != new:
                idom[v] = new
                changed = True

    cut = {s: False}
    for v in order[1:]:
        # climb returns p at once when p comes before v: v cannot dominate it.
        ways = sum(1 for p in preds[v] if climb(p, v) != v)
        cut[v] = ways < 2 or cut[idom[v]]
    return set(order), {v for v, is_cut in cut.items() if not is_cut and v != s}


def _block_members(model: ProcessModel, s: str, j: str,
                   descendants: set[str]) -> frozenset[str] | None:
    """The members of the block from split `s` to join `j`, or None when an
    interior node has an edge to or from outside; `j` has two edge-disjoint
    paths from `s`, and `descendants` is everything `s` reaches."""
    # The members are the descendants of s that reach j. A path from one of
    # them to j stays among the descendants, so a backward search from j
    # confined to them finds all, and stops at the first edge into the
    # interior from outside.
    members = {j}
    stack = [j]
    while stack:
        v = stack.pop()
        for p in model.predecessors(v):
            if p in descendants:
                if p not in members:
                    members.add(p)
                    stack.append(p)
            elif v != s and v != j:
                return None
    interior = members - {s, j}
    sealed = all(t in members for v in interior for t in model.successors(v))
    return frozenset(members) if sealed else None


def _blocks_from(model: ProcessModel, s: str, joins: list[str]):
    """Yield (join, members) for each of `joins` closing a block at `s`."""
    descendants, two_paths = _two_path_nodes(model, s)
    for j in joins:
        if j in two_paths:
            members = _block_members(model, s, j, descendants)
            if members is not None:
                yield j, members


def find_block_pairs(model: ProcessModel) -> list[tuple[str, str, frozenset[str]]]:
    """All (split, join, member nodes) blocks present in a model.

    Sorted by (split, join). The split needs two or more outgoing flows and
    the join two or more incoming ones; gateway kinds may differ. Loops do
    not qualify: a join upstream of its split has no second disjoint path.
    """
    splits = [g for g in model.gateway_ids() if model.out_degree(g) >= 2]
    joins = [g for g in model.gateway_ids() if model.in_degree(g) >= 2]
    return [(s, j, members) for s in splits for j, members in _blocks_from(model, s, joins)]


def _is_whole(members: frozenset[str], created_seq: dict[str, int],
              node_creates: list[tuple[int, str]]) -> bool:
    # A block was made as a whole if no foreign NODE was created between
    # its first and last member create. Edge creates never break this.
    spans = [created_seq[oid] for oid in members]
    lo, hi = min(spans), max(spans)
    inside = node_creates[bisect_right(node_creates, lo, key=itemgetter(0)):
                          bisect_left(node_creates, hi, key=itemgetter(0))]
    return all(oid in members for _, oid in inside)


def _replay_and_date(log: EventLog) -> tuple[ProcessModel, list[Block]]:
    """Replay the log; return the final model and its blocks, dated.

    One walk replays the log, indexes when each object was first created
    and keeps the creates and deletes. Only pairs that are blocks in the
    final model are ever reported, so only those are tested while those
    creates and deletes are applied again, each pair until it first
    qualifies: moves, renames and bendpoint edits change neither structure
    nor node types, and a new node is isolated, so only an edge create or
    a delete triggers a test.
    """
    if log.has_reconnects():
        raise ValueError("expand reconnect events before block detection")
    final = ProcessModel()
    created_seq: dict[str, int] = {}
    created_at: dict[str, datetime] = {}
    node_creates: list[tuple[int, str]] = []  # (seq, id), in seq order
    # The creates and deletes in log order, each with whether it can
    # complete a block: a node create makes an isolated node, so it cannot.
    structural: list[tuple[ModelingEvent, bool]] = []
    for ev in log.events:
        apply_event(final, ev)
        event_class = KIND_CLASS[ev.kind]
        if event_class is EventClass.CREATE:
            oid = ev.object_id
            if oid not in created_seq:
                created_seq[oid] = ev.seq
                created_at[oid] = ev.timestamp
            edge = ev.kind is EventKind.CREATE_EDGE
            if not edge:
                node_creates.append((ev.seq, oid))
            structural.append((ev, edge))
        elif event_class is EventClass.DELETE:
            structural.append((ev, True))

    pending: dict[str, list[str]] = {}
    for s, j, _ in find_block_pairs(final):
        pending.setdefault(s, []).append(j)
    first_completed: dict[tuple[str, str], tuple[int, frozenset[str]]] = {}
    current = ProcessModel()
    for ev, completes in structural:
        if not pending:
            break
        apply_event(current, ev)
        if not completes:
            continue
        dated = len(first_completed)
        for s, joins in pending.items():
            # An unstrict log may recreate a deleted id as another type.
            if not (s in current.nodes and current.is_gateway(s)
                    and current.out_degree(s) >= 2):
                continue
            ready = [j for j in joins if j in current.nodes and current.is_gateway(j)
                     and current.in_degree(j) >= 2]
            if ready:
                for j, members in _blocks_from(current, s, ready):
                    first_completed[(s, j)] = (ev.seq, members)
        if len(first_completed) > dated:
            pending = {s: rest for s, joins in pending.items()
                       if (rest := [j for j in joins if (s, j) not in first_completed])}

    blocks: list[Block] = []
    for (s, j), (seq, members) in first_completed.items():
        stamps = [created_at[oid] for oid in members]
        blocks.append(
            Block(
                split=s,
                join=j,
                members=members,
                completion_seq=seq,
                interval=(min(stamps), max(stamps)),
                whole=_is_whole(members, created_seq, node_creates),
            )
        )
    blocks.sort(key=lambda b: (b.completion_seq, b.split, b.join))
    return final, blocks


def detect_blocks(model: ProcessModel, log: EventLog) -> list[Block]:
    """Find the model's blocks and date them against the log that built it.

    The log must have reconnect events expanded already, and `model` must be
    what replaying the log produces; anything else is a caller bug. Members
    are the nodes present when the pair first qualified, so later edits
    neither extend a block's interval nor change its whole-block status.
    """
    final, blocks = _replay_and_date(log)
    if final != model:
        raise ValueError("model is not the final model of the log")
    return blocks


def max_simul_block(blocks: list[Block]) -> int:
    """Most blocks under construction at once; intervals are closed, so a
    block ending exactly when another starts counts as overlap."""
    points = []
    for b in blocks:
        start, end = b.interval
        points.append((start, 0))  # starts sort before ends at equal time
        points.append((end, 1))
    points.sort()
    best = current = 0
    for _, kind in points:
        if kind == 0:
            current += 1
            best = max(best, current)
        else:
            current -= 1
    return best


def perc_blocks_as_whole(blocks: list[Block]) -> Fraction | None:
    """Fraction of blocks built without foreign node creates interleaved.

    None when there are no blocks: the ratio is undefined, not zero.
    """
    if not blocks:
        return None
    return Fraction(sum(1 for b in blocks if b.whole), len(blocks))
