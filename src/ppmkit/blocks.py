"""Detect gateway blocks in replayed models and date their construction.

A block is a split gateway, a matching join gateway, and every node built
between them: at least two edge-disjoint directed paths from split to join,
with the nodes on those paths connected only within the block (single
entry, single exit). Edges are never block members; blocks are about where
the modeler placed the nodes. Each block found in the final model is dated
by the event at which it first satisfied the definition during replay and
by the create timestamps of the member nodes present at that moment.
Every node of a cycle through split and join is a member, being a descendant
of the split that reaches the join; so a loop around a block, entered and left
at gateways outside it, leaves no block.

The search grows with the model. A dominator pass ranks what its split
reaches in reverse postorder and keeps the tree in lists by rank, settled
in one sweep unless a flow enters a node from a higher rank. One pass
answers every split whose dominator subtree no flow leaves, by a climb up
the tree from each join; a split no pass answered roots its own. The dating
walk applies the log's creates and deletes to a new eventlog._Skeleton, the
model's graph class, and after each edge create or delete tests, by the same
climb, the undated splits then present as gateways of two or more out-flows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import datetime
from fractions import Fraction
from operator import itemgetter

from .eventlog import (_CREATE, _DELETE, _EDGE, KIND_CLASS, KIND_OBJECT_TYPE, EventLog,
                       ModelingEvent, _Skeleton, expand_reconnect)
from .model import GATEWAY_TYPES, ProcessModel


@dataclass(frozen=True, slots=True)
class Block:
    split: str
    join: str
    members: frozenset[str]  # node ids, split and join included
    completion_seq: int  # event at which the pair first formed a block
    interval: tuple[datetime, datetime]  # first to last member create
    whole: bool  # no foreign node created inside the member-create span

    def __init__(self, split: str, join: str, members: frozenset[str], completion_seq: int,
                 interval: tuple[datetime, datetime], whole: bool):
        # The slot setters (after the class) skip the frozen __setattr__.
        _set_split(self, split)
        _set_join(self, join)
        _set_members(self, members)
        _set_completion_seq(self, completion_seq)
        _set_interval(self, interval)
        _set_whole(self, whole)


(_set_split, _set_join, _set_members, _set_completion_seq, _set_interval,
 _set_whole) = (Block.__dict__[f.name].__set__ for f in fields(Block))


def _reverse_postorder(out: dict[str, dict[str, str]], start: str) -> list[str]:
    """Every node reachable from `start`, in reverse postorder of a DFS."""
    post: list[str] = []
    seen = {start}
    stack = [(start, iter(out[start].values()))]
    while stack:
        u, successors = stack[-1]
        for v in successors:
            if v not in seen:
                seen.add(v)
                stack.append((v, iter(out[v].values())))
                break
        else:
            stack.pop()
            post.append(u)
    post.reverse()
    return post


def _dominator_tree(graph: _Skeleton, root: str):
    """The nodes `root` reaches in reverse postorder, their ranks, and per
    rank the rank of its immediate dominator and its ways in (0 at the root).

    Cooper, Harvey & Kennedy's iterative algorithm (2001) on ranks, over the
    graph's `_out` dicts. An in-flow (p, v) from p other than v is a way
    into v unless v dominates p. With no in-flow from a higher rank one
    sweep settles every node, each after its in-flows' sources; only a
    reach with such a back flow sweeps until none changes.
    """
    out = graph._out
    order = _reverse_postorder(out, root)
    rank = {v: k for k, v in enumerate(order)}
    preds: list[list[int]] = [[] for _ in order]
    for k, u in enumerate(order):
        for w in out[u].values():
            preds[rank[w]].append(k)
    idom, ways = [0] + [-1] * (len(order) - 1), [0] * len(order)  # -1: not yet swept
    back, changed = False, True
    while changed:
        changed = False
        for v in range(1, len(order)):
            ps = preds[v]
            new, way = ps[0], 0  # the lowest rank, the DFS parent's or below
            for p in ps:
                a = p
                while a > v:  # a flow from a higher rank, which v may dominate
                    a, back = idom[a], True
                way += a != v
                if idom[p] >= 0:  # unset on the first sweep for p ranked at or above v
                    while p != new:
                        while p > new:
                            p = idom[p]
                        while new > p:
                            new = idom[new]
            ways[v] = way
            if idom[v] != new:
                idom[v] = new
                changed = back
    return order, rank, idom, ways


def _block_members(graph: _Skeleton, s: str, j: str, pos: dict[str, int],
                   span: range) -> frozenset[str] | None:
    """The members of the block from split `s` to join `j`, or None when an
    interior node has an edge to or from outside; `j` has two edge-disjoint
    paths from `s`, and a node descends from `s` when its `pos` is in `span`."""
    # The members are the descendants of s that reach j. A path from one of
    # them to j stays among the descendants, so a backward search from j
    # confined to them finds all, and stops at the first edge into the
    # interior from outside.
    members = {j}
    stack = [j]
    while stack:
        v = stack.pop()
        for p in graph._in[v].values():
            if pos.get(p, -1) in span:
                if p not in members:
                    members.add(p)
                    stack.append(p)
            elif v != s and v != j:
                return None
    interior = members - {s, j}
    sealed = all(t in members for v in interior for t in graph._out[v].values())
    return frozenset(members) if sealed else None


def _close_blocks(graph: _Skeleton, joins, tree, answers: dict[int, range], pos: dict[str, int]):
    """Yield (split, join, members) for each of `joins` that closes a block
    at an answered split of `tree`, a _dominator_tree; `answers` maps the
    rank of a split to the span of `pos` its descendants take.

    By Menger's theorem a join has two edge-disjoint paths from a split
    exactly when no single edge lies on every path to it: when every node on
    the dominator tree path (split, join] has two or more ways in. So the
    climb from a join goes up the tree while nodes have two ways in, and
    each answered split it reaches gets its members checked.
    """
    order, rank, idom, ways = tree
    for j in joins:
        v = rank.get(j, 0)  # a join the pass does not reach starts at the root
        while ways[v] >= 2:
            v = idom[v]
            if v in answers:
                members = _block_members(graph, order[v], j, pos, answers[v])
                if members is not None:
                    yield order[v], j, members


def _closed_subtrees(graph: _Skeleton, tree, splits: list[int]):
    """Number a _dominator_tree in preorder, so that each subtree is a range;
    return each node's number and the range of each of `splits`, ranks,
    whose subtree no flow leaves."""
    order, rank, idom, _ = tree
    size = [1] * len(order)
    for v in range(len(order) - 1, 0, -1):
        size[idom[v]] += size[v]
    pre, free = [0] * len(order), [1] * len(order)
    for v in range(1, len(order)):  # a dominator ranks before the nodes it dominates
        pre[v] = free[idom[v]]
        free[idom[v]] += size[v]
        free[v] = pre[v] + 1
    lo, hi = pre[:], pre[:]  # extremes of pre a subtree's flows reach
    for v in range(len(order) - 1, 0, -1):
        for w in graph._out[order[v]].values():
            lo[v], hi[v] = min(lo[v], pre[rank[w]]), max(hi[v], pre[rank[w]])
        up = idom[v]
        lo[up], hi[up] = min(lo[up], lo[v]), max(hi[up], hi[v])
    spans = {s: range(pre[s], pre[s] + size[s]) for s in splits}
    return dict(zip(order, pre)), {s: r for s, r in spans.items() if lo[s] in r and hi[s] in r}


def find_block_pairs(model: ProcessModel) -> list[tuple[str, str, frozenset[str]]]:
    """All (split, join, member nodes) blocks present in a model.

    Sorted by (split, join). The split needs two or more outgoing flows and
    the join two or more incoming ones; gateway kinds may differ. Loops do
    not qualify: a join upstream of its split has no second disjoint path.

    One dominator pass from a split also answers each split whose subtree
    in its tree is closed, left by no flow: that split reaches just its
    subtree, with the dominators and ways in of its own pass. A split no
    pass answered yet roots the next pass, in the order the nodes were
    added, which mostly follows the flow.
    """
    gateways = [g for g, t in model._graph.types.items() if t in GATEWAY_TYPES]
    unanswered = {g: None for g in gateways if model.out_degree(g) >= 2}
    joins = [g for g in gateways if model.in_degree(g) >= 2]
    pairs = []
    while unanswered:
        root = next(iter(unanswered))
        tree = order, rank, _, _ = _dominator_tree(model._graph, root)
        pos, answers = rank, {0: range(len(order))}
        inner = [k for k in map(rank.get, unanswered) if k]  # reached, but not the root
        if inner:  # only a tree holding other splits needs the subtree ranges
            pos, closed = _closed_subtrees(model._graph, tree, inner)
            answers.update(closed)
        for k in answers:
            del unanswered[order[k]]
        pairs.extend(_close_blocks(model._graph, joins, tree, answers, pos))
    pairs.sort(key=itemgetter(0, 1))
    return pairs


def _is_whole(members: frozenset[str], creates: list[ModelingEvent],
              latest: dict[str, int]) -> bool:
    # A block was made as a whole if no foreign NODE was created between
    # its first and last member create. Edge creates never break this.
    at = [latest[oid] for oid in members]
    return all(ev.object_id in members for ev in creates[min(at) + 1:max(at)])


def detect_blocks(model: ProcessModel, log: EventLog) -> list[Block]:
    """Find the model's blocks and date them against the log that built it.

    The log's reconnects are expanded first, so `completion_seq` counts
    the expanded log's events. `model` must have the nodes, node types and
    flows that replaying the log gives, else ValueError; a label, a
    position or a bendpoint shapes no block. Members are the nodes present
    when the pair first qualified, dated by the create of that incarnation
    of each, so later edits neither extend a block's interval nor change
    its whole-block status.

    One walk applies the log's creates and deletes to a new _Skeleton, the
    model's graph class, keeps the node creates in order with each
    node's latest, and tests each pair of the model until it first
    qualifies. A new node is isolated, so only an edge create or a delete
    triggers a test, and only of the undated splits created by then that
    are gateways with two or more out-flows. The walk runs to the end of
    the log, whose structure must be the model's.
    """
    log = expand_reconnect(log)
    joins_of: dict[str, dict[str, None]] = {}  # split -> joins of its blocks
    for s, j, _ in find_block_pairs(model):
        joins_of.setdefault(s, {})[j] = None
    pending: dict[str, dict[str, None]] = {}  # created split -> joins of its undated blocks
    creates: list[ModelingEvent] = []  # node creates, in log order
    latest: dict[str, int] = {}  # node id -> index of its latest create in `creates`
    blocks: list[Block] = []
    current = _Skeleton()
    types = current.types
    for ev in log.events:
        event_class = KIND_CLASS[ev.kind]
        if event_class is _CREATE:
            if KIND_OBJECT_TYPE[ev.kind] is not _EDGE:
                latest[ev.object_id] = len(creates)
                creates.append(ev)
                current.apply(ev)
                if ev.object_id in joins_of:
                    pending[ev.object_id] = joins_of.pop(ev.object_id)
                continue  # a new node is isolated: it completes no block
        elif event_class is not _DELETE:
            continue
        current.apply(ev)
        for s, joins in list(pending.items()):
            # An unstrict log may recreate a deleted id as another type.
            if types.get(s) not in GATEWAY_TYPES or len(current._out[s]) < 2:
                continue
            ready = [j for j in joins
                     if types.get(j) in GATEWAY_TYPES and len(current._in[j]) >= 2]
            if not ready:
                continue
            tree = order, rank, _, _ = _dominator_tree(current, s)
            for _, j, members in _close_blocks(current, ready, tree,
                                               {0: range(len(order))}, rank):
                stamps = [creates[latest[oid]].timestamp for oid in members]
                blocks.append(Block(s, j, members, ev.seq, (min(stamps), max(stamps)),
                                    _is_whole(members, creates, latest)))
                del joins[j]
            if not joins:
                del pending[s]
    if current.ends != model._graph.ends or types != model._graph.types:
        raise ValueError("model is not the final model of the log")
    blocks.sort(key=lambda b: (b.completion_seq, b.split, b.join))
    return blocks


def max_simul_block(blocks: list[Block]) -> int:
    """Most blocks under construction at once; intervals are closed, so a
    block ending exactly when another starts counts as overlap."""
    starts = sorted([b.interval[0] for b in blocks])
    ends = sorted([b.interval[1] for b in blocks])
    best = closed = 0
    for opened, start in enumerate(starts, 1):  # the most overlap is at some start
        while closed < opened and ends[closed] < start:
            closed += 1
        if opened - closed > best:
            best = opened - closed
    return best


def perc_blocks_as_whole(blocks: list[Block]) -> Fraction | None:
    """Fraction of blocks built without foreign node creates interleaved.

    None when there are no blocks: the ratio is undefined, not zero.
    """
    if not blocks:
        return None
    return Fraction(sum(1 for b in blocks if b.whole), len(blocks))
