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

from collections import deque
from dataclasses import dataclass
from datetime import datetime
from fractions import Fraction

from .eventlog import EventClass, EventLog, ObjectType, format_timestamp
from .model import ProcessModel
from .replay import apply_event, replay


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


def _reach(model: ProcessModel, start: str, forward: bool) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        step = model.successors(u) if forward else model.predecessors(u)
        for v in step:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


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


def _block_members(model: ProcessModel, s: str, j: str,
                   descendants: set[str]) -> frozenset[str] | None:
    """The members of the block from split `s` to join `j`, or None when
    the pair is no block; `descendants` is everything reachable from `s`."""
    if j == s or j not in descendants:
        return None
    if edge_disjoint_path_count(model, s, j) < 2:
        return None
    interior = (descendants & _reach(model, j, forward=False)) - {s, j}
    members = interior | {s, j}
    sealed = all(
        e.source in members and e.target in members
        for v in interior
        for e in model.in_edges(v) + model.out_edges(v)
    )
    return frozenset(members) if sealed else None


def find_block_pairs(model: ProcessModel) -> list[tuple[str, str, frozenset[str]]]:
    """All (split, join, member nodes) blocks present in a model.

    Sorted by (split, join). The split needs two or more outgoing flows and
    the join two or more incoming ones; gateway kinds may differ. Loops do
    not qualify: a join upstream of its split has no second disjoint path.
    """
    splits = [g for g in model.gateway_ids() if model.out_degree(g) >= 2]
    joins = [g for g in model.gateway_ids() if model.in_degree(g) >= 2]
    out: list[tuple[str, str, frozenset[str]]] = []
    for s in splits:
        descendants = _reach(model, s, forward=True)
        for j in joins:
            members = _block_members(model, s, j, descendants)
            if members is not None:
                out.append((s, j, members))
    return out


def _is_whole(log: EventLog, members: frozenset[str],
              created_seq: dict[str, int]) -> bool:
    # A block was made as a whole if no foreign NODE was created between
    # its first and last member create. Edge creates never break this.
    spans = [created_seq[oid] for oid in members]
    lo, hi = min(spans), max(spans)
    return not any(
        ev.is_create()
        and ev.object_type is not ObjectType.EDGE
        and lo < ev.seq < hi
        and ev.object_id not in members
        for ev in log.events
    )


def _creation_index(log: EventLog) -> tuple[dict[str, int], dict[str, datetime]]:
    created_seq: dict[str, int] = {}
    created_at: dict[str, datetime] = {}
    for ev in log.events:
        if ev.is_create() and ev.object_id not in created_seq:
            created_seq[ev.object_id] = ev.seq
            created_at[ev.object_id] = ev.timestamp
    return created_seq, created_at


def _replay_and_date(log: EventLog) -> tuple[ProcessModel, list[Block]]:
    """Replay the log; return the final model and its blocks, dated.

    Only pairs that are blocks in the final model are ever reported, so
    only those are tested while replaying forward, each until it first
    qualifies. Only creates and deletes can complete or break a block, so
    moves and renames trigger no test.
    """
    if log.has_reconnects():
        raise ValueError("expand reconnect events before block detection")
    final = replay(log)
    pending = [(s, j) for s, j, _ in find_block_pairs(final)]
    first_completed: dict[tuple[str, str], tuple[int, frozenset[str]]] = {}
    current = ProcessModel()
    for ev in log.events:
        if not pending:
            break
        apply_event(current, ev)
        if ev.event_class not in (EventClass.CREATE, EventClass.DELETE):
            continue
        for s, j in pending:
            # An unstrict log may recreate a deleted id as another type.
            if not (s in current.nodes and j in current.nodes
                    and current.is_gateway(s) and current.is_gateway(j)
                    and current.out_degree(s) >= 2 and current.in_degree(j) >= 2):
                continue
            members = _block_members(current, s, j, _reach(current, s, forward=True))
            if members is not None:
                first_completed[(s, j)] = (ev.seq, members)
        pending = [pair for pair in pending if pair not in first_completed]

    created_seq, created_at = _creation_index(log)
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
                whole=_is_whole(log, members, created_seq),
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
