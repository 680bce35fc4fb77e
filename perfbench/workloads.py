"""Workload generators for the corpus-classify benchmark.

A generator turns a seed into a list of sessions: the CSV text the program
reads, and the answer the benchmark knows by construction (accepted verdict
stages, block count, chart rows). In xor_chain, and_wide and rework the
seed varies branch order, churn targets, positions and timestamps but not
the structure, so any two seeds ask for the same work. In cohort the
simulator's seed also picks which sessions are defective or interleaved.

Why each workload exists (each loads one stage and leaves another idle):

- cohort: the simulator's 50 structured + 50 chaotic sessions on its
  16-node model. Realistic small sessions; the fixed per-session costs
  (parse, replay, metrics, report) matter and block detection is about
  half of classify. The only two-group `stats` input from the simulator.
- xor_chain: k sequential XOR blocks, k = 4..12. Block detection grows
  about n^4 and dominates, while soundness stays trivial. Larger k would
  leave too few passes in a run to take a steady time.
- and_wide: one AND block of w parallel branches of 3 tasks, w = 4..6
  (12, 20 and 3 sessions) and one w = 9. Soundness explores about 4^w markings and dominates; at w=9
  it reaches the default state cap, which also shows its memory cost.
  Block detection is small here.
- rework: mid-size sessions with editing churn (reconnected edges, blocks
  deleted and rebuilt under fresh ids, renames, bendpoints) whose final
  shapes need normalization repairs or are not Sound. The only workload
  where reconnect expansion and the repair rules do any work.

Only `cohort` calls the library (its simulator); the others write CSV
directly, so they do not change when the library does.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

HEADER = ("seq", "timestamp", "event", "object_id", "object_type",
          "x", "y", "label", "source_id", "target_id")
EPOCH = datetime(2010, 11, 15, 10, 0, 0, tzinfo=timezone.utc)

# The library's default soundness cap: a net with more reachable markings
# may honestly come back undecided (StateSpaceExceeded) instead of Sound.
DEFAULT_MAX_STATES = 100_000

COHORT_SESSIONS = 50  # per profile
# Each session's median time over the passes is one sample, so the tail
# needs at least eleven sessions. Sizes come in groups of like sessions, so
# that the median and the tail fall inside a group rather than on one
# session (in and_wide both fall among the twenty w=5 sessions).
XOR_CHAIN_SIZES = tuple(k for k in range(4, 13) for _ in range(3))
AND_WIDE_SIZES = (4,) * 12 + (5,) * 20 + (6,) * 3 + (9,)
AND_WIDE_DEPTH = 3

# Final shapes of rework sessions: (accepted stage, blocks beyond the chain).
REWORK_SHAPES = {
    "wellformed": ("Sound", 0),
    "implicit_join": ("Sound", 0),     # AND split into a task: join inserted
    "two_starts": ("Sound", 0),        # start events merged behind an AND
    "two_ends": ("Sound", 0),          # end events merged behind an AND
    "implicit_split": ("Sound", 0),    # task fans out into an XOR join
    "mixed": ("MixedGateway", 3),      # XOR gateway with 2 in and 2 out
    "mismatch": ("Unsound", 0),        # XOR split closed by an AND join
    "split_defaults": ("Unsound", 0),  # repaired with AND split + XOR join
}
# 24 shapes, 11 of them Sound (after zero or more repairs), 13 not, made
# three times over: a session's cost also depends on what the seed varies, so
# the median and tail of fewer sessions would move from seed to seed.
REWORK_PLAN = (
    ["wellformed"] * 3
    + ["implicit_join", "two_starts", "two_ends", "implicit_split"] * 2
    + ["mixed"] * 4
    + ["mismatch"] * 5
    + ["split_defaults"] * 4
) * 3
REWORK_BLOCKS = (4, 5, 6, 7, 8)  # chain length, cycled over the plan


@dataclass(frozen=True)
class Answer:
    stages: tuple[str, ...]  # verdict stages accepted as correct
    blocks: int
    rows: int  # chart rows: distinct object ids in the log


@dataclass(frozen=True)
class Session:
    session_id: str
    csv_text: str
    answer: Answer


def digest(sessions: list[Session]) -> str:
    """sha256 over every session id and CSV text, in workload order."""
    h = hashlib.sha256()
    for s in sessions:
        h.update(s.session_id.encode("utf-8") + b"\n")
        h.update(s.csv_text.encode("utf-8") + b"\0")
    return h.hexdigest()


def _stamp(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%dT%H:%M:%S.") + f"{ts.microsecond // 1000:03d}Z"


class _Log:
    """Rows of one session log; tracks which objects are alive."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.rows: list[tuple[str, ...]] = []
        self.clock = EPOCH
        self.nodes: dict[str, str] = {}  # live node id -> object type
        self.edges: dict[str, tuple[str, str]] = {}  # live edge id -> ends
        self.objects: set[str] = set()
        self._edge_count = 0

    def emit(self, event, oid, otype, pos=None, label=None, source=None, target=None):
        x, y = ("", "") if pos is None else (str(pos[0]), str(pos[1]))
        self.rows.append((str(len(self.rows) + 1), _stamp(self.clock), event, oid,
                          otype, x, y, label or "", source or "", target or ""))
        self.objects.add(oid)
        self.clock += timedelta(milliseconds=self.rng.randint(400, 4000))

    def pos(self) -> tuple[int, int]:
        return (self.rng.randint(40, 1600), self.rng.randint(40, 600))

    def node(self, oid: str, otype: str, label: str | None = None) -> str:
        self.emit(f"CREATE_{otype}", oid, otype, pos=self.pos())
        if label:
            self.emit("NAME_ACTIVITY", oid, "ACTIVITY", label=label)
        self.nodes[oid] = otype
        return oid

    def task(self, oid: str) -> str:
        return self.node(oid, "ACTIVITY", label=f"task {oid}")

    def edge(self, source: str, target: str) -> str:
        self._edge_count += 1
        eid = f"f{self._edge_count}"
        self.emit("CREATE_EDGE", eid, "EDGE", source=source, target=target)
        self.edges[eid] = (source, target)
        return eid

    def reconnect(self, eid: str, source: str, target: str) -> None:
        self.emit("RECONNECT_EDGE", eid, "EDGE", source=source, target=target)
        self.edges[eid] = (source, target)

    def delete_edge(self, eid: str) -> None:
        self.emit("DELETE_EDGE", eid, "EDGE")
        del self.edges[eid]

    def delete_node(self, oid: str) -> None:
        otype = self.nodes.pop(oid)
        self.emit(f"DELETE_{otype}", oid, otype)

    def move(self, oid: str) -> None:
        otype = self.nodes[oid]
        self.emit(f"MOVE_{otype}", oid, otype, pos=self.pos())

    def text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(self.rows)
        return out.getvalue()

    def session(self, session_id: str, stages: tuple[str, ...], blocks: int) -> Session:
        return Session(session_id, self.text(), Answer(stages, blocks, len(self.objects)))


def _block(log: _Log, prev: str, tag: str, split: str, join: str,
           miswire: bool = False,
           ahead: tuple[str, str] | None = None) -> tuple[list[str], tuple | None]:
    """Split gateway, two branch tasks, join gateway, wired after `prev`.

    Edges appear as soon as both ends exist. With `miswire` the edge meant
    for the first branch goes to the second one too, and the returned fix
    is the reconnect that repairs it. `ahead` is a node (id, type) of the
    next block created before this join, so the two blocks are under
    construction at once. A split created that way is not created again.
    Returns (edge ids, fix).
    """
    s, j = f"s{tag}", f"j{tag}"
    first, second = f"a{tag}", f"b{tag}"
    if log.rng.random() < 0.5:
        first, second = second, first
    edges = []
    if s not in log.nodes:
        log.node(s, split)
    edges.append(log.edge(prev, s))
    log.task(first)
    log.task(second)
    wrong = log.edge(s, second if miswire else first)
    edges.append(wrong)
    edges.append(log.edge(s, second))
    if ahead:
        log.node(*ahead)
    log.node(j, join)
    ends = [first, second]
    log.rng.shuffle(ends)
    edges.extend(log.edge(v, j) for v in ends)
    fix = (wrong, s, first) if miswire else None
    return edges, fix


def _end(log: _Log, prev: str) -> None:
    log.task("t_end")
    log.edge(prev, "t_end")
    log.node("end", "END_EVENT")
    log.edge("t_end", "end")


def _xor_chain_session(rng: random.Random, k: int, session_id: str) -> Session:
    log = _Log(rng)
    log.node("start", "START_EVENT")
    log.task("t0")
    log.edge("start", "t0")
    prev = "t0"
    for i in range(k):
        _block(log, prev, str(i), "XOR", "XOR")
        prev = f"j{i}"
    _end(log, prev)
    return log.session(session_id, ("Sound",), k)


def _and_wide_session(rng: random.Random, w: int, session_id: str) -> Session:
    log = _Log(rng)
    log.node("start", "START_EVENT")
    log.task("t0")
    log.edge("start", "t0")
    log.node("fork", "AND")
    log.edge("t0", "fork")
    branches = list(range(w))
    rng.shuffle(branches)
    for b in branches:
        prev = "fork"
        for d in range(AND_WIDE_DEPTH):
            log.task(f"p{b}_{d}")
            log.edge(prev, f"p{b}_{d}")
            prev = f"p{b}_{d}"
    log.node("sync", "AND")
    rng.shuffle(branches)
    for b in branches:
        log.edge(f"p{b}_{AND_WIDE_DEPTH - 1}", "sync")
    _end(log, "sync")
    # About (depth + 1)^w reachable markings: past the cap the honest
    # verdict is undecided.
    stages = ("Sound",)
    if (AND_WIDE_DEPTH + 1) ** w > DEFAULT_MAX_STATES:
        stages = ("Sound", "StateSpaceExceeded")
    return log.session(session_id, stages, 1)


def _rework_tail(log: _Log, shape: str, prev: str) -> None:
    if shape == "implicit_join":
        log.node("g", "AND")
        log.edge(prev, "g")
        for c in ("c1", "c2"):
            log.task(c)
            log.edge("g", c)
        log.task("d")
        log.edge("c1", "d")
        log.edge("c2", "d")
        log.node("end", "END_EVENT")
        log.edge("d", "end")
    elif shape == "two_ends":
        log.task("t_end")
        log.edge(prev, "t_end")
        log.node("g", "AND")
        log.edge("t_end", "g")
        for q, e in (("q1", "end1"), ("q2", "end2")):
            log.task(q)
            log.edge("g", q)
            log.node(e, "END_EVENT")
            log.edge(q, e)
    elif shape in ("implicit_split", "split_defaults"):
        log.task("t_end")
        log.edge(prev, "t_end")
        for c in ("c1", "c2"):
            log.task(c)
            log.edge("t_end", c)
        if shape == "implicit_split":
            log.node("g", "XOR")
            log.edge("c1", "g")
            log.edge("c2", "g")
            log.task("d")
            log.edge("g", "d")
        else:
            log.task("d")
            log.edge("c1", "d")
            log.edge("c2", "d")
        log.node("end", "END_EVENT")
        log.edge("d", "end")
    elif shape == "mixed":
        log.node("x1", "XOR")
        log.edge(prev, "x1")
        for c in ("c1", "c2"):
            log.task(c)
            log.edge("x1", c)
        log.node("x2", "XOR")
        log.edge("c1", "x2")
        log.edge("c2", "x2")
        for c in ("c3", "c4"):
            log.task(c)
            log.edge("x2", c)
        log.node("x3", "XOR")
        log.edge("c3", "x3")
        log.edge("c4", "x3")
        log.node("end", "END_EVENT")
        log.edge("x3", "end")
    else:
        _end(log, prev)


def _rework_churn(log: _Log) -> None:
    """Renames, edge names and label drags, bendpoint edits and moves on
    the finished model, in seeded order. None changes the final graph."""
    rng = log.rng
    tasks = sorted(oid for oid, t in log.nodes.items() if t == "ACTIVITY")
    edges = sorted(log.edges)
    steps = [("rename", oid) for oid in rng.sample(tasks, 3)]
    steps += [("name_edge", eid) for eid in rng.sample(edges, 2)]
    steps += [("bendpoints", eid) for eid in rng.sample(edges, 3)]
    steps += [("move", oid) for oid in rng.choices(sorted(log.nodes), k=12)]
    rng.shuffle(steps)
    for action, oid in steps:
        if action == "rename":
            log.emit("RENAME_ACTIVITY", oid, "ACTIVITY", label=f"revised {oid}")
        elif action == "name_edge":
            log.emit("NAME_EDGE", oid, "EDGE", label="yes")
            log.emit("MOVE_EDGE_LABEL", oid, "EDGE", pos=log.pos())
            log.emit("RENAME_EDGE", oid, "EDGE", label="approved")
        elif action == "bendpoints":
            log.emit("CREATE_EDGE_BENDPOINT", oid, "EDGE", pos=log.pos())
            log.emit("MOVE_EDGE_BENDPOINT", oid, "EDGE", pos=log.pos())
            if rng.random() < 0.5:
                log.emit("DELETE_EDGE_BENDPOINT", oid, "EDGE")
        else:
            log.move(oid)


def _rework_session(rng: random.Random, shape: str, m: int, index: int,
                    session_id: str) -> Session:
    # The plan (gateway kinds, which block is rebuilt, miswired, mismatched
    # or overlapped) follows from the session's index; the seed varies
    # branch order, churn targets, positions and timestamps. So any seed
    # asks for the same work.
    log = _Log(rng)
    if shape == "two_starts":
        for start, task in (("start1", "h1"), ("start2", "h2")):
            log.node(start, "START_EVENT")
            log.task(task)
            log.edge(start, task)
        log.node("g0", "AND")
        log.edge("h1", "g0")
        log.edge("h2", "g0")
        log.task("t0")
        log.edge("g0", "t0")
    else:
        log.node("start", "START_EVENT")
        log.task("t0")
        log.edge("start", "t0")

    splits = ["XOR" if (index + i) % 2 else "AND" for i in range(m)]
    joins = list(splits)
    if shape == "mismatch":
        mismatched = (index + 3) % m
        splits[mismatched], joins[mismatched] = "XOR", "AND"
    rebuilt = index % m
    miswired = {(index + 1) % m, (index + 2) % m}
    # Every other session starts the next block before closing one, so the
    # group statistics see blocks built as a whole and blocks that are not.
    overlap = None
    if index % 2 == 0:
        overlap = next(i for i in range(m - 1) if rebuilt not in (i, i + 1))
    pending: list[tuple] = []  # reconnects made once the next block is built
    prev = "t0"
    for i in range(m):
        split, join = splits[i], joins[i]
        if i == rebuilt:
            # A first draft of the block, deleted again; the block is then
            # rebuilt under fresh ids (a raw log may not recreate an id).
            draft, _ = _block(log, prev, f"{i}_draft", split, join)
            for eid in draft:
                log.delete_edge(eid)
            for oid in (f"s{i}_draft", f"a{i}_draft", f"b{i}_draft", f"j{i}_draft"):
                log.delete_node(oid)
        ahead = (f"s{i + 1}", splits[i + 1]) if i == overlap else None
        _, fix = _block(log, prev, str(i), split, join, miswire=i in miswired, ahead=ahead)
        for made in pending:
            log.reconnect(*made)
        pending = [fix] if fix else []
        prev = f"j{i}"
    for made in pending:
        log.reconnect(*made)

    _rework_tail(log, shape, prev)
    _rework_churn(log)
    stage, extra_blocks = REWORK_SHAPES[shape]
    return log.session(session_id, (stage,), m + extra_blocks)


def _cohort_answer(csv_text: str) -> Answer:
    # The simulator's defect re-creates one AND gateway of its model as an
    # XOR; that and only that makes the model Unsound. Three blocks always.
    rows = list(csv.reader(io.StringIO(csv_text, newline="")))[1:]
    miswired = any(r[2] == "CREATE_XOR" and r[3] in ("and2s", "and2j") for r in rows)
    stage = "Unsound" if miswired else "Sound"
    return Answer((stage,), 3, len({r[3] for r in rows}))


def cohort(seed: int) -> list[Session]:
    from ppmkit import PROFILES, serialize_log, simulate_cohort

    sessions = []
    for profile in ("structured", "chaotic"):
        for log in simulate_cohort(PROFILES[profile], COHORT_SESSIONS, seed):
            text = serialize_log(log)
            sessions.append(Session(log.session_id, text, _cohort_answer(text)))
    return sessions


def xor_chain(seed: int) -> list[Session]:
    return [
        _xor_chain_session(random.Random(seed * 1000 + i), k, f"xor_chain_{seed}_{i:02d}_k{k}")
        for i, k in enumerate(XOR_CHAIN_SIZES)
    ]


def and_wide(seed: int) -> list[Session]:
    return [
        _and_wide_session(random.Random(seed * 1000 + i), w, f"and_wide_{seed}_{i:02d}_w{w}")
        for i, w in enumerate(AND_WIDE_SIZES)
    ]


def rework(seed: int) -> list[Session]:
    sessions = []
    for index, shape in enumerate(REWORK_PLAN):
        m = REWORK_BLOCKS[index % len(REWORK_BLOCKS)]
        rng = random.Random(seed * 1000 + index)
        sessions.append(_rework_session(rng, shape, m, index,
                                        f"rework_{seed}_{index:02d}_{shape}"))
    return sessions


GENERATORS = {
    "cohort": cohort,
    "xor_chain": xor_chain,
    "and_wide": and_wide,
    "rework": rework,
}
