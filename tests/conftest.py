from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import strategies as st

from oracles import parse_log_row_by_row
from ppmkit.eventlog import (
    CSV_HEADER,
    KIND_OBJECT_TYPE,
    EventKind,
    EventLog,
    LogFormatError,
    ModelingEvent,
    ObjectType,
    format_timestamp,
    parse_log,
)
from ppmkit.model import NODE_TYPES, Edge, Node, ProcessModel
from ppmkit.simulate import PROFILES, simulate

FIXTURES = Path(__file__).parent / "fixtures"

BASE = datetime(2010, 11, 15, 10, 0, 0, tzinfo=timezone.utc)


def load_fixture(name: str) -> EventLog:
    path = FIXTURES / name
    return parse_log(path.read_text(encoding="utf-8"), session_id=path.stem)


def parse_outcome(parse, text):
    """What `parse` makes of `text`: the events and reconnect flag of a log
    it accepts, or the message and line of its LogFormatError."""
    try:
        result = parse(text)
    except LogFormatError as exc:
        return str(exc), exc.line
    if isinstance(result, EventLog):
        result = list(result.events), result.has_reconnects()
    return result


def assert_parses_as_the_row_loop(text):
    """parse_log accepts exactly the logs the row loop accepts, with equal
    events and reconnect flag, and refuses the others with its message at
    its line."""
    got, expected = parse_outcome(parse_log, text), parse_outcome(parse_log_row_by_row, text)
    assert got == expected
    assert repr(got) == repr(expected)


@pytest.fixture
def diamond_log() -> EventLog:
    return load_fixture("diamond.csv")


@pytest.fixture
def churn_log() -> EventLog:
    return load_fixture("churn.csv")


@pytest.fixture
def rewire_log() -> EventLog:
    return load_fixture("rewire.csv")


_NODE_KINDS = {
    ObjectType.START_EVENT: EventKind.CREATE_START_EVENT,
    ObjectType.END_EVENT: EventKind.CREATE_END_EVENT,
    ObjectType.ACTIVITY: EventKind.CREATE_ACTIVITY,
    ObjectType.XOR: EventKind.CREATE_XOR,
    ObjectType.AND: EventKind.CREATE_AND,
}


def model_state(model: ProcessModel):
    """Everything a model holds, each dict in its order: nodes, edges, and
    its graph's types, ends and per-node adjacency."""
    graph = model._graph
    return (list(model.nodes.items()), list(model.edges.items()),
            list(graph.types.items()), list(graph.ends.items()),
            [(n, list(ways.items())) for n, ways in graph._in.items()],
            [(n, list(ways.items())) for n, ways in graph._out.items()])


def csv_log(*steps: str) -> str:
    """The CSV of a log whose row n is step n, n seconds after BASE; a step
    is "KIND id" or "KIND id source target"."""
    rows = [CSV_HEADER]
    for seq, step in enumerate(steps, start=1):
        kind, oid, *ends = step.split()
        source, target = ends or ("", "")
        rows.append(f"{seq},{format_timestamp(BASE + timedelta(seconds=seq))},{kind},{oid},"
                    f"{KIND_OBJECT_TYPE[EventKind[kind]].value},,,,{source},{target}")
    return "\n".join(rows) + "\n"


# Logs that break the lifecycle rule only through a flow's life or ends,
# each with the CSV line of its first bad row. A node delete takes its
# flows with it, so the first one acts on a flow that is gone.
_WIRED = ("CREATE_ACTIVITY a", "CREATE_ACTIVITY b", "CREATE_EDGE e a b")
UNREPLAYABLE_LOGS = {
    "bendpoint on cascaded flow": (
        csv_log(*_WIRED, "DELETE_ACTIVITY a", "CREATE_EDGE_BENDPOINT e"), 6),
    "delete of cascaded flow": (csv_log(*_WIRED, "DELETE_ACTIVITY a", "DELETE_EDGE e"), 6),
    "reconnect of cascaded flow": (
        csv_log(*_WIRED, "CREATE_ACTIVITY c", "DELETE_ACTIVITY a", "RECONNECT_EDGE e b c"), 7),
    "flow from unknown node": (csv_log("CREATE_ACTIVITY b", "CREATE_EDGE e ghost b"), 3),
    "flow from deleted node": (
        csv_log("CREATE_ACTIVITY a", "CREATE_ACTIVITY b", "DELETE_ACTIVITY a",
                "CREATE_EDGE e a b"), 5),
    "flow from a flow": (csv_log(*_WIRED, "CREATE_EDGE f e b"), 5),
    "reconnect to unknown node": (csv_log(*_WIRED, "RECONNECT_EDGE e a ghost"), 5),
}

_EDGE_EDITS = [
    EventKind.CREATE_EDGE_BENDPOINT,
    EventKind.MOVE_EDGE_BENDPOINT,
    EventKind.DELETE_EDGE_BENDPOINT,
    EventKind.MOVE_EDGE_LABEL,
]


@st.composite
def event_logs(draw, min_events: int = 1, max_events: int = 40,
               allow_reconnects: bool = True, faults: bool = False):
    """Random but always-valid session logs.

    A stateful walk: creates dominate early (there is nothing to edit yet),
    later steps may move, rename, rewire, or delete what exists. Ids are
    never reused, so the strict parser accepts the serialized form too.
    Deleting a node drops its edges from the pool, mirroring the cascade
    the replay performs.

    With `faults`, about one event in twenty breaks the lifecycle rule
    through a flow: it acts on a flow a node delete took with it, creates
    a flow from a deleted or unknown node or from a flow, or reconnects a
    flow to a deleted node. Such events change no pool, seq and timestamp
    order still hold, and the result is the tuple of events, since it may
    make no EventLog.
    """
    n_events = draw(st.integers(min_events, max_events))
    events: list[ModelingEvent] = []
    clock = BASE
    seq = 0
    counter = 0
    live_nodes: dict[str, ObjectType] = {}
    live_edges: dict[str, tuple[str, str]] = {}
    dead_nodes: list[str] = []
    cascaded: list[str] = []  # edges a node delete took with it

    def node_kind(prefix: str, otype: ObjectType) -> EventKind:
        return EventKind[f"{prefix}_{otype.value}"]

    def lifecycle_fault():
        """(kind, object_id, source, target) of an event that breaks the
        rule through a flow, or None when the pools allow none."""
        nonlocal counter
        choice = draw(st.integers(0, 2))
        if choice == 0 and cascaded:
            edge = draw(st.sampled_from(cascaded))
            kind = draw(st.sampled_from(_EDGE_EDITS + [
                EventKind.NAME_EDGE, EventKind.DELETE_EDGE, EventKind.RECONNECT_EDGE]))
            if kind is not EventKind.RECONNECT_EDGE:
                return kind, edge, None, None
            if live_nodes:
                ends = sorted(live_nodes)
                return kind, edge, draw(st.sampled_from(ends)), draw(st.sampled_from(ends))
        elif choice == 1:
            bad = draw(st.sampled_from(
                ["ghost"] + dead_nodes + sorted(live_edges) + cascaded))
            good = draw(st.sampled_from(sorted(live_nodes) or [bad]))
            ends = draw(st.permutations([bad, good]))
            counter += 1
            return EventKind.CREATE_EDGE, f"d{counter}", *ends
        elif choice == 2 and live_edges and live_nodes and dead_nodes:
            ends = draw(st.permutations(
                [draw(st.sampled_from(dead_nodes)), draw(st.sampled_from(sorted(live_nodes)))]))
            return EventKind.RECONNECT_EDGE, draw(st.sampled_from(sorted(live_edges))), *ends
        return None

    while len(events) < n_events:
        seq += draw(st.integers(1, 2))
        clock += timedelta(milliseconds=draw(st.integers(0, 5000)))
        roll = draw(st.integers(0, 99))
        kind = object_id = None
        position = label = source = target = None
        fault = lifecycle_fault() if faults and draw(st.integers(0, 19)) == 0 else None

        if fault is not None:
            kind, object_id, source, target = fault
        elif roll < 45 or not live_nodes:
            counter += 1
            object_id = f"n{counter}"
            otype = draw(st.sampled_from(sorted(_NODE_KINDS)))
            kind = _NODE_KINDS[otype]
            if draw(st.booleans()):
                position = (draw(st.integers(0, 1000)), draw(st.integers(0, 1000)))
            live_nodes[object_id] = otype
        elif roll < 60 and len(live_nodes) >= 2:
            counter += 1
            object_id = f"d{counter}"
            kind = EventKind.CREATE_EDGE
            source = draw(st.sampled_from(sorted(live_nodes)))
            target = draw(st.sampled_from(sorted(live_nodes)))
            live_edges[object_id] = (source, target)
        elif roll < 70 and live_edges:
            object_id = draw(st.sampled_from(sorted(live_edges)))
            kind = draw(st.sampled_from([
                EventKind.CREATE_EDGE_BENDPOINT,
                EventKind.MOVE_EDGE_BENDPOINT,
                EventKind.DELETE_EDGE_BENDPOINT,
                EventKind.MOVE_EDGE_LABEL,
            ]))
            if kind is not EventKind.DELETE_EDGE_BENDPOINT:
                position = (draw(st.integers(0, 1000)), draw(st.integers(0, 1000)))
        elif roll < 80:
            object_id = draw(st.sampled_from(sorted(live_nodes)))
            otype = live_nodes[object_id]
            kind = node_kind("MOVE", otype)
            position = (draw(st.integers(0, 1000)), draw(st.integers(0, 1000)))
        elif roll < 85 and live_edges and allow_reconnects:
            object_id = draw(st.sampled_from(sorted(live_edges)))
            kind = EventKind.RECONNECT_EDGE
            source = draw(st.sampled_from(sorted(live_nodes)))
            target = draw(st.sampled_from(sorted(live_nodes)))
            live_edges[object_id] = (source, target)
        elif roll < 92:
            activities = sorted(
                n for n, t in live_nodes.items() if t is ObjectType.ACTIVITY
            )
            pool = activities or sorted(live_edges)
            if not pool:
                continue
            object_id = draw(st.sampled_from(pool))
            if activities:
                kind = draw(st.sampled_from(
                    [EventKind.NAME_ACTIVITY, EventKind.RENAME_ACTIVITY]
                ))
            else:
                kind = draw(st.sampled_from(
                    [EventKind.NAME_EDGE, EventKind.RENAME_EDGE]
                ))
            # includes csv-hostile characters on purpose; empty means "no
            # label" in the csv form, so labels here are never empty
            label = draw(st.text(
                alphabet="abcxyz XYZ-_μ,;\"'", min_size=1, max_size=12,
            ))
        else:
            if live_edges and draw(st.booleans()):
                object_id = draw(st.sampled_from(sorted(live_edges)))
                kind = EventKind.DELETE_EDGE
                del live_edges[object_id]
            else:
                object_id = draw(st.sampled_from(sorted(live_nodes)))
                otype = live_nodes.pop(object_id)
                kind = node_kind("DELETE", otype)
                dead_nodes.append(object_id)
                for eid in [e for e, (s, t) in live_edges.items()
                            if s == object_id or t == object_id]:
                    del live_edges[eid]
                    cascaded.append(eid)

        events.append(ModelingEvent(
            seq=seq, timestamp=clock, kind=kind, object_id=object_id,
            position=position, label=label, source_id=source, target_id=target,
        ))

    if faults:
        return tuple(events)
    return EventLog(session_id="generated", events=tuple(events))


# Ids joined by "_" out of one small alphabet, so that a branch transition
# t_<gateway>_<flow> can meet a task's t_<task> or another branch's id.
CLASHING_IDS = ["a", "b", "c", "a_b", "b_c", "a_b_c", "a_b_2", "b_2", "2", "a_2"]


@st.composite
def any_models(draw, clashing=False):
    """Models of 1-8 nodes of every type, with parallel edges and self-loops;
    with clashing, node and flow ids come from CLASHING_IDS."""
    types = draw(st.lists(st.sampled_from(NODE_TYPES), min_size=1, max_size=8))
    node = st.integers(0, len(types) - 1)
    ends = draw(st.lists(st.tuples(node, node), max_size=14))
    if clashing:
        names = draw(st.permutations(CLASHING_IDS)) + [f"x{k}" for k in range(22)]
        node_ids, edge_ids = names[:len(types)], names[len(types):]
    else:
        node_ids = [f"n{k}" for k in range(len(types))]
        edge_ids = [f"e{k}" for k in range(len(ends))]
    return ProcessModel([Node(n, t, label=f"l{k}")
                         for k, (n, t) in enumerate(zip(node_ids, types))],
                        [Edge(e, node_ids[s], node_ids[t]) for e, (s, t) in zip(edge_ids, ends)])


def simulated_logs():
    """Sessions of the simulator, any profile and seed."""
    return st.builds(lambda name, seed: simulate(replace(PROFILES[name], seed=seed)),
                     st.sampled_from(sorted(PROFILES)), st.integers(0, 2**64 - 1))


# One event whose id needs quoting in both CSV and XML, with an empty label
# and a position of zeros: the fields a writer could drop or mistake for none.
HOSTILE_LOG = EventLog("hostile", [ModelingEvent(
    seq=1, timestamp=BASE, kind=EventKind.CREATE_ACTIVITY, object_id='a"b,c&d<e\nf',
    position=(0, 0), label="")])


def session_logs():
    """Logs the session writers take: random ones with reconnects, rewired
    blocks and simulated sessions."""
    return st.one_of(event_logs(), rewired_blocks(), simulated_logs())


def _flows(pairs, first: int = 0) -> list[str]:
    """CREATE_EDGE steps for (source, target) pairs, as flows f<first>, ..."""
    return [f"CREATE_EDGE f{n} {s} {t}" for n, (s, t) in enumerate(pairs, first)]


@st.composite
def back_to_front_chains(draw):
    """Chains of 1-6 XOR blocks of 2-3 tasks whose nodes are all placed
    first, in a drawn order, and then wired from the end event back to the
    start event, block by block, each block's flows in a drawn order."""
    k = draw(st.integers(1, 6))
    blocks = [(f"x{i}", f"y{i}", [f"a{i}_{n}" for n in range(draw(st.integers(2, 3)))])
              for i in range(k)]
    nodes = ["CREATE_START_EVENT start", "CREATE_END_EVENT end"]
    for x, y, tasks in blocks:
        nodes += [f"CREATE_XOR {x}", f"CREATE_XOR {y}", *(f"CREATE_ACTIVITY {t}" for t in tasks)]
    pairs, after = [], "end"
    for x, y, tasks in reversed(blocks):
        pairs += draw(st.permutations([(y, after), *((t, y) for t in tasks),
                                       *((x, t) for t in tasks)]))
        after = x
    pairs.append(("start", after))
    return parse_log(csv_log(*draw(st.permutations(nodes)), *_flows(pairs)),
                     session_id="back_to_front")


@st.composite
def outside_in_nests(draw):
    """XOR blocks nested 1-6 deep and built from the outside in: each level
    places its split, its join and a task for its first branch, then wires
    them and the flows from and to the level around it, each in a drawn
    order, before the level inside starts. The innermost level's second
    branch is one more task."""
    depth = draw(st.integers(1, 6))
    steps, before, after = ["CREATE_START_EVENT start", "CREATE_END_EVENT end"], "start", "end"
    for i in range(depth):
        x, y, a = f"x{i}", f"y{i}", f"a{i}"
        steps += draw(st.permutations([f"CREATE_XOR {x}", f"CREATE_XOR {y}",
                                       f"CREATE_ACTIVITY {a}"]))
        steps += _flows(draw(st.permutations([(before, x), (y, after), (x, a), (a, y)])), 4 * i)
        before, after = x, y
    steps += ["CREATE_ACTIVITY b", *_flows([(before, "b"), ("b", after)], 4 * depth)]
    return parse_log(csv_log(*steps), session_id="outside_in")


@st.composite
def rewired_blocks(draw):
    """Chains of 1-4 XOR or AND blocks of 2-3 tasks, built forward: each
    block places its split, the flow into it, each task and the flow to
    it, then its join and the flows into that. 1-3 flows first go to a
    wrong live node and are moved to their target by RECONNECT_EDGE at a
    drawn later step. In some logs one block is then deleted, its nodes in
    a drawn order, and rebuilt under fresh ids."""
    k = draw(st.integers(1, 4))
    blocks = [(draw(st.sampled_from(["XOR", "AND"])), f"x{i}", f"y{i}",
               [f"a{i}_{n}" for n in range(draw(st.integers(2, 3)))]) for i in range(k)]

    def built(kind, x, y, tasks, before):
        steps = [f"CREATE_{kind} {x}", (before, x)]
        for t in tasks:
            steps += [f"CREATE_ACTIVITY {t}", (x, t)]
        return steps + [f"CREATE_{kind} {y}", *((t, y) for t in tasks)]

    steps, before = ["CREATE_START_EVENT start"], "start"
    for kind, x, y, tasks in blocks:
        steps += built(kind, x, y, tasks, before)
        before = y
    steps += ["CREATE_END_EVENT end", (before, "end")]
    flow_no = {i: n for n, i in enumerate(i for i, step in enumerate(steps)
                                          if isinstance(step, tuple))}
    moves: dict[int, list[str]] = {}  # step index -> reconnects made just before it
    for i in draw(st.lists(st.sampled_from(sorted(flow_no)), min_size=1, max_size=3,
                           unique=True)):
        source, target = steps[i]
        live = [step.split()[1] for step in steps[:i] if isinstance(step, str)]
        steps[i] = (source, draw(st.sampled_from([n for n in live if n != target])))
        moves.setdefault(draw(st.integers(i + 1, len(steps))), []).append(
            f"RECONNECT_EDGE f{flow_no[i]} {source} {target}")
    rows = []
    for i, step in enumerate(steps):
        rows += moves.get(i, [])
        rows += [step] if isinstance(step, str) else _flows([step], flow_no[i])
    rows += moves.get(len(steps), [])
    if draw(st.booleans()):
        b = draw(st.integers(0, k - 1))
        kind, x, y, tasks = blocks[b]
        rows += draw(st.permutations([f"DELETE_{kind} {x}", f"DELETE_{kind} {y}",
                                      *(f"DELETE_ACTIVITY {t}" for t in tasks)]))
        fresh = built(kind, f"{x}r", f"{y}r", [f"{t}r" for t in tasks],
                      blocks[b - 1][2] if b else "start")
        fresh.append((f"{y}r", blocks[b + 1][1] if b + 1 < k else "end"))
        n = len(flow_no)
        for step in fresh:
            rows += [step] if isinstance(step, str) else _flows([step], n)
            n += not isinstance(step, str)
    return parse_log(csv_log(*rows), session_id="rewired")


@st.composite
def loops(draw):
    """start -> XOR join j -> body -> XOR split s -> end, with a redo task
    r from s back to j. The body is a task, an AND block or an XOR block
    of two tasks. The steps come in a drawn order, each flow as soon as
    both its ends exist."""
    body = draw(st.sampled_from(["task", "AND", "XOR"]))
    nodes = ["CREATE_START_EVENT start", "CREATE_XOR j", "CREATE_XOR s", "CREATE_ACTIVITY r",
             "CREATE_END_EVENT end"]
    pairs = [("start", "j"), ("s", "end"), ("s", "r"), ("r", "j")]
    if body == "task":
        nodes.append("CREATE_ACTIVITY b")
        pairs += [("j", "b"), ("b", "s")]
    else:
        nodes += [f"CREATE_{body} p", "CREATE_ACTIVITY b", "CREATE_ACTIVITY c",
                  f"CREATE_{body} q"]
        pairs += [("j", "p"), ("p", "b"), ("p", "c"), ("b", "q"), ("c", "q"), ("q", "s")]
    steps, live, waiting, flows = [], set(), [], 0
    for step in draw(st.permutations(nodes + pairs)):
        if isinstance(step, str):
            steps.append(step)
            live.add(step.split()[1])
        else:
            waiting.append(step)
        ready = [pair for pair in waiting if live.issuperset(pair)]
        waiting = [pair for pair in waiting if pair not in ready]
        steps += _flows(ready, flows)
        flows += len(ready)
    return parse_log(csv_log(*steps), session_id="loop")
