import dataclasses
import inspect
import json
import sys
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BASE, back_to_front_chains, csv_log, event_logs, loops, outside_in_nests
from oracles import (
    _most_blocks_at_once,
    blocks_dated_all_pairs,
    dominators_by_removal,
    edge_disjoint_path_count,
    find_block_pairs_maxflow,
    iter_states,
)
import ppmkit.blocks as blocks_module
from ppmkit.blocks import (
    Block,
    _close_blocks,
    _dominator_tree,
    detect_blocks,
    find_block_pairs,
    max_simul_block,
    perc_blocks_as_whole,
)
from ppmkit.classify import classify_session
from ppmkit.eventlog import (
    CSV_HEADER,
    EventKind,
    EventLog,
    ModelingEvent,
    ObjectType,
    expand_reconnect,
    parse_log,
)
from ppmkit.model import Edge, Node, ProcessModel
from ppmkit.replay import replay
from ppmkit.simulate import PROFILES, simulate


def ts(secs):
    return BASE + timedelta(seconds=secs)


def diamond_model():
    m = ProcessModel()
    for nid, ntype in [("s", ObjectType.XOR), ("a", ObjectType.ACTIVITY),
                       ("b", ObjectType.ACTIVITY), ("j", ObjectType.XOR)]:
        m.add_node(Node(nid, ntype))
    m.add_edge(Edge("e1", "s", "a"))
    m.add_edge(Edge("e2", "s", "b"))
    m.add_edge(Edge("e3", "a", "j"))
    m.add_edge(Edge("e4", "b", "j"))
    return m


class TestEdgeDisjointPaths:
    def test_diamond_has_two(self):
        assert edge_disjoint_path_count(diamond_model(), "s", "j") == 2

    def test_single_chain_has_one(self):
        m = ProcessModel(nodes=[Node("a", ObjectType.ACTIVITY),
                                Node("b", ObjectType.ACTIVITY)],
                         edges=[Edge("e", "a", "b")])
        assert edge_disjoint_path_count(m, "a", "b") == 1

    def test_unreachable_is_zero(self):
        m = ProcessModel(nodes=[Node("a", ObjectType.ACTIVITY),
                                Node("b", ObjectType.ACTIVITY)])
        assert edge_disjoint_path_count(m, "a", "b") == 0

    def test_source_equals_sink(self):
        assert edge_disjoint_path_count(diamond_model(), "s", "s") == 0

    def test_shared_middle_edge_is_one_path(self):
        # s -> {a,b} -> m -> j twice over: the m->j edge is a bottleneck
        m = diamond_model()
        m.remove_edge("e3")
        m.remove_edge("e4")
        m.add_node(Node("m", ObjectType.ACTIVITY))
        m.add_edge(Edge("f1", "a", "m"))
        m.add_edge(Edge("f2", "b", "m"))
        m.add_edge(Edge("f3", "m", "j"))
        assert edge_disjoint_path_count(m, "s", "j") == 1

    def test_cap_limits_search(self):
        m = diamond_model()
        m.add_edge(Edge("e5", "s", "j"))
        assert edge_disjoint_path_count(m, "s", "j") == 2
        assert edge_disjoint_path_count(m, "s", "j", cap=5) == 3


class TestFindBlockPairs:
    def test_diamond(self):
        pairs = find_block_pairs(diamond_model())
        assert pairs == [("s", "j", frozenset({"s", "a", "b", "j"}))]

    def test_mixed_gateway_kinds_still_pair(self):
        m = diamond_model()
        m.update_node("s", type=ObjectType.AND)
        assert len(find_block_pairs(m)) == 1

    def test_interior_leak_disqualifies(self):
        # an edge from inside the block to an outside node breaks sealing
        m = diamond_model()
        m.add_node(Node("out", ObjectType.ACTIVITY))
        m.add_edge(Edge("leak", "a", "out"))
        assert find_block_pairs(m) == []

    def test_loop_is_not_a_block(self):
        # j sits upstream of s: backward edge alone gives no second path
        m = ProcessModel()
        for nid in ["j", "a", "s"]:
            m.add_node(Node(nid, ObjectType.XOR if nid in "js"
                            else ObjectType.ACTIVITY))
        m.add_edge(Edge("e1", "j", "a"))
        m.add_edge(Edge("e2", "a", "s"))
        m.add_edge(Edge("e3", "s", "j"))  # back edge
        m.add_edge(Edge("e4", "s", "a"))  # makes s a split, j a join... almost
        assert find_block_pairs(m) == []

    def test_nested_blocks_both_found(self):
        m = diamond_model()
        # grow an inner diamond hanging off branch a
        m.remove_edge("e3")
        for nid, ntype in [("s2", ObjectType.AND), ("c", ObjectType.ACTIVITY),
                           ("d", ObjectType.ACTIVITY), ("j2", ObjectType.AND)]:
            m.add_node(Node(nid, ntype))
        m.add_edge(Edge("f1", "a", "s2"))
        m.add_edge(Edge("f2", "s2", "c"))
        m.add_edge(Edge("f3", "s2", "d"))
        m.add_edge(Edge("f4", "c", "j2"))
        m.add_edge(Edge("f5", "d", "j2"))
        m.add_edge(Edge("f6", "j2", "j"))
        pairs = find_block_pairs(m)
        assert [(s, j) for s, j, _ in pairs] == [("s", "j"), ("s2", "j2")]
        outer = dict(((s, j), mem) for s, j, mem in pairs)[("s", "j")]
        assert outer == frozenset({"s", "a", "b", "s2", "c", "d", "j2", "j"})


class TestDetectBlocks:
    def test_diamond_fixture(self, diamond_log):
        model = replay(diamond_log)
        blocks = detect_blocks(model, diamond_log)
        assert len(blocks) == 1
        b = blocks[0]
        assert (b.split, b.join) == ("g1", "g2")
        assert b.members == frozenset({"g1", "a2", "a3", "g2"})
        assert b.completion_seq == 12  # the edge that closed the second path
        assert b.interval == (ts(15), ts(35))
        assert b.whole is True

    def test_json_shape(self, diamond_log):
        d = json.loads(classify_session(diamond_log).to_json())["blocks"][0]
        assert d == {
            "split": "g1",
            "join": "g2",
            "members": ["a2", "a3", "g1", "g2"],
            "interval": ["2010-11-15T10:00:15.000Z", "2010-11-15T10:00:35.000Z"],
            "whole": True,
        }

    def test_requires_final_model(self, diamond_log):
        with pytest.raises(ValueError, match="not the final model"):
            detect_blocks(ProcessModel(), diamond_log)

    def test_refuses_a_model_of_other_structure(self, diamond_log):
        # What blocks read: node ids, node types and each flow's ends.
        final = replay(diamond_log)
        no_flow, retyped, no_node, rewired = (final.copy() for _ in range(4))
        no_flow.remove_edge(next(iter(final.edges)))
        retyped.update_node("g1", type=ObjectType.AND)
        no_node.remove_node("a2")
        flow = next(iter(final.edges.values()))
        rewired.remove_edge(flow.id)
        rewired.add_edge(Edge(flow.id, flow.target, flow.source))
        for model in (no_flow, retyped, no_node, rewired):
            with pytest.raises(ValueError, match="^model is not the final model of the log$"):
                detect_blocks(model, diamond_log)

    def test_ignores_labels_positions_and_bendpoints(self, diamond_log):
        final = replay(diamond_log)
        redrawn = final.copy()
        for nid in final.nodes:
            redrawn.update_node(nid, label="renamed", position=(7, 7))
        for eid in final.edges:
            redrawn.edges[eid] = dataclasses.replace(final.edges[eid], label="flow",
                                                 bendpoints=((1, 2),))
        assert redrawn != final
        # The JSON round trip builds the graph in id order, not creation
        # order, and a flow drawn again moves to the end of the graph's ends.
        redrawn_flow = final.copy()
        redrawn_flow.remove_edge("e1")
        redrawn_flow.add_edge(final.edges["e1"])
        expected = detect_blocks(final, diamond_log)
        for model in (redrawn, ProcessModel.from_json(final.to_json()), final.copy(),
                      redrawn_flow):
            assert detect_blocks(model, diamond_log) == expected

    def test_refuses_a_log_that_does_not_replay(self):
        # A flow to no node cannot be in a log, so the dating walk never
        # meets one.
        with pytest.raises(ValueError, match="^edge e ends at gone, not a live node at seq 2$"):
            EventLog("dangling", (
                ModelingEvent(seq=1, timestamp=ts(1), kind=EventKind.CREATE_XOR, object_id="g"),
                ModelingEvent(seq=2, timestamp=ts(2), kind=EventKind.CREATE_EDGE, object_id="e",
                              source_id="g", target_id="gone"),
            ))

    def test_recreated_node_dated_by_its_live_incarnation(self):
        # s is created and deleted, a foreign x is created, then s again
        # and the rest of the block: the block starts at the live s.
        def event(seq, secs, kind, oid, source=None, target=None):
            return ModelingEvent(seq=seq, timestamp=ts(secs), kind=kind, object_id=oid,
                                 source_id=source, target_id=target)

        log = EventLog("recreated", (
            event(1, 10, EventKind.CREATE_XOR, "s"),
            event(2, 20, EventKind.DELETE_XOR, "s"),
            event(3, 30, EventKind.CREATE_ACTIVITY, "x"),
            event(4, 40, EventKind.CREATE_XOR, "s"),
            event(5, 50, EventKind.CREATE_ACTIVITY, "a"),
            event(6, 60, EventKind.CREATE_ACTIVITY, "b"),
            event(7, 70, EventKind.CREATE_XOR, "j"),
            *(event(8 + k, 80 + k, EventKind.CREATE_EDGE, f"e{k}", source, target)
              for k, (source, target) in enumerate(
                  [("s", "a"), ("s", "b"), ("a", "j"), ("b", "j")])),
        ))
        [block] = detect_blocks(replay(log), log)
        assert block.members == frozenset({"s", "a", "b", "j"})
        assert block.interval == (ts(40), ts(70))
        assert block.whole is True
        assert [block] == blocks_dated_all_pairs(log)

    def test_members_frozen_at_completion(self, diamond_log):
        # a node wedged into the block after it first qualified is not a
        # member and does not stretch the interval
        rows = [
            f"21,2010-11-15T10:02:00.000Z,CREATE_ACTIVITY,late,ACTIVITY,430,200,,,",
            f"22,2010-11-15T10:02:05.000Z,CREATE_EDGE,e9,EDGE,,,,g1,late",
            f"23,2010-11-15T10:02:10.000Z,CREATE_EDGE,e10,EDGE,,,,late,g2",
        ]
        text = open("tests/fixtures/diamond.csv").read() + "\n".join(rows) + "\n"
        log = parse_log(text, session_id="late")
        blocks = detect_blocks(replay(log), log)
        assert len(blocks) == 1
        b = blocks[0]
        assert "late" not in b.members
        assert b.completion_seq == 12
        assert b.interval == (ts(15), ts(35))

    def test_foreign_create_breaks_whole(self):
        # an unrelated activity created mid-span marks the block as pieced
        rows = [
            CSV_HEADER,
            "1,2010-11-15T10:00:00.000Z,CREATE_XOR,s,XOR,0,0,,,",
            "2,2010-11-15T10:00:01.000Z,CREATE_ACTIVITY,a,ACTIVITY,0,0,,,",
            "3,2010-11-15T10:00:02.000Z,CREATE_ACTIVITY,noise,ACTIVITY,0,0,,,",
            "4,2010-11-15T10:00:03.000Z,CREATE_ACTIVITY,b,ACTIVITY,0,0,,,",
            "5,2010-11-15T10:00:04.000Z,CREATE_XOR,j,XOR,0,0,,,",
            "6,2010-11-15T10:00:05.000Z,CREATE_EDGE,e1,EDGE,,,,s,a",
            "7,2010-11-15T10:00:06.000Z,CREATE_EDGE,e2,EDGE,,,,s,b",
            "8,2010-11-15T10:00:07.000Z,CREATE_EDGE,e3,EDGE,,,,a,j",
            "9,2010-11-15T10:00:08.000Z,CREATE_EDGE,e4,EDGE,,,,b,j",
        ]
        log = parse_log("\n".join(rows) + "\n", session_id="noisy")
        blocks = detect_blocks(replay(log), log)
        assert len(blocks) == 1
        assert blocks[0].whole is False
        assert perc_blocks_as_whole(blocks) == 0

    def test_recreated_id_dates_only_as_gateway(self):
        # g1 first exists as an activity with two flows into g2; the pair
        # qualifies only once g1 has come back as a gateway
        def ev(seq, kind, oid, source=None, target=None):
            return ModelingEvent(seq=seq, timestamp=ts(seq), kind=kind, object_id=oid,
                                 source_id=source, target_id=target)
        log = EventLog("recreated", (
            ev(1, EventKind.CREATE_ACTIVITY, "g1"),
            ev(2, EventKind.CREATE_XOR, "g2"),
            ev(3, EventKind.CREATE_EDGE, "e1", "g1", "g2"),
            ev(4, EventKind.CREATE_EDGE, "e2", "g1", "g2"),
            ev(5, EventKind.DELETE_ACTIVITY, "g1"),
            ev(6, EventKind.CREATE_XOR, "g1"),
            ev(7, EventKind.CREATE_EDGE, "e3", "g1", "g2"),
            ev(8, EventKind.CREATE_EDGE, "e4", "g1", "g2"),
        ))
        blocks = detect_blocks(replay(log), log)
        assert [(b.split, b.join, b.completion_seq) for b in blocks] == [("g1", "g2", 8)]


def xor_chain_log(k: int) -> EventLog:
    """start, then k XOR blocks in a row (split, two tasks, join), then an
    end event; each block is built and wired before the next one starts."""
    events = []

    def add(kind, oid, source=None, target=None):
        seq = len(events) + 1
        events.append(ModelingEvent(seq=seq, timestamp=ts(seq), kind=kind, object_id=oid,
                                    source_id=source, target_id=target))

    def node(oid, otype):
        add(EventKind[f"CREATE_{otype.value}"], oid)

    def edge(source, target):
        add(EventKind.CREATE_EDGE, f"e{len(events) + 1}", source, target)

    node("start", ObjectType.START_EVENT)
    prev = "start"
    for i in range(k):
        node(f"s{i}", ObjectType.XOR)
        edge(prev, f"s{i}")
        for task in (f"a{i}", f"b{i}"):
            node(task, ObjectType.ACTIVITY)
            edge(f"s{i}", task)
        node(f"j{i}", ObjectType.XOR)
        edge(f"a{i}", f"j{i}")
        edge(f"b{i}", f"j{i}")
        prev = f"j{i}"
    node("end", ObjectType.END_EVENT)
    edge(prev, "end")
    return EventLog(session_id="chain", events=tuple(events))


def test_long_xor_chain_dates_every_block_in_chain_order():
    # 150 blocks in a row make a dominator chain hundreds of nodes deep.
    # The traversals are iterative, so a recursion limit just above the
    # current depth is no obstacle.
    log = xor_chain_log(150)
    model = replay(log)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        blocks = detect_blocks(model, log)
    finally:
        sys.setrecursionlimit(limit)
    assert len(blocks) == 150
    assert [(b.split, b.join) for b in blocks] == [(f"s{i}", f"j{i}") for i in range(150)]
    assert all(b.whole for b in blocks)


def test_chain_search_is_one_pass_and_dating_tests_each_pair_once(monkeypatch):
    # Work counted, not timed: one dominator pass answers every split of the
    # chain, and the dating walk tests each final block once, when its join
    # gets its second in-flow.
    log = xor_chain_log(320)
    model = replay(log)
    passes, tests = [], []
    tree, members = blocks_module._dominator_tree, blocks_module._block_members
    monkeypatch.setattr(blocks_module, "_dominator_tree",
                        lambda graph, root: passes.append(root) or tree(graph, root))
    monkeypatch.setattr(blocks_module, "_block_members",
                        lambda graph, s, j, pos, span: tests.append((s, j))
                        or members(graph, s, j, pos, span))
    pairs = [(f"s{i}", f"j{i}") for i in range(320)]
    assert len(find_block_pairs(model)) == 320
    assert passes == ["s0"]
    assert tests == pairs
    assert len(detect_blocks(model, log)) == 320
    assert tests == pairs * 3  # the search above, detect_blocks' own, its dating
    assert len(passes) == 1 + 1 + 320


def _splits_examined(log: EventLog, monkeypatch) -> int:
    """How often dating looks up the type of a split of the final model, as
    a counting mapping in place of the skeleton's types tells."""
    looked = []

    class Types(dict):
        def get(self, key, default=None):
            looked.append(key)
            return dict.get(self, key, default)

    class Skeleton(blocks_module._Skeleton):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            self.types = Types()

    model = replay(log)
    splits = {s for s, _, _ in find_block_pairs(model)}
    monkeypatch.setattr(blocks_module, "_Skeleton", Skeleton)
    assert len(detect_blocks(model, log)) == len(splits)
    return sum(key in splits for key in looked)


def test_forward_chain_dating_examines_splits_a_linear_number_of_times(monkeypatch):
    # Work counted, not timed: a split joins the dating scan at its create,
    # so a chain four times as long takes about four times the looks. A scan
    # of every undated split of the final model from the first event on
    # takes about sixteen.
    small, large = (_splits_examined(xor_chain_log(k), monkeypatch) for k in (100, 400))
    assert large < 6 * small, (small, large)


def mk_block(start_s, end_s, tag):
    return Block(split=f"s{tag}", join=f"j{tag}",
                 members=frozenset({f"s{tag}", f"j{tag}"}),
                 completion_seq=tag, interval=(ts(start_s), ts(end_s)),
                 whole=True)


class TestMaxSimulBlock:
    def test_empty(self):
        assert max_simul_block([]) == 0

    def test_disjoint(self):
        assert max_simul_block([mk_block(0, 10, 1), mk_block(20, 30, 2)]) == 1

    def test_nested(self):
        assert max_simul_block([mk_block(0, 100, 1), mk_block(10, 20, 2)]) == 2

    def test_touching_endpoints_overlap(self):
        # closed intervals: one ends exactly when the next starts
        assert max_simul_block([mk_block(0, 10, 1), mk_block(10, 20, 2)]) == 2

    def test_three_deep(self):
        blocks = [mk_block(0, 30, 1), mk_block(5, 25, 2), mk_block(10, 20, 3)]
        assert max_simul_block(blocks) == 3


def test_perc_whole_none_without_blocks():
    assert perc_blocks_as_whole([]) is None


@given(order=st.permutations(range(6)))
@settings(max_examples=30)
def test_max_simul_is_order_free(order):
    base = [mk_block(i * 3, i * 3 + 7, i + 1) for i in range(6)]
    shuffled = [base[i] for i in order]
    assert max_simul_block(shuffled) == max_simul_block(base)


@given(spans=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 8)), max_size=8))
@settings(max_examples=200)
def test_max_simul_matches_the_counting_oracle(spans):
    # Small integers make many intervals start or end at one instant.
    blocks = [mk_block(start, start + length, k) for k, (start, length) in enumerate(spans)]
    assert max_simul_block(blocks) == _most_blocks_at_once(blocks)


@st.composite
def block_churn_logs(draw):
    """Logs over five node ids that keep forming and breaking blocks.

    Edges are drawn densely between live nodes (parallel edges and
    self-loops included), edges and nodes get deleted, and a deleted id
    may come back, possibly as another type, which an unstrict log allows.
    """
    events = []
    live_nodes: dict[str, ObjectType] = {}
    live_edges: dict[str, tuple[str, str]] = {}
    for seq in range(1, draw(st.integers(1, 50)) + 1):
        roll = draw(st.integers(0, 9))
        free = [n for n in ("g1", "g2", "g3", "t1", "t2") if n not in live_nodes]
        source = target = None
        if free and (roll < 3 or len(live_nodes) < 2):
            oid = draw(st.sampled_from(free))
            otype = draw(st.sampled_from([ObjectType.XOR, ObjectType.AND,
                                          ObjectType.ACTIVITY]))
            kind = EventKind[f"CREATE_{otype.value}"]
            live_nodes[oid] = otype
        elif roll < 7 or not live_edges:
            oid, kind = f"e{seq}", EventKind.CREATE_EDGE
            source = draw(st.sampled_from(sorted(live_nodes)))
            target = draw(st.sampled_from(sorted(live_nodes)))
            live_edges[oid] = (source, target)
        elif roll < 9:
            oid = draw(st.sampled_from(sorted(live_edges)))
            kind = EventKind.DELETE_EDGE
            del live_edges[oid]
        else:
            oid = draw(st.sampled_from(sorted(live_nodes)))
            otype = live_nodes.pop(oid)
            kind = EventKind[f"DELETE_{otype.value}"]
            live_edges = {e: ends for e, ends in live_edges.items() if oid not in ends}
        events.append(ModelingEvent(seq=seq, timestamp=ts(seq), kind=kind, object_id=oid,
                                    source_id=source, target_id=target))
    return EventLog(session_id="churn", events=tuple(events))


def churn_log(*steps):
    """A log from steps: (node type, id) creates a node, (source, target) an
    edge e<seq>, ("DELETE", id) deletes edge e<seq> or a node."""
    events, types = [], {}
    for seq, (a, b) in enumerate(steps, start=1):
        source = target = None
        if a in ObjectType.__members__:
            kind, oid = EventKind[f"CREATE_{a}"], b
            types[b] = a
        elif a == "DELETE":
            kind, oid = EventKind[f"DELETE_{types.get(b, 'EDGE')}"], b
        else:
            kind, oid, source, target = EventKind.CREATE_EDGE, f"e{seq}", a, b
        events.append(ModelingEvent(seq=seq, timestamp=ts(seq), kind=kind, object_id=oid,
                                    source_id=source, target_id=target))
    return EventLog(session_id="churn", events=tuple(events))


NODES = (("XOR", "g1"), ("ACTIVITY", "t1"), ("ACTIVITY", "t2"), ("XOR", "g2"), ("XOR", "g3"))


# In the first two, split g1's pass at seq 9 reaches g1, t1, t2 and g2 but
# not g3. Then g2 stops being ready, t2 -> g3 extends g1's reach with no join
# ready to test, and the flow from g3 into g2 completes the block g1..g2. In
# the third, g1 loses its second out-flow while g2 is ready and regains it,
# which completes the block.
@example(log=churn_log(*NODES, ("g1", "t1"), ("g1", "t2"), ("t1", "g2"), ("DELETE", "e7"),
                       ("t2", "g2"), ("g1", "t2")))
@example(log=churn_log(*NODES, ("g1", "t1"), ("g1", "t2"), ("t1", "g2"), ("t1", "g2"),
                       ("DELETE", "e9"), ("t2", "g3"), ("g3", "g2")))
@example(log=churn_log(*NODES, ("g1", "t1"), ("g1", "t2"), ("t1", "g2"), ("g3", "g2"),
                       ("DELETE", "g3"), ("XOR", "g3"), ("t2", "g3"), ("g3", "g2")))
@given(log=block_churn_logs())
@settings(max_examples=60, deadline=None)
def test_dating_matches_all_pairs_oracle_on_block_churn(log):
    assert detect_blocks(replay(log), log) == blocks_dated_all_pairs(log)


@given(log=event_logs())
@settings(max_examples=40, deadline=None)
def test_dating_matches_all_pairs_oracle_on_random_logs(log):
    expanded = expand_reconnect(log)
    assert detect_blocks(replay(expanded), expanded) == blocks_dated_all_pairs(expanded)


@given(profile=st.sampled_from(sorted(PROFILES)), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=30, deadline=None)
def test_dating_matches_all_pairs_oracle_on_simulated_sessions(profile, seed):
    log = simulate(dataclasses.replace(PROFILES[profile], seed=seed))
    assert detect_blocks(replay(log), log) == blocks_dated_all_pairs(log)


@given(log=back_to_front_chains())
@settings(max_examples=40, deadline=None)
def test_dating_matches_all_pairs_oracle_on_back_to_front_chains(log):
    assert detect_blocks(replay(log), log) == blocks_dated_all_pairs(log)


@given(log=outside_in_nests())
@settings(max_examples=40, deadline=None)
def test_dating_matches_all_pairs_oracle_on_outside_in_nests(log):
    assert detect_blocks(replay(log), log) == blocks_dated_all_pairs(log)


@given(log=loops())
@settings(max_examples=30, deadline=None)
def test_dating_matches_all_pairs_oracle_on_loops(log):
    assert detect_blocks(replay(log), log) == blocks_dated_all_pairs(log)


# start -> XOR j -> AND p -> {b, c} -> AND q -> XOR s -> end, with no loop,
# with the back flow s -> j around the AND block, or with q -> p closing it.
_LOOPED_NODES = [("start", ObjectType.START_EVENT), ("j", ObjectType.XOR),
                 ("p", ObjectType.AND), ("b", ObjectType.ACTIVITY), ("c", ObjectType.ACTIVITY),
                 ("q", ObjectType.AND), ("s", ObjectType.XOR), ("end", ObjectType.END_EVENT)]
_LOOPED_FLOWS = [("f1", "start", "j"), ("f2", "j", "p"), ("f3", "p", "b"), ("f4", "p", "c"),
                 ("f5", "b", "q"), ("f6", "c", "q"), ("f7", "q", "s"), ("f8", "s", "end")]


@pytest.mark.parametrize("back, pairs", [
    ([], [("p", "q", frozenset("bcpq"))]),
    # j and s are descendants of p that reach q, so they would be members,
    # and the flows start -> j and s -> end cross the block's boundary.
    ([("back", "s", "j")], []),
    # A loop that only the pair closes adds no member.
    ([("back", "q", "p")], [("p", "q", frozenset("bcpq"))]),
])
def test_no_gateway_pair_inside_a_wider_cycle_is_a_block(back, pairs):
    flows = _LOOPED_FLOWS + back
    model = ProcessModel(nodes=[Node(nid, ntype) for nid, ntype in _LOOPED_NODES],
                         edges=[Edge(*flow) for flow in flows])
    assert find_block_pairs(model) == find_block_pairs_maxflow(model) == pairs
    log = parse_log(csv_log(*(f"CREATE_{ntype.value} {nid}" for nid, ntype in _LOOPED_NODES),
                            *(f"CREATE_EDGE {eid} {a} {b}" for eid, a, b in flows)))
    blocks = detect_blocks(replay(log), log)
    assert blocks == blocks_dated_all_pairs(log)
    assert [(b.split, b.join, b.members) for b in blocks] == pairs


# start -> AND p -> {b, c} -> AND q -> end with a redo task r on q -> r -> p.
_REDO_NODES = [("start", ObjectType.START_EVENT), ("p", ObjectType.AND),
               ("b", ObjectType.ACTIVITY), ("c", ObjectType.ACTIVITY), ("q", ObjectType.AND),
               ("r", ObjectType.ACTIVITY), ("end", ObjectType.END_EVENT)]
_REDO_FLOWS = [("f1", "start", "p"), ("f2", "p", "b"), ("f3", "p", "c"), ("f4", "b", "q"),
               ("f5", "c", "q"), ("f6", "q", "end")]
_REDO_LOOP = [("r1", "q", "r"), ("r2", "r", "p")]


@pytest.mark.parametrize("flows, dated", [
    # The block is dated when f5 closes it, before r is on the loop.
    (_REDO_FLOWS + _REDO_LOOP, frozenset("bcpq")),
    (_REDO_LOOP + _REDO_FLOWS, frozenset("bcpqr")),
], ids=["loop_drawn_after", "loop_drawn_before"])
def test_a_redo_task_on_a_loop_through_a_block_is_a_member(flows, dated):
    """r is a descendant of p that reaches q, so it widens the block of the
    final model; the dated block holds the members present when it closed."""
    model = ProcessModel(nodes=[Node(nid, ntype) for nid, ntype in _REDO_NODES],
                         edges=[Edge(*flow) for flow in flows])
    assert find_block_pairs(model) == find_block_pairs_maxflow(model) == [
        ("p", "q", frozenset("bcpqr"))]
    log = parse_log(csv_log(*(f"CREATE_{ntype.value} {nid}" for nid, ntype in _REDO_NODES),
                            *(f"CREATE_EDGE {eid} {a} {b}" for eid, a, b in flows)))
    blocks = detect_blocks(replay(log), log)
    assert blocks == blocks_dated_all_pairs(log)
    assert [(b.split, b.join, b.members) for b in blocks] == [("p", "q", dated)]


@st.composite
def gateway_multigraphs(draw):
    """Models of up to seven gateways and activities with arbitrary flows.

    Parallel flows, self-loops, cycles, flows back into a split and
    isolated nodes all occur.
    """
    types = draw(st.lists(st.sampled_from([ObjectType.XOR, ObjectType.AND,
                                           ObjectType.ACTIVITY]), min_size=1, max_size=7))
    node = st.integers(0, len(types) - 1)
    ends = draw(st.lists(st.tuples(node, node), max_size=16))
    return ProcessModel(
        nodes=[Node(f"n{i}", otype) for i, otype in enumerate(types)],
        edges=[Edge(f"e{k}", f"n{a}", f"n{b}") for k, (a, b) in enumerate(ends)],
    )


# An irreducible loop c <-> d entered at both: d -> c is the only flow from a
# higher rank (r, b, a, c, d), so one sweep would leave idom(c) = a, where r
# is right by r -> b -> d -> c, and miss the block (r, c).
_IRREDUCIBLE = ProcessModel(
    nodes=[Node("r", ObjectType.XOR), Node("a", ObjectType.ACTIVITY),
           Node("b", ObjectType.ACTIVITY), Node("c", ObjectType.XOR),
           Node("d", ObjectType.ACTIVITY)],
    edges=[Edge("e0", "r", "a"), Edge("e1", "r", "b"), Edge("e2", "a", "c"),
           Edge("e3", "b", "d"), Edge("e4", "c", "d"), Edge("e5", "d", "c")],
)


def _assert_matches_maxflow(model):
    assert find_block_pairs(model) == find_block_pairs_maxflow(model)
    for s in model.nodes:
        # The climb from every node to s asks for members exactly at the
        # nodes s reaches by two edge-disjoint paths.
        tree = order, rank, _, _ = _dominator_tree(model._graph, s)
        climbed = []
        with mock.patch.object(blocks_module, "_block_members",
                               lambda graph, split, j, pos, span: climbed.append(j)):
            assert list(_close_blocks(model._graph, model.nodes, tree,
                                      {0: range(len(order))}, rank)) == []
        for v in model.nodes:
            assert (v in climbed) == (edge_disjoint_path_count(model, s, v) >= 2), (s, v)


# A split with two flows to a join, one of them parallel, a flow back into
# the split, a self-loop and an isolated node.
@example(model=ProcessModel(
    nodes=[Node("n0", ObjectType.XOR), Node("n1", ObjectType.ACTIVITY),
           Node("n2", ObjectType.AND), Node("n3", ObjectType.ACTIVITY)],
    edges=[Edge("e0", "n0", "n1"), Edge("e1", "n0", "n2"), Edge("e2", "n1", "n2"),
           Edge("e3", "n1", "n2"), Edge("e4", "n2", "n0"), Edge("e5", "n1", "n1")],
))
# A join with a flow from outside and a flow back into the block's inside:
# the block (s, j) with members {s, a, b, j}.
@example(model=ProcessModel(
    nodes=[Node("s", ObjectType.XOR), Node("a", ObjectType.ACTIVITY),
           Node("b", ObjectType.ACTIVITY), Node("j", ObjectType.XOR),
           Node("x", ObjectType.ACTIVITY)],
    edges=[Edge("e0", "s", "a"), Edge("e1", "s", "b"), Edge("e2", "a", "j"),
           Edge("e3", "b", "j"), Edge("e4", "j", "a"), Edge("e5", "x", "j")],
))
# A nested split whose join flows out of its dominator subtree: s1's pass
# cannot answer s2, which gets its own; both (s1, j1) and (s2, j2) are blocks.
@example(model=ProcessModel(
    nodes=[Node("s1", ObjectType.XOR), Node("s2", ObjectType.AND),
           Node("c", ObjectType.ACTIVITY), Node("d", ObjectType.ACTIVITY),
           Node("j2", ObjectType.AND), Node("e", ObjectType.ACTIVITY),
           Node("j1", ObjectType.XOR)],
    edges=[Edge("f0", "s1", "s2"), Edge("f1", "s2", "c"), Edge("f2", "s2", "d"),
           Edge("f3", "c", "j2"), Edge("f4", "d", "j2"), Edge("f5", "j2", "j1"),
           Edge("f6", "s1", "e"), Edge("f7", "e", "j1")],
))
# A split answered from the pass of the split before it, its dominator
# subtree being closed: one pass yields (r, j) and (s, j). k flows back
# into s, so it is a member of (s, j) that reaches j only through s; x and
# y flow into s from outside that block.
@example(model=ProcessModel(
    nodes=[Node("r", ObjectType.XOR), Node("x", ObjectType.ACTIVITY),
           Node("y", ObjectType.ACTIVITY), Node("s", ObjectType.XOR),
           Node("c", ObjectType.ACTIVITY), Node("d", ObjectType.ACTIVITY),
           Node("k", ObjectType.ACTIVITY), Node("j", ObjectType.XOR)],
    edges=[Edge("e0", "r", "x"), Edge("e1", "r", "y"), Edge("e2", "x", "s"),
           Edge("e3", "y", "s"), Edge("e4", "s", "c"), Edge("e5", "s", "d"),
           Edge("e6", "c", "j"), Edge("e7", "d", "j"), Edge("e8", "d", "k"),
           Edge("e9", "k", "s")],
))
# Flows that leave a split's dominator subtree from below the split, to a
# node after the subtree (n1 -> n3) or before it (b -> r): the root's pass
# cannot answer n2 or s, whose blocks reach back in through the root.
@example(model=ProcessModel(
    nodes=[Node(f"n{i}", ObjectType.XOR) for i in range(4)],
    edges=[Edge("e0", "n0", "n2"), Edge("e1", "n0", "n3"), Edge("e2", "n1", "n3"),
           Edge("e3", "n2", "n1"), Edge("e4", "n2", "n1"), Edge("e5", "n3", "n0")],
))
@example(model=ProcessModel(
    nodes=[Node("r", ObjectType.XOR), Node("s", ObjectType.XOR), Node("a", ObjectType.ACTIVITY),
           Node("b", ObjectType.ACTIVITY), Node("j", ObjectType.XOR)],
    edges=[Edge("e0", "r", "s"), Edge("e1", "r", "s"), Edge("e2", "s", "a"), Edge("e3", "s", "b"),
           Edge("e4", "a", "j"), Edge("e5", "b", "j"), Edge("e6", "b", "r")],
))
@example(model=_IRREDUCIBLE)
@given(model=gateway_multigraphs())
@settings(max_examples=300, deadline=None)
def test_dominator_search_matches_maxflow_on_multigraphs(model):
    _assert_matches_maxflow(model)


@example(model=_IRREDUCIBLE)
@given(model=gateway_multigraphs())
@settings(max_examples=300, deadline=None)
def test_dominator_tree_matches_the_definition(model):
    for root in model.nodes:
        order, _, idom, ways = _dominator_tree(model._graph, root)
        assert ({order[k]: order[d] for k, d in enumerate(idom) if k},
                {order[k]: n for k, n in enumerate(ways) if k}
                ) == dominators_by_removal(model, root), root


@given(log=block_churn_logs())
@settings(max_examples=40, deadline=None)
def test_dominator_search_matches_maxflow_while_replaying(log):
    for _, model in iter_states(log):
        _assert_matches_maxflow(model)
