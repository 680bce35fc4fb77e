import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import event_logs
from golden_cases import build
from oracles import (
    brute_force_soundness,
    explore_every_transition,
    may_run_forever_by_toposort,
    named,
    random_wfnet,
    reduces_in_rounds,
    soundness_dict,
    wf_structured_by_arcs,
)
from ppmkit.classify import PerspicuityVerdict, classify_model
from ppmkit.eventlog import ObjectType, expand_reconnect
from ppmkit.normalize import NormalizationOutcome, normalize
from ppmkit.replay import replay
from ppmkit.simulate import PROFILES, simulate
from ppmkit.soundness import (
    DEFAULT_MAX_STATES,
    SOUND,
    UNKNOWN,
    UNSOUND,
    _explore,
    _may_run_forever,
    _reduces,
    check_soundness,
)
from ppmkit.wfnet import WFNet, to_wfnet, uncovered


def diamond(split_type, join_type):
    model = build(
        nodes=[("s", ObjectType.START_EVENT), ("g1", split_type),
               ("a", ObjectType.ACTIVITY), ("b", ObjectType.ACTIVITY),
               ("g2", join_type), ("e", ObjectType.END_EVENT)],
        edges=[("s", "g1"), ("g1", "a"), ("g1", "b"), ("a", "g2"),
               ("b", "g2"), ("g2", "e")],
    )
    return to_wfnet(model)


def linear_net():
    model = build(
        nodes=[("s", ObjectType.START_EVENT), ("a", ObjectType.ACTIVITY),
               ("e", ObjectType.END_EVENT)],
        edges=[("s", "a"), ("a", "e")],
    )
    return to_wfnet(model)


def fire(net, trace):
    """Replay a firing sequence; returns the non-zero part of the marking."""
    net = named(net)
    marking = dict.fromkeys(net.places, 0)
    marking[net.source] = 1
    by_id = {t.id: t for t in net.transitions}
    for tid in trace:
        t = by_id[tid]
        for p in t.pre:
            assert marking[p] >= 1, f"{tid} not enabled"
            marking[p] -= 1
        for p in t.post:
            marking[p] += 1
    return {p: c for p, c in marking.items() if c}


def kinds(report):
    return [v.kind for v in report.violations]


def test_linear_sound():
    report = check_soundness(linear_net())
    assert report.verdict == SOUND
    assert report.violations == ()
    assert report.states_explored == 2  # reduced to i -> t -> o: i, o


def test_matched_gateways_sound():
    assert check_soundness(diamond(ObjectType.XOR, ObjectType.XOR)).verdict == SOUND
    assert check_soundness(diamond(ObjectType.AND, ObjectType.AND)).verdict == SOUND


def test_and_split_xor_join_improper():
    report = check_soundness(diamond(ObjectType.AND, ObjectType.XOR))
    assert report.verdict == UNSOUND
    assert kinds(report) == ["DeadlockNoCompletion", "ImproperCompletion"]
    improper = report.violations[1]
    assert improper.witness["o"] >= 1
    assert improper.witness != {"o": 1}


def test_xor_split_and_join_deadlocks():
    report = check_soundness(diamond(ObjectType.XOR, ObjectType.AND))
    assert report.verdict == UNSOUND
    assert kinds(report) == ["DeadlockNoCompletion", "DeadTransition",
                             "DeadTransition"]
    dead = {v.witness for v in report.violations[1:]}
    assert dead == {"t_g2", "t_e"}
    stuck = report.violations[0]
    assert stuck.witness in ({"p_f4": 1}, {"p_f5": 1})


def test_unbounded_pump():
    # t2 pumps q while holding p, so {p,q} strictly dominates {p}
    net = WFNet.of(
        ("i", "o", "p", "q"),
        [
            ("t1", ("i",), ("p",)),
            ("t2", ("p",), ("p", "q")),
            ("t3", ("p", "q"), ("o",)),
        ],
    )
    report = check_soundness(net)
    assert report.verdict == UNSOUND
    assert kinds(report) == ["Unbounded"]
    v = report.violations[0]
    assert v.trace == ("t1", "t2")
    assert v.witness == {"p": 1, "q": 1}


def test_repeated_input_arc_needs_a_token_per_arc():
    # b takes two tokens from p, and p only ever holds one.
    net = WFNet.of(
        ("i", "p", "o"),
        [
            ("a", ("i",), ("p",)),
            ("b", ("p", "p"), ("o",)),
        ],
    )
    report = check_soundness(net)
    assert report.verdict == UNSOUND
    assert kinds(report) == ["DeadlockNoCompletion", "DeadTransition"]
    assert report.violations[0].witness == {"p": 1}
    assert report.violations[0].trace == ("a",)
    assert report.violations[1].witness == "b"
    assert brute_force_soundness(net) == UNSOUND


def test_weighted_arc_is_not_reduced():
    # t1 puts two tokens on p and t2 takes one: read with arc weight 1,
    # the net would collapse to i -> t -> o.
    net = WFNet.of(
        ("i", "o", "p"),
        [
            ("t1", ("i",), ("p", "p")),
            ("t2", ("p",), ("o",)),
        ],
    )
    report = check_soundness(net)
    assert report.verdict == UNSOUND
    assert "ImproperCompletion" in kinds(report)


def test_not_wf_structured_short_circuits():
    net = WFNet.of(
        ("i", "o", "p_live", "p_dead"),
        [
            ("t1", ("i",), ("p_live",)),
            ("t2", ("p_live",), ("o",)),
            ("t_stray", ("p_dead",), ("p_dead",)),
        ],
    )
    report = check_soundness(net)
    assert report.verdict == UNSOUND
    assert kinds(report) == ["NotWFStructured"]
    assert report.states_explored == 0
    assert set(report.violations[0].witness) == {"p_dead", "t_stray"}


def test_state_cap_gives_unknown():
    # An unsound net, so the reduction cannot decide it and the explorer runs.
    report = check_soundness(diamond(ObjectType.AND, ObjectType.XOR), max_states=2)
    assert report.verdict == UNKNOWN
    assert kinds(report) == ["StateSpaceExceeded"]
    assert report.states_explored == 3  # the state that burst the cap


def test_max_states_validation():
    with pytest.raises(ValueError, match="max_states must be >= 1"):
        check_soundness(linear_net(), max_states=0)


def test_verdict_survives_transition_renames():
    for net in (diamond(ObjectType.AND, ObjectType.XOR),
                diamond(ObjectType.XOR, ObjectType.AND),
                diamond(ObjectType.XOR, ObjectType.XOR)):
        renamed = WFNet.of(net.places, [(f"zz_{t.id}", t.pre, t.post)
                                        for t in named(net).transitions])
        a, b = check_soundness(net), check_soundness(renamed)
        assert a.verdict == b.verdict
        assert sorted(kinds(a)) == sorted(kinds(b))


def test_witness_traces_replay():
    for net in (diamond(ObjectType.AND, ObjectType.XOR),
                diamond(ObjectType.XOR, ObjectType.AND)):
        for v in check_soundness(net).violations:
            if v.trace is None:
                continue
            assert fire(net, v.trace) == v.witness


def test_json_form_shapes():
    report = check_soundness(diamond(ObjectType.XOR, ObjectType.AND))
    d = json.loads(PerspicuityVerdict(NormalizationOutcome(None), report).to_json())
    d = d["soundness"]
    assert d["verdict"] == "Unsound"
    assert d["violations"][0]["kind"] == "DeadlockNoCompletion"
    assert isinstance(d["violations"][0]["trace"], list)
    assert d["states_explored"] == report.states_explored


@st.composite
def block_models(draw, flip):
    """The net of a random block-structured model; with flip, one of its
    gateways is turned from AND to XOR or back.

    Blocks are tasks, sequences, XOR blocks of 2-3 branches, AND blocks of
    2 and XOR loops with an optional redo block, nested at most two deep.
    Only the first branch of an AND block may hold a loop: loops side by
    side, or wider AND blocks, make the brute-force oracle slow.
    """
    nodes = [("start", ObjectType.START_EVENT), ("end", ObjectType.END_EVENT)]
    edges = []
    gateways = []

    def node(kind):
        node_id = f"n{len(nodes)}"
        nodes.append((node_id, kind))
        return node_id

    def block(depth, loops=True):
        shapes = ("task", "seq", "xor", "and") + (("loop",) if loops else ())
        shape = draw(st.sampled_from(shapes if depth else ("task",)))
        if shape == "task":
            task = node(ObjectType.ACTIVITY)
            return task, task
        if shape == "seq":
            first, last = block(depth - 1, loops)
            entry, last_exit = block(depth - 1, loops)
            edges.append((last, entry))
            return first, last_exit
        if shape == "loop":
            entry, leave = node(ObjectType.XOR), node(ObjectType.XOR)
            gateways.extend((entry, leave))
            body_in, body_out = block(depth - 1)
            edges.extend([(entry, body_in), (body_out, leave)])
            if draw(st.booleans()):
                redo_in, redo_out = block(depth - 1)
                edges.extend([(leave, redo_in), (redo_out, entry)])
            else:
                edges.append((leave, entry))
            return entry, leave
        if shape == "xor":
            split, join = node(ObjectType.XOR), node(ObjectType.XOR)
            branches = [block(depth - 1, loops) for _ in range(draw(st.integers(2, 3)))]
        else:
            split, join = node(ObjectType.AND), node(ObjectType.AND)
            branches = [block(depth - 1, loops), block(depth - 1, False)]
        gateways.extend((split, join))
        for branch_in, branch_out in branches:
            edges.extend([(split, branch_in), (branch_out, join)])
        return split, join

    entry, leave = block(2)
    edges.extend([("start", entry), (leave, "end")])

    if flip and gateways:
        flipped = draw(st.sampled_from(gateways))
        nodes = [
            (node_id, ObjectType.XOR if kind is ObjectType.AND else ObjectType.AND)
            if node_id == flipped else (node_id, kind)
            for node_id, kind in nodes
        ]
    return to_wfnet(build(nodes, edges))


@given(block_models(flip=False))
@settings(max_examples=60, deadline=None)
def test_block_structured_nets_reduce_and_are_sound(net):
    assert _reduces(net)
    assert brute_force_soundness(net) == SOUND


TRIVIAL_NET = WFNet.of(("i", "o"), [("t", ("i",), ("o",))])


@given(block_models(flip=False), st.sampled_from((1, 2, DEFAULT_MAX_STATES)))
@settings(max_examples=60, deadline=None)
def test_reduced_nets_get_the_trivial_nets_explorer_report(net, cap):
    assert (soundness_dict(check_soundness(net, cap))
            == soundness_dict(_explore(TRIVIAL_NET, cap)))


@given(block_models(flip=True))
@settings(max_examples=60, deadline=None)
def test_flipped_gateway_nets_keep_the_explorer_report(net):
    if _reduces(net):
        assert brute_force_soundness(net) == SOUND
    else:
        assert (soundness_dict(check_soundness(net, max_states=DEFAULT_MAX_STATES))
                == soundness_dict(explore_every_transition(net, DEFAULT_MAX_STATES)))


@st.composite
def small_nets(draw):
    """A random net and whether it was drawn acyclic.

    An acyclic net lays its places in a line and every transition takes
    from one or more places before a cut and gives to places after it.
    Any other net draws inputs and outputs freely, so it may hold
    transitions without inputs, self-loops and cycles that pump tokens.
    Either kind may repeat a place among a transition's inputs or outputs.
    """
    line = ["i"] + [f"p{k}" for k in range(draw(st.integers(0, 4)))] + ["o"]
    acyclic = draw(st.booleans())
    transitions = []
    for n in range(draw(st.integers(1, 6))):
        if acyclic:
            cut = draw(st.integers(1, len(line) - 1))
            pre = draw(st.lists(st.sampled_from(line[:cut]), min_size=1, max_size=3))
            post = draw(st.lists(st.sampled_from(line[cut:]), max_size=3))
        else:
            pre = draw(st.lists(st.sampled_from(line[:-1]), max_size=3))
            post = draw(st.lists(st.sampled_from(line[1:]), max_size=3))
        transitions.append((f"t{n}", pre, post))
    return WFNet.of(line, transitions), acyclic


# b takes three tokens from q, which never holds one. A field as wide as
# the token counts alone need lets that subtraction borrow from the next
# place, and b would fire on an empty q.
HEAVY_ARC_NET = WFNet.of(["i", "o", "p", "q"], [("a", ["i"], ["p"]),
                                                ("b", ["p", "q", "q", "q"], ["o"])])


@given(small_nets(), st.integers(1, 200))
@example((HEAVY_ARC_NET, True), 1)
@example((HEAVY_ARC_NET, True), 2)
@example((HEAVY_ARC_NET, True), DEFAULT_MAX_STATES)
@settings(max_examples=300, deadline=None)
def test_explorer_matches_testing_every_transition(drawn, cap):
    net, acyclic = drawn
    if acyclic:
        assert not _may_run_forever(net)
    report = _explore(net, cap)
    assert soundness_dict(report) == soundness_dict(explore_every_transition(net, cap))
    assert all(c > 0 for v in report.violations if isinstance(v.witness, dict)
               for c in v.witness.values())


@pytest.mark.parametrize("cap", [1, 2, DEFAULT_MAX_STATES])
def test_net_without_transitions_matches_the_oracle(cap):
    net = WFNet.of(["i", "o"], [])
    report = _explore(net, cap)
    assert kinds(report) == ["DeadlockNoCompletion"]
    assert soundness_dict(report) == soundness_dict(explore_every_transition(net, cap))


@given(st.one_of(small_nets().map(lambda drawn: drawn[0]), block_models(flip=True)))
@example(WFNet.of(["i", "o", "p"], [("a", [], ["p"]), ("b", ["i"], ["o"])]))  # input-free
@example(WFNet.of(["i", "o", "p"], [("a", ["i"], ["p"]), ("b", ["p"], ["p"]),
                                    ("c", ["p"], ["o"])]))  # a self-loop
@example(WFNet.of(["i", "o", "p"], [("a", ["i"], ["p", "p"]), ("b", ["p", "p"], ["o"])]))
@settings(max_examples=300, deadline=None)
def test_kahn_acyclicity_test_matches_the_toposort(net):
    assert _may_run_forever(net) == may_run_forever_by_toposort(net)


def net_of(model):
    """The net of the normalized model; None when the model is empty (which
    normalize refuses) or normalize rejects it."""
    if not model.nodes:
        return None
    outcome = normalize(model)
    return None if outcome.rejected else to_wfnet(outcome.model)


def simulated_model(profile, seed):
    return replay(simulate(dataclasses.replace(PROFILES[profile], seed=seed)))


def assert_structure_check_and_reduction_match_the_definitions(net):
    offending = uncovered(net)
    reduces = _reduces(net)
    assert (not offending, offending) == wf_structured_by_arcs(net)
    assert reduces == reduces_in_rounds(net)
    # check_soundness runs the structure check only when the reduction fails.
    assert not offending or not reduces


@given(st.one_of(block_models(flip=False), block_models(flip=True),
                 small_nets().map(lambda drawn: drawn[0]),
                 st.integers(0, 2**32).map(random_wfnet)))
@settings(max_examples=400, deadline=None)
def test_structure_check_and_worklist_reduction_match_the_definitions(net):
    assert_structure_check_and_reduction_match_the_definitions(net)


@given(profile=st.sampled_from(sorted(PROFILES)), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_structure_check_and_worklist_reduction_on_simulated_sessions(profile, seed):
    net = net_of(simulated_model(profile, seed))
    if net is not None:
        assert_structure_check_and_reduction_match_the_definitions(net)


def is_free_choice(net):
    """Two transitions sharing an input place share all their inputs."""
    return all(set(t) == set(u) or not set(t) & set(u) for t in net.pre for u in net.pre)


# Each place has one consuming node, whose transitions either share one
# input place (XOR split) or are the only takers of their inputs.
@given(log=event_logs(max_events=60))
@settings(max_examples=80, deadline=None)
def test_nets_of_normalized_random_models_are_free_choice(log):
    net = net_of(replay(expand_reconnect(log)))
    assert net is None or is_free_choice(net)


@given(profile=st.sampled_from(sorted(PROFILES)), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=30, deadline=None)
def test_nets_of_simulated_sessions_are_free_choice(profile, seed):
    net = net_of(simulated_model(profile, seed))
    assert net is None or is_free_choice(net)


def and_split_xor_join(width):
    """An AND split of `width` branches of 3 tasks, closed by an XOR join."""
    nodes = [("s", ObjectType.START_EVENT), ("fork", ObjectType.AND),
             ("sync", ObjectType.XOR), ("e", ObjectType.END_EVENT)]
    edges = [("s", "fork"), ("sync", "e")]
    for b in range(width):
        prev = "fork"
        for d in range(3):
            nodes.append((f"p{b}_{d}", ObjectType.ACTIVITY))
            edges.append((prev, f"p{b}_{d}"))
            prev = f"p{b}_{d}"
        edges.append((prev, "sync"))
    return to_wfnet(build(nodes, edges))


def pumping_loop():
    """Three AND branches; the first loops back through an AND split that
    leaves one more token on its exit branch each round."""
    nodes = [("s", ObjectType.START_EVENT), ("fork", ObjectType.AND),
             ("back", ObjectType.XOR), ("a", ObjectType.ACTIVITY),
             ("again", ObjectType.AND), ("b", ObjectType.ACTIVITY),
             ("c", ObjectType.ACTIVITY), ("d", ObjectType.ACTIVITY),
             ("sync", ObjectType.AND), ("e", ObjectType.END_EVENT)]
    edges = [("s", "fork"), ("fork", "back"), ("back", "a"), ("a", "again"),
             ("again", "back"), ("again", "b"), ("b", "sync"),
             ("fork", "c"), ("c", "sync"), ("fork", "d"), ("d", "sync"),
             ("sync", "e")]
    return to_wfnet(build(nodes, edges))


def test_wide_and_split_xor_join_matches_the_oracle():
    net = and_split_xor_join(5)
    report = check_soundness(net)
    assert report.states_explored == 6252
    assert kinds(report) == ["DeadlockNoCompletion", "ImproperCompletion"]
    assert (json.dumps(soundness_dict(report))
            == json.dumps(soundness_dict(explore_every_transition(net, DEFAULT_MAX_STATES))))


def test_stuck_witness_preferred_over_a_live_locked_one():
    # From p, q live-locks (q <-> q2 forever, t6 waits for s) and comes
    # first in breadth-first order; r, reached after it, enables nothing.
    net = WFNet.of(
        ("i", "o", "p", "q", "q2", "r", "s"),
        [
            ("t1", ("i",), ("p",)),
            ("t2", ("p",), ("q",)),
            ("t3", ("q",), ("q2",)),
            ("t4", ("q2",), ("q",)),
            ("t5", ("p",), ("r",)),
            ("t6", ("q", "s"), ("o",)),
            ("t7", ("r", "s"), ("o",)),
            ("t8", ("p",), ("s",)),
            ("t9", ("p",), ("o",)),
        ],
    )
    report = check_soundness(net)
    assert kinds(report) == ["DeadlockNoCompletion", "DeadTransition", "DeadTransition"]
    stuck = report.violations[0]
    assert stuck.witness == {"r": 1}
    assert stuck.trace == ("t1", "t5")
    assert [v.witness for v in report.violations[1:]] == ["t6", "t7"]
    assert (soundness_dict(report)
            == soundness_dict(explore_every_transition(net, DEFAULT_MAX_STATES)))


def test_pumping_loop_matches_the_oracle():
    net = pumping_loop()
    assert _may_run_forever(net)
    report = check_soundness(net)
    assert kinds(report) == ["Unbounded"]
    unbounded = report.violations[0]
    assert fire(net, unbounded.trace) == unbounded.witness
    assert (json.dumps(soundness_dict(report))
            == json.dumps(soundness_dict(explore_every_transition(net, DEFAULT_MAX_STATES))))


def test_wide_and_block_is_sound_within_a_small_cap():
    # 9 branches of 3 tasks: about 4^9 markings, so exploration alone would
    # give up at any cap; the reduction decides it on the trivial net.
    nodes = [("s", ObjectType.START_EVENT), ("fork", ObjectType.AND),
             ("sync", ObjectType.AND), ("e", ObjectType.END_EVENT)]
    edges = [("s", "fork"), ("sync", "e")]
    for b in range(9):
        prev = "fork"
        for d in range(3):
            nodes.append((f"p{b}_{d}", ObjectType.ACTIVITY))
            edges.append((prev, f"p{b}_{d}"))
            prev = f"p{b}_{d}"
        edges.append((prev, "sync"))
    assert classify_model(build(nodes, edges), max_states=10).stage == "Sound"
