import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import any_models, event_logs, model_state, simulated_logs
from golden_cases import GOLDEN_CASES, build
from oracles import (
    backward_split_gateway,
    forward_merge_gateway,
    models_isomorphic,
    normalize_on_copies,
)
from ppmkit.eventlog import ObjectType, expand_reconnect
from ppmkit.model import NODE_TYPES, Edge, Node, ProcessModel
from ppmkit.normalize import (
    AppliedRule,
    _meeting_gateway,
    normalize,
)
from ppmkit.replay import replay
from ppmkit.wfnet import to_wfnet


@pytest.mark.parametrize("name,case", GOLDEN_CASES, ids=[n for n, _ in GOLDEN_CASES])
def test_golden_case_shape(name, case):
    source, expected = case()
    outcome = normalize(source)
    assert not outcome.rejected
    assert models_isomorphic(outcome.model, expected, set(source.nodes))


@pytest.mark.parametrize("name,case", GOLDEN_CASES, ids=[n for n, _ in GOLDEN_CASES])
def test_golden_outputs_translate(name, case):
    source, _ = case()
    to_wfnet(normalize(source).model)  # must not raise


@pytest.mark.parametrize("name,case", GOLDEN_CASES, ids=[n for n, _ in GOLDEN_CASES])
def test_golden_outputs_are_normal_forms(name, case):
    source, _ = case()
    model = normalize(source).model
    assert len(model.nodes_of_type(ObjectType.START_EVENT)) == 1
    assert len(model.nodes_of_type(ObjectType.END_EVENT)) == 1
    for task in model.nodes_of_type(ObjectType.ACTIVITY):
        assert model.in_degree(task.id) == 1
        assert model.out_degree(task.id) == 1
    # running the pipeline again changes nothing
    again = normalize(model)
    assert again.applied_rules == ()
    assert again.model == model


def test_merged_start_copies_and_sign():
    source, _ = dict(GOLDEN_CASES)["two starts meeting in an AND join"]()
    outcome = normalize(source)
    added = [n for n in outcome.model.nodes.values() if n.id not in source.nodes]
    gateways = [n for n in added if n.type in (ObjectType.XOR, ObjectType.AND)]
    assert [g.type for g in gateways] == [ObjectType.AND]
    assert AppliedRule("merge_start_events", ("sa", "sb")) in outcome.applied_rules


def test_merged_start_defaults_to_xor():
    source, _ = dict(GOLDEN_CASES)["two starts with no common gateway"]()
    outcome = normalize(source)
    added_gateways = [n for n in outcome.model.nodes.values()
                      if n.id not in source.nodes
                      and n.type in (ObjectType.XOR, ObjectType.AND)]
    assert {g.type for g in added_gateways} == {ObjectType.XOR}


def test_split_and_join_defaults_differ():
    # no gateway hints anywhere: split goes AND, join goes XOR
    source, _ = dict(GOLDEN_CASES)["implicit split and join, both defaults"]()
    outcome = normalize(source)
    names = [r.rule for r in outcome.applied_rules]
    assert names.count("insert_split") == 1
    assert names.count("insert_join") == 1
    m = outcome.model
    split = next(n for n in m.nodes.values() if n.id.startswith("s_"))
    join = next(n for n in m.nodes.values() if n.id.startswith("j_"))
    assert split.type is ObjectType.AND
    assert join.type is ObjectType.XOR


def test_join_sign_copies_common_split():
    # B and C both descend from one AND split, so D's fresh join is AND
    source = build(
        nodes=[("s", ObjectType.START_EVENT), ("a", ObjectType.ACTIVITY),
               ("g", ObjectType.AND), ("b", ObjectType.ACTIVITY),
               ("c", ObjectType.ACTIVITY), ("d", ObjectType.ACTIVITY),
               ("e", ObjectType.END_EVENT)],
        edges=[("s", "a"), ("a", "g"), ("g", "b"), ("g", "c"),
               ("b", "d"), ("c", "d"), ("d", "e")],
    )
    outcome = normalize(source)
    join = next(n for n in outcome.model.nodes.values() if n.id.startswith("j_"))
    assert join.type is ObjectType.AND


class TestMixedGateway:
    def build_mixed(self):
        return build(
            nodes=[("a", ObjectType.ACTIVITY), ("b", ObjectType.ACTIVITY),
                   ("g", ObjectType.XOR), ("c", ObjectType.ACTIVITY),
                   ("d", ObjectType.ACTIVITY)],
            edges=[("a", "g"), ("b", "g"), ("g", "c"), ("g", "d")],
        )

    def test_detected(self):
        assert normalize(self.build_mixed()).reason == "mixed gateway: g"

    def test_rejection(self):
        outcome = normalize(self.build_mixed())
        assert outcome.rejected
        assert outcome.model is None
        assert outcome.reason == "mixed gateway: g"
        assert outcome.applied_rules == ()

    def test_multiple_offenders_listed(self):
        m = self.build_mixed()
        m.add_node(Node("g2", ObjectType.AND))
        for i, (src, tgt) in enumerate([("c", "g2"), ("d", "g2"),
                                        ("g2", "a"), ("g2", "b")]):
            m.add_edge(Edge(f"x{i}", src, tgt))
        outcome = normalize(m)
        assert outcome.reason == "mixed gateway: g, g2"

    def test_pure_join_then_split_is_fine(self):
        # 2-in-1-out and 1-in-2-out gateways are not mixed
        m = build(
            nodes=[("a", ObjectType.ACTIVITY), ("b", ObjectType.ACTIVITY),
                   ("j", ObjectType.XOR), ("s", ObjectType.XOR),
                   ("c", ObjectType.ACTIVITY), ("d", ObjectType.ACTIVITY)],
            edges=[("a", "j"), ("b", "j"), ("j", "s"), ("s", "c"), ("s", "d")],
        )
        assert not normalize(m).rejected


def test_empty_model_raises():
    with pytest.raises(ValueError, match="empty model"):
        normalize(ProcessModel())


def test_isolated_activity_gets_both_events():
    outcome = normalize(ProcessModel(nodes=[Node("a", ObjectType.ACTIVITY)]))
    rules = [r.rule for r in outcome.applied_rules]
    assert rules == ["insert_start_event", "insert_end_event"]
    m = outcome.model
    assert set(m.nodes) == {"a", "start_a", "end_a"}
    assert m.in_degree("a") == 1 and m.out_degree("a") == 1


def test_plans_use_entering_snapshot():
    # case 5: D's join must stay XOR even though A gains an AND split in
    # the same pass; the later insertion must not be mistaken for a hint
    source, _ = dict(GOLDEN_CASES)["implicit split and join, both defaults"]()
    done = normalize(source).model
    join = next(n for n in done.nodes.values() if n.id.startswith("j_"))
    assert join.type is ObjectType.XOR


def test_fresh_ids_never_collide():
    m = build(
        nodes=[("a", ObjectType.ACTIVITY), ("start_a", ObjectType.ACTIVITY)],
        edges=[("start_a", "a")],
    )
    outcome = normalize(m)
    # the obvious name start_a is taken by a task, so a suffix appears
    starts = outcome.model.nodes_of_type(ObjectType.START_EVENT)
    assert len(starts) == 1
    assert starts[0].id == "start_start_a"


def test_already_normal_model_untouched(diamond_log):
    from ppmkit.replay import replay

    model = replay(diamond_log)
    outcome = normalize(model)
    assert outcome.applied_rules == ()
    assert outcome.model == model


def test_bundled_flows_keep_their_ids():
    # f3 (A->D) is bundled twice: into A's split and into D's join
    source = build(
        [("s", ObjectType.START_EVENT), ("A", ObjectType.ACTIVITY),
         ("B", ObjectType.ACTIVITY), ("D", ObjectType.ACTIVITY), ("x", ObjectType.END_EVENT)],
        [("s", "A"), ("A", "B"), ("A", "D"), ("B", "D"), ("D", "x")],
    )
    before = source.to_dict()
    m = normalize(source).model
    assert source.to_dict() == before
    ends = {eid: (m.edges[eid].source, m.edges[eid].target) for eid in source.edges}
    assert ends == {"f1": ("s", "A"), "f2": ("s_A", "B"), "f3": ("s_A", "j_D"),
                    "f4": ("B", "j_D"), "f5": ("D", "x")}


@st.composite
def small_models(draw):
    """Models of 1-7 nodes of every type, with parallel edges and self-loops."""
    types = draw(st.lists(st.sampled_from(NODE_TYPES), min_size=1, max_size=7))
    nodes = [Node(f"n{k}", t) for k, t in enumerate(types)]
    ids = st.sampled_from([n.id for n in nodes])
    ends = draw(st.lists(st.tuples(ids, ids), max_size=12))
    return ProcessModel(nodes, [Edge(f"e{k}", s, t) for k, (s, t) in enumerate(ends)])


RING = build([("a", ObjectType.ACTIVITY), ("b", ObjectType.XOR), ("c", ObjectType.ACTIVITY)],
             [("a", "b"), ("b", "c"), ("c", "a")])


@given(model=small_models())
@example(model=RING)  # a loop the walk must stop on
@settings(max_examples=200, deadline=None)
def test_meeting_gateway_matches_mirrored_walkers(model):
    for node in model.nodes:
        for check_first in (False, True):
            assert (_meeting_gateway(model, node, forward=True, check_first=check_first)
                    == forward_merge_gateway(model, node, check_first))
            assert (_meeting_gateway(model, node, forward=False, check_first=check_first)
                    == backward_split_gateway(model, node, check_first))


def _outcome_or_error(run, model):
    try:
        return run(model)
    except ValueError as exc:
        return str(exc)


# Drawn models, and the final models of random logs and simulated sessions.
ANY_MODEL = st.one_of(any_models(), any_models(clashing=True),
                      event_logs().map(lambda log: replay(expand_reconnect(log))),
                      simulated_logs().map(replay))


@given(model=ANY_MODEL)
@example(model=ProcessModel())
@settings(max_examples=300, deadline=None)
def test_normalize_matches_the_stages_on_copies(model):
    before = model_state(model)
    outcome = _outcome_or_error(normalize, model)
    expected = _outcome_or_error(normalize_on_copies, model)
    assert outcome == expected
    assert model_state(model) == before
    if isinstance(outcome, str) or outcome.rejected:
        return
    # the input comes back exactly when no rule applies to it
    assert (outcome.model is model) == (outcome.applied_rules == ())
    assert model_state(outcome.model) == model_state(expected.model)
