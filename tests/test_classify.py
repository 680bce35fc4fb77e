import dataclasses
import gc
import json
import re
from collections import Counter
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    CLASHING_IDS,
    FIXTURES,
    back_to_front_chains,
    csv_log,
    event_logs,
    load_fixture,
    loops,
    outside_in_nests,
    rewired_blocks,
    simulated_logs,
)
import golden
from golden_cases import GOLDEN_CASES, build
from oracles import reference_report, report_from_dict, report_json, session_dict, verdict_dict
from ppmkit import eventlog
from ppmkit.blocks import Block
from ppmkit.cli import main as cli_main
from ppmkit.classify import (
    STAGES,
    PerspicuityVerdict,
    SessionReport,
    classify_model,
    classify_session,
    session_json,
)
from ppmkit.eventlog import (EventClass, EventLog, ModelingEvent, ObjectType, _Skeleton,
                             expand_reconnect, parse_log)
from ppmkit.metrics import SessionMetrics
from ppmkit.model import Edge, ProcessModel
from ppmkit.normalize import AppliedRule, NormalizationOutcome
from ppmkit.soundness import DEFAULT_MAX_STATES, VIOLATION_KINDS, SoundnessReport, Violation
from ppmkit.replay import replay
from ppmkit.simulate import PROFILES
from ppmkit.stats import compare_groups


def test_diamond_session_perspicuous(diamond_log):
    report = classify_session(diamond_log)
    assert report.session_id == "diamond"
    assert report.verdict.perspicuous is True
    assert report.verdict.stage == "Sound"
    assert report.verdict.normalization.applied_rules == ()
    assert len(report.blocks) == 1
    assert report.metrics.max_simul_block == 1


@pytest.mark.parametrize("name", ["diamond.csv", "rewire.csv"])
def test_session_is_replayed_once(monkeypatch, capsys, name):
    # classify_session and `ppmkit metrics` apply the expanded log's creates
    # and deletes to a _Skeleton twice: in the replay, and when block
    # detection dates the replayed model without replaying it.
    log = load_fixture(name)
    structural = [ev for ev in expand_reconnect(log).events
                  if ev.event_class in (EventClass.CREATE, EventClass.DELETE)]
    walks: dict[_Skeleton, list] = {}
    apply = _Skeleton.apply
    monkeypatch.setattr(_Skeleton, "apply",
                        lambda self, ev: walks.setdefault(self, []).append(ev) or apply(self, ev))
    classify_session(log)
    assert list(walks.values()) == [structural, structural]
    walks.clear()
    assert cli_main(["metrics", "--log", str(FIXTURES / name)]) == 0
    # parse_log's check walks the log as given, strictly
    assert [events for walk, events in walks.items() if not walk._strict] == [structural,
                                                                            structural]


def test_churn_session_needs_repairs(churn_log):
    report = classify_session(churn_log)
    assert report.verdict.perspicuous is True
    rules = [r.rule for r in report.verdict.normalization.applied_rules]
    assert rules == ["insert_start_event", "insert_end_event"]
    assert report.blocks == ()


def test_rewire_session_expands_and_classifies(rewire_log):
    report = classify_session(rewire_log)
    assert report.verdict.perspicuous is True
    assert report.verdict.stage == "Sound"


def test_mixed_gateway_stage():
    model = build(
        nodes=[("a", ObjectType.ACTIVITY), ("b", ObjectType.ACTIVITY),
               ("g", ObjectType.XOR), ("c", ObjectType.ACTIVITY),
               ("d", ObjectType.ACTIVITY)],
        edges=[("a", "g"), ("b", "g"), ("g", "c"), ("g", "d")],
    )
    verdict = classify_model(model)
    assert verdict.stage == "MixedGateway"
    assert verdict.perspicuous is False
    assert verdict.soundness is None
    assert verdict.normalization.rejected


def test_unsound_stage():
    # AND split closed by an XOR join once normalized
    source, _ = dict(GOLDEN_CASES)["implicit split and join, both defaults"]()
    verdict = classify_model(source)
    assert verdict.stage == "Unsound"
    assert verdict.perspicuous is False
    assert verdict.soundness.verdict == "Unsound"


def test_activity_cycle_is_not_wf_structured():
    model = build(
        nodes=[("a", ObjectType.ACTIVITY), ("b", ObjectType.ACTIVITY)],
        edges=[("a", "b")],
    )
    model.add_edge(Edge("back", "b", "a"))
    verdict = classify_model(model)
    assert verdict.stage == "NotWFStructured"
    assert verdict.perspicuous is False


def test_state_cap_stage(diamond_log):
    verdict = classify_model(replay(diamond_log), max_states=1)
    assert verdict.stage == "StateSpaceExceeded"
    assert verdict.perspicuous is False
    assert verdict.soundness.verdict == "Unknown"


def test_all_stages_are_declared():
    assert set(STAGES) == {"MixedGateway", "NotWFStructured", "Unsound",
                           "StateSpaceExceeded", "Sound"}


def test_empty_model_rejected():
    with pytest.raises(ValueError, match="empty model"):
        classify_model(ProcessModel())


def test_report_json_round_trip(diamond_log):
    report = classify_session(diamond_log)
    text = report.to_json()
    again = SessionReport.from_json(text)
    assert again.session_id == report.session_id
    assert again.metrics == report.metrics
    assert again.verdict.perspicuous == report.verdict.perspicuous
    assert again.verdict.stage == report.verdict.stage
    assert [dataclasses.replace(b, completion_seq=0) for b in report.blocks] == list(again.blocks)
    # serializing the deserialized form is a fixed point
    assert again.to_json() == text


# Per stage, a log and a state cap whose classify report has that stage.
_STAGE_LOGS = {
    "Sound": (None, DEFAULT_MAX_STATES),
    "StateSpaceExceeded": (None, 1),
    "MixedGateway": (csv_log("CREATE_ACTIVITY a", "CREATE_ACTIVITY b", "CREATE_XOR g",
                             "CREATE_ACTIVITY c", "CREATE_ACTIVITY d", "CREATE_EDGE e1 a g",
                             "CREATE_EDGE e2 b g", "CREATE_EDGE e3 g c", "CREATE_EDGE e4 g d"),
                     DEFAULT_MAX_STATES),
    "NotWFStructured": (csv_log("CREATE_ACTIVITY a", "CREATE_ACTIVITY b", "CREATE_EDGE e1 a b",
                                "CREATE_EDGE e2 b a"), DEFAULT_MAX_STATES),
    # an AND split closed by an XOR join
    "Unsound": (csv_log("CREATE_START_EVENT s", "CREATE_AND p", "CREATE_ACTIVITY b",
                        "CREATE_ACTIVITY c", "CREATE_XOR q", "CREATE_END_EVENT t",
                        "CREATE_EDGE e1 s p", "CREATE_EDGE e2 p b", "CREATE_EDGE e3 p c",
                        "CREATE_EDGE e4 b q", "CREATE_EDGE e5 c q", "CREATE_EDGE e6 q t"),
                DEFAULT_MAX_STATES),
}


def _records(report: SessionReport) -> list:
    verdict = report.verdict
    records = [report, report.metrics, *report.blocks, verdict, verdict.normalization,
               *verdict.normalization.applied_rules]
    if verdict.soundness is not None:
        records += [verdict.soundness, *verdict.soundness.violations]
    return records


def test_records_are_slotted_and_frozen(diamond_log, churn_log, rewire_log):
    """Every record a classify report, a load, a replay or compare_groups
    builds has no __dict__, and none of its fields can be assigned."""
    reports = [classify_session(churn_log), classify_session(rewire_log)]
    for stage, (text, max_states) in _STAGE_LOGS.items():
        report = classify_session(diamond_log if text is None else parse_log(text), max_states)
        assert report.verdict.stage == stage
        reports += [report, SessionReport.from_json(report.to_json())]
    records = [r for report in reports for r in _records(report)]
    assert {type(r).__name__ for r in records} >= {
        "Block", "AppliedRule", "Violation", "SoundnessReport"}
    model = replay(rewire_log)
    records += [*model.nodes.values(), *model.edges.values()]
    comparison = compare_groups(reports, metrics=("tot_time",))
    records += [comparison, *comparison.rows, comparison.rows[0].group_a,
                comparison.rows[0].test, PROFILES["structured"]]
    for record in records:
        assert not hasattr(record, "__dict__"), record
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, None)


# Per stage, the normalization reason and soundness violations that give it.
STAGE_EVIDENCE = {
    "MixedGateway": ("mixed gateway: g", None),
    "NotWFStructured": (None, (Violation("NotWFStructured", witness=("t_a",)),)),
    "Unsound": (None, (Violation("DeadTransition", witness="t_a"),)),
    "StateSpaceExceeded": (None, (Violation("StateSpaceExceeded"),)),
    "Sound": (None, ()),
}


@pytest.mark.parametrize("stage", STAGES)
def test_verdict_round_trip_for_every_stage(stage):
    reason, violations = STAGE_EVIDENCE[stage]
    verdict = PerspicuityVerdict(
        normalization=NormalizationOutcome(model=None, reason=reason),
        soundness=None if violations is None else SoundnessReport(violations, 3),
    )
    again = PerspicuityVerdict.from_dict(json.loads(verdict.to_json()))
    assert again == verdict
    assert again.stage == stage
    assert again.perspicuous is (stage == "Sound")


# Per violation kind, a witness and trace of the shape the check gives.
KIND_EVIDENCE = {
    "NotWFStructured": (("p_x", "t_a"), None),
    "DeadlockNoCompletion": ({"p_f4": 1}, ("t_s", "t_g1_f2")),
    "ImproperCompletion": ({"o": 1, "p_f5": 1}, ("t_s", "t_g1", "t_g2_f4")),
    "DeadTransition": ("t_a", None),
    "Unbounded": ({"p": 1, "q": 2}, ("t1", "t2", "t2")),
    "StateSpaceExceeded": (None, None),
}


@pytest.mark.parametrize("kind", VIOLATION_KINDS)
def test_verdict_of_every_violation_kind_loads_back_equal(kind):
    witness, trace = KIND_EVIDENCE[kind]
    verdict = PerspicuityVerdict(NormalizationOutcome(model=None),
                                 SoundnessReport((Violation(kind, witness, trace),), 7))
    assert PerspicuityVerdict.from_dict(json.loads(verdict.to_json())) == verdict


@pytest.mark.parametrize("reason, soundness", [
    ("mixed gateway: g", SoundnessReport((), 2)),
    (None, None),
], ids=["rejected_with_soundness", "repaired_without_soundness"])
def test_verdict_needs_soundness_exactly_when_not_rejected(reason, soundness):
    with pytest.raises(ValueError, match="does not match rejected"):
        PerspicuityVerdict(NormalizationOutcome(model=None, reason=reason), soundness)


def test_report_json_shape(churn_log):
    data = json.loads(classify_session(churn_log).to_json())
    assert set(data) == {"session_id", "metrics", "blocks", "verdict"}
    assert data["metrics"]["perc_num_block_as_a_whole"] is None
    assert data["verdict"]["soundness"]["verdict"] == "Sound"


def test_verdict_round_trip_keeps_violations():
    source, _ = dict(GOLDEN_CASES)["implicit split and join, both defaults"]()
    verdict = classify_model(source)
    from ppmkit.classify import PerspicuityVerdict

    again = PerspicuityVerdict.from_dict(json.loads(verdict.to_json()))
    assert [v.kind for v in again.soundness.violations] == \
        [v.kind for v in verdict.soundness.violations]
    assert again.soundness.states_explored == verdict.soundness.states_explored


# Ids as a hand-edited or foreign log may hold them: non-ASCII, quotes,
# backslashes, control characters and line separators.
_IDS = st.text(max_size=5) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\n", "\x00\x1f", "\u2028", "é", "\U0001f600", "g1"])
_FRACTIONS = st.builds(Fraction, st.integers(-10**300, 10**300), st.integers(1, 10**300))
_STAMPS = st.datetimes(
    min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
    timezones=st.none() | st.sampled_from([timezone.utc, timezone(timedelta(hours=-3))]))
# The witness each kind's checker writes: a marking, a transition id, node
# ids (a tuple, also once loaded; a list is written alike) or none.
_MARKINGS = st.dictionaries(_IDS, st.integers(1, 10**20), min_size=1, max_size=4)
_NODE_IDS = st.lists(_IDS, min_size=1, max_size=4)
_WITNESSES = {"DeadlockNoCompletion": _MARKINGS, "ImproperCompletion": _MARKINGS,
              "Unbounded": _MARKINGS, "DeadTransition": _IDS,
              "NotWFStructured": _NODE_IDS.map(tuple) | _NODE_IDS,
              "StateSpaceExceeded": st.none()}
_LOG_KINDS = [k for k in VIOLATION_KINDS if k not in ("NotWFStructured", "StateSpaceExceeded")]


@st.composite
def verdicts(draw) -> PerspicuityVerdict:
    """A verdict of a drawn stage, with the evidence that gives it."""
    stage = draw(st.sampled_from(STAGES))
    rules = tuple(draw(st.lists(st.builds(AppliedRule, _IDS, st.lists(_IDS, max_size=3)
                                          .map(tuple)), max_size=3)))
    reason = draw(_IDS) if stage == "MixedGateway" else None
    normalization = NormalizationOutcome(None, reason, rules)
    if stage == "MixedGateway":
        return PerspicuityVerdict(normalization, None)
    kinds = draw(st.lists(st.sampled_from(_LOG_KINDS), max_size=3))
    if stage in ("NotWFStructured", "StateSpaceExceeded"):
        kinds.insert(draw(st.integers(0, len(kinds))), stage)
    elif stage == "Unsound" and not kinds:
        kinds = ["DeadTransition"]
    if stage == "Sound":
        kinds = []
    violations = tuple(
        Violation(kind, draw(_WITNESSES[kind]), draw(st.none() | st.lists(_IDS, max_size=3).map(tuple)))
        for kind in kinds)
    verdict = PerspicuityVerdict(normalization,
                                 SoundnessReport(violations, draw(st.integers(0, 10**6))))
    assert verdict.stage == stage
    return verdict


@st.composite
def reports(draw) -> SessionReport:
    metrics = SessionMetrics(
        draw(st.integers(0, 10**20)), draw(st.none() | _FRACTIONS), draw(st.none() | _FRACTIONS),
        draw(_FRACTIONS), draw(_FRACTIONS), draw(_FRACTIONS))
    blocks = tuple(draw(st.lists(st.builds(
        Block, _IDS, _IDS, st.frozensets(_IDS, max_size=4), st.integers(0, 99),
        st.tuples(_STAMPS, _STAMPS), st.booleans()), max_size=3)))
    return SessionReport(draw(_IDS), metrics, blocks, draw(verdicts()))


@given(report=reports())
@settings(max_examples=300)
def test_writer_matches_json_dumps_of_the_dict_form(report):
    assert report.to_json() == report_json(report)
    parts = report.session_id, report.metrics, report.blocks
    assert session_json(*parts) == json.dumps(session_dict(*parts), indent=2) + "\n"
    assert report.verdict.to_json() == json.dumps(verdict_dict(report.verdict), indent=2) + "\n"


def _matches_reference(log) -> None:
    """classify_session composes its fast stages into what the slow
    definitions give: the same metrics, blocks (every field) and stage."""
    try:
        expected = reference_report(log)
    except ValueError:
        with pytest.raises(ValueError):
            classify_session(log)
        return
    report = classify_session(log)
    assert (report.metrics, list(report.blocks), report.verdict.stage) == expected


# Task t1 flows out of the would-be block g1..g2 to x until a delete of
# that flow, or of x, makes the block at the delete.
_LEAKY_BLOCK = ("CREATE_XOR g1", "CREATE_ACTIVITY t1", "CREATE_ACTIVITY t2", "CREATE_XOR g2",
                "CREATE_ACTIVITY x", "CREATE_EDGE e1 g1 t1", "CREATE_EDGE e2 g1 t2",
                "CREATE_EDGE e3 t1 x", "CREATE_EDGE e4 t1 g2", "CREATE_EDGE e5 t2 g2")


@example(log=parse_log(csv_log(*_LEAKY_BLOCK, "DELETE_EDGE e3")))
@example(log=parse_log(csv_log(*_LEAKY_BLOCK, "DELETE_ACTIVITY x")))
@given(log=event_logs())
@settings(max_examples=200, deadline=None)
def test_session_matches_the_reference_pipeline_on_random_logs(log):
    _matches_reference(log)


@given(log=simulated_logs())
@settings(max_examples=200, deadline=None)
def test_session_matches_the_reference_pipeline_on_simulated_sessions(log):
    _matches_reference(log)


@given(log=back_to_front_chains())
@settings(max_examples=40, deadline=None)
def test_session_matches_the_reference_pipeline_on_back_to_front_chains(log):
    _matches_reference(log)


@given(log=outside_in_nests())
@settings(max_examples=40, deadline=None)
def test_session_matches_the_reference_pipeline_on_outside_in_nests(log):
    _matches_reference(log)


@given(log=rewired_blocks())
@settings(max_examples=40, deadline=None)
def test_session_matches_the_reference_pipeline_on_rewired_blocks(log):
    _matches_reference(log)


@given(log=loops())
@settings(max_examples=30, deadline=None)
def test_session_matches_the_reference_pipeline_on_loops(log):
    _matches_reference(log)


def _renamed(log: EventLog, names: dict[str, str]) -> EventLog:
    return EventLog(log.session_id, [
        ModelingEvent(ev.seq, ev.timestamp, ev.kind, names[ev.object_id], ev.position, ev.label,
                      names.get(ev.source_id), names.get(ev.target_id)) for ev in log.events])


@st.composite
def renamed_logs(draw):
    """A log of event_logs, rewired_blocks or loops, and a one-to-one map
    of its object ids onto names from CLASHING_IDS (then x0, x1, ...):
    drawn in any order, or so that the names sort in the reverse order of
    the ids they replace."""
    log = draw(st.one_of(event_logs(max_events=30), rewired_blocks(), loops()))
    ids = sorted({ev.object_id for ev in log.events})
    pool = draw(st.permutations(CLASHING_IDS + [f"x{k}" for k in range(len(ids))]))[:len(ids)]
    if draw(st.booleans()):
        pool = sorted(pool, reverse=True)
    return log, dict(zip(ids, pool))


def _block_key(block: Block, name=str) -> tuple:
    return (name(block.split), name(block.join), frozenset(map(name, block.members)),
            block.interval, block.whole)


@given(case=renamed_logs())
@settings(max_examples=100, deadline=None)
def test_renaming_ids_leaves_the_report_unchanged(case):
    """Renaming object ids one to one changes no metric, stage, rule count
    or violation kind, maps the blocks one to one, and keeps the markings
    explored unless the net is unbounded or the search hit its cap."""
    log, names = case
    try:
        report = classify_session(log)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            classify_session(_renamed(log, names))
        return
    renamed = classify_session(_renamed(log, names))
    verdict, other = report.verdict, renamed.verdict
    assert renamed.metrics == report.metrics and other.stage == verdict.stage
    assert (len(other.normalization.applied_rules)
            == len(verdict.normalization.applied_rules))
    assert (Counter(map(_block_key, renamed.blocks))
            == Counter(_block_key(b, names.get) for b in report.blocks))
    if verdict.soundness is not None:
        kinds = Counter(v.kind for v in verdict.soundness.violations)
        assert Counter(v.kind for v in other.soundness.violations) == kinds
        if not {"Unbounded", "StateSpaceExceeded"} & set(kinds):
            assert other.soundness.states_explored == verdict.soundness.states_explored


def _seed_7_logs():
    """The seed-7 cohort and rework sessions of the benchmark, parsed."""
    return [parse_log(s.csv_text, s.session_id)
            for w in ("cohort", "rework") for s in golden.workloads.GENERATORS[w](7)]


@pytest.fixture(scope="module")
def seed_7_reports():
    return [classify_session(log).to_json() for log in _seed_7_logs()]


def _counting_parse_timestamp(monkeypatch) -> list:
    """Wrap eventlog.parse_timestamp, through which every stamp a column
    read does not take is parsed; the list returned holds one entry a call."""
    calls, parse = [], eventlog.parse_timestamp
    monkeypatch.setattr(eventlog, "parse_timestamp", lambda text: calls.append(text) or parse(text))
    return calls


def test_valid_reports_read_their_stamps_as_one_column(seed_7_reports, monkeypatch):
    calls = _counting_parse_timestamp(monkeypatch)
    loaded = [SessionReport.from_json(text) for text in seed_7_reports]
    assert calls == []
    assert sum(len(r.blocks) for r in loaded) > 300
    assert [r.to_json() for r in loaded] == seed_7_reports


def test_a_stamp_with_one_fraction_digit_loads_one_stamp_at_a_time(seed_7_reports, monkeypatch):
    data = json.loads(seed_7_reports[0])
    data["blocks"][0]["interval"][1] = data["blocks"][0]["interval"][1][:21] + "Z"  # ".7Z"
    calls = _counting_parse_timestamp(monkeypatch)
    report = SessionReport.from_dict(data)
    assert len(calls) == 2 * len(data["blocks"])
    assert report.blocks == report_from_dict(data).blocks
    assert report.blocks[0].interval[1].microsecond % 100_000 == 0


def test_loaded_and_classified_sessions_hold_no_reference_cycle(seed_7_reports):
    """Refcounting frees what a corpus load and a classify leave behind, so
    the cyclic collector finds nothing to free there."""
    gc.collect()
    gc.disable()
    try:
        reports = [classify_session(log) for log in _seed_7_logs()]
        loaded = [SessionReport.from_json(text) for text in seed_7_reports]
        assert [r.to_json() for r in loaded] == [r.to_json() for r in reports]
        del reports, loaded
        assert gc.collect() == 0
    finally:
        gc.enable()
