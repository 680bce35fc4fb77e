import importlib
import json

import pytest

from conftest import FIXTURES, load_fixture
from golden_cases import GOLDEN_CASES, build
from ppmkit.cli import main as cli_main
from ppmkit.classify import (
    STAGES,
    PerspicuityVerdict,
    SessionReport,
    classify_model,
    classify_session,
)
from ppmkit.eventlog import ObjectType, expand_reconnect
from ppmkit.model import Edge, ProcessModel
from ppmkit.normalize import NormalizationOutcome
from ppmkit.soundness import SoundnessReport, Violation
from ppmkit.replay import replay

replay_module = importlib.import_module("ppmkit.replay")  # the package's `replay` is the function


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
    # classify_session and `ppmkit metrics` apply each event of the expanded
    # log once: block detection dates the replayed model without replaying.
    expanded = expand_reconnect(load_fixture(name)).events
    applied = []
    apply = replay_module.apply_event
    monkeypatch.setattr(replay_module, "apply_event",
                        lambda model, ev: applied.append(ev) or apply(model, ev))
    classify_session(load_fixture(name))
    assert applied == list(expanded)
    applied.clear()
    assert cli_main(["metrics", "--log", str(FIXTURES / name)]) == 0
    assert applied == list(expanded)


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
    assert [b.to_dict() for b in again.blocks] == [b.to_dict() for b in report.blocks]
    # serializing the deserialized form is a fixed point
    assert again.to_json() == text


# Per stage, the normalization reason and soundness violations that give it.
STAGE_EVIDENCE = {
    "MixedGateway": ("mixed gateway: g", None),
    "NotWFStructured": (None, (Violation("NotWFStructured", witness=None),)),
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
    again = PerspicuityVerdict.from_dict(verdict.to_dict())
    assert again == verdict
    assert again.stage == stage
    assert again.perspicuous is (stage == "Sound")


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

    again = PerspicuityVerdict.from_dict(verdict.to_dict())
    assert [v.kind for v in again.soundness.violations] == \
        [v.kind for v in verdict.soundness.violations]
    assert again.soundness.states_explored == verdict.soundness.states_explored
