import dataclasses
import json
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import event_logs
from oracles import (
    avg_move_on_moved_elements,
    perc_num_elements_with_moves,
    seconds_by_fields,
    tot_create_time,
    whole_share,
)
from ppmkit.blocks import detect_blocks
from ppmkit.classify import session_json
from ppmkit.eventlog import EventLog, expand_reconnect
from ppmkit.metrics import (
    METRIC_NAMES,
    SessionMetrics,
    compute_session_metrics,
    tot_time,
    _seconds,
)
from ppmkit.replay import replay
from ppmkit.simulate import PROFILES, simulate


def blocks_of(log):
    """The dated blocks compute_session_metrics takes, found as
    classify_session finds them: on the log with reconnects expanded."""
    expanded = expand_reconnect(log)
    return detect_blocks(replay(expanded), expanded)


def test_diamond_fixture_exact(diamond_log):
    m = compute_session_metrics(diamond_log, blocks_of(diamond_log))
    assert m.max_simul_block == 1
    assert m.perc_num_block_as_a_whole == Fraction(1)
    assert m.avg_move_on_moved_elements == Fraction(3, 2)
    assert m.perc_num_elements_with_moves == Fraction(1, 8)
    assert m.tot_time == Fraction(95)
    assert m.tot_create_time == Fraction(75)


def test_churn_fixture_exact(churn_log):
    m = compute_session_metrics(churn_log, blocks_of(churn_log))
    assert m.max_simul_block == 0
    assert m.perc_num_block_as_a_whole is None
    assert m.avg_move_on_moved_elements == Fraction(1)
    assert m.perc_num_elements_with_moves == Fraction(1, 2)
    assert m.tot_time == Fraction(30)
    assert m.tot_create_time == Fraction(10)


def test_rewire_fixture_exact(rewire_log):
    # reconnects are expanded internally; the re-create stretches create time
    m = compute_session_metrics(rewire_log, blocks_of(rewire_log))
    assert m.max_simul_block == 0
    assert m.perc_num_block_as_a_whole is None
    assert m.avg_move_on_moved_elements == Fraction(2)
    assert m.perc_num_elements_with_moves == Fraction(1, 7)
    assert m.tot_time == Fraction(36)
    assert m.tot_create_time == Fraction(36)


def test_avg_move_none_without_moves(diamond_log):
    trimmed = EventLog(diamond_log.session_id, diamond_log.events[:16])
    assert avg_move_on_moved_elements(trimmed) is None
    m = compute_session_metrics(trimmed, blocks_of(trimmed))
    assert m.avg_move_on_moved_elements is None


def test_empty_session_errors():
    empty = EventLog("void", [])
    with pytest.raises(ValueError, match="empty session: no events"):
        tot_time(empty)
    with pytest.raises(ValueError, match="empty session: no create events"):
        tot_create_time(empty)
    with pytest.raises(ValueError, match="empty session: no created elements"):
        perc_num_elements_with_moves(empty)


def test_empty_session_refused():
    with pytest.raises(ValueError, match="empty session: no created elements"):
        compute_session_metrics(EventLog("void", []), [])


def assert_metrics_match_definitions(log):
    m = compute_session_metrics(log, blocks_of(log))
    expanded = expand_reconnect(log)
    assert m.avg_move_on_moved_elements == avg_move_on_moved_elements(expanded)
    assert m.perc_num_elements_with_moves == perc_num_elements_with_moves(expanded)
    assert m.tot_time == tot_time(expanded)
    assert m.tot_create_time == tot_create_time(expanded)


@given(log=event_logs())
@settings(max_examples=80, deadline=None)
def test_one_walk_matches_definitions(log):
    assert_metrics_match_definitions(log)


@given(profile=st.sampled_from(sorted(PROFILES)), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=30, deadline=None)
def test_one_walk_matches_definitions_on_simulated_sessions(profile, seed):
    assert_metrics_match_definitions(simulate(dataclasses.replace(PROFILES[profile], seed=seed)))


def test_unexpanded_log_rejected_by_parts(rewire_log):
    with pytest.raises(ValueError, match="expand reconnect events"):
        avg_move_on_moved_elements(rewire_log)


def test_seconds_is_exact():
    assert _seconds(timedelta(milliseconds=1)) == Fraction(1, 1000)
    assert _seconds(timedelta(days=1, microseconds=1)) == \
        Fraction(86_400_000_001, 10**6)
    assert _seconds(timedelta(0)) == 0


@given(delta=st.timedeltas())
def test_seconds_match_the_field_sum(delta):
    assert _seconds(delta) == seconds_by_fields(delta)


def test_dict_round_trip(diamond_log):
    m = compute_session_metrics(diamond_log, blocks_of(diamond_log))
    d = json.loads(session_json("s", m, []))["metrics"]
    assert list(d) == list(METRIC_NAMES)
    assert d["avg_move_on_moved_elements"] == 1.5
    assert SessionMetrics.from_dict(d) == m


def test_dict_keeps_none(churn_log):
    d = json.loads(session_json("s", compute_session_metrics(churn_log, blocks_of(churn_log)),
                                []))["metrics"]
    assert d["perc_num_block_as_a_whole"] is None
    assert SessionMetrics.from_dict(d).perc_num_block_as_a_whole is None


def shift_log(log, delta):
    events = [dataclasses.replace(ev, timestamp=ev.timestamp + delta)
              for ev in log.events]
    return EventLog(log.session_id, events)


@given(log=event_logs(min_events=2))
@settings(max_examples=40, deadline=None)
def test_time_translation_invariance(log):
    shifted = shift_log(log, timedelta(hours=6))
    assert (compute_session_metrics(shifted, blocks_of(shifted))
            == compute_session_metrics(log, blocks_of(log)))


@given(log=event_logs(min_events=2))
@settings(max_examples=40, deadline=None)
def test_doubling_gaps_doubles_durations(log):
    base = log.events[0].timestamp
    events = [dataclasses.replace(ev, timestamp=base + 2 * (ev.timestamp - base))
              for ev in log.events]
    stretched = EventLog(log.session_id, events)
    m0 = compute_session_metrics(log, blocks_of(log))
    m1 = compute_session_metrics(stretched, blocks_of(stretched))
    assert m1.tot_time == 2 * m0.tot_time
    assert m1.tot_create_time == 2 * m0.tot_create_time
    assert m1.max_simul_block == m0.max_simul_block
    assert m1.perc_num_block_as_a_whole == m0.perc_num_block_as_a_whole
    assert m1.avg_move_on_moved_elements == m0.avg_move_on_moved_elements
    assert m1.perc_num_elements_with_moves == m0.perc_num_elements_with_moves


@given(log=event_logs())
@settings(max_examples=40, deadline=None)
def test_metrics_well_formed(log):
    m = compute_session_metrics(log, blocks_of(log))
    assert m.max_simul_block >= 0
    if m.perc_num_block_as_a_whole is not None:
        assert 0 <= m.perc_num_block_as_a_whole <= 1
    assert 0 <= m.perc_num_elements_with_moves <= 1
    assert m.tot_time >= m.tot_create_time >= 0
    expanded = expand_reconnect(log)
    assert compute_session_metrics(expanded, blocks_of(log)) == m


@given(profile=st.sampled_from(sorted(PROFILES)), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_whole_share_matches_oracle(profile, seed):
    log = simulate(dataclasses.replace(PROFILES[profile], seed=seed))
    blocks = detect_blocks(replay(log), log)
    expected = whole_share(blocks, log)
    assert compute_session_metrics(log, blocks).perc_num_block_as_a_whole == expected
