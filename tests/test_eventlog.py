import csv
import dataclasses
import inspect
import io
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    BASE,
    HOSTILE_LOG,
    UNREPLAYABLE_LOGS,
    assert_parses_as_the_row_loop,
    event_logs,
    load_fixture,
    loops,
    parse_outcome,
    rewired_blocks,
    session_logs,
    simulated_logs,
)
from oracles import (
    event_problem,
    format_timestamp_fields,
    parse_log_row_by_row,
    parse_timestamp_strptime,
    replays,
    serialize_log_by_fields,
)
from ppmkit.eventlog import (
    CSV_HEADER,
    EventClass,
    EventKind,
    KIND_CLASS,
    KIND_OBJECT_TYPE,
    EventLog,
    LogFormatError,
    ModelingEvent,
    ObjectType,
    expand_reconnect,
    format_timestamp,
    parse_log,
    parse_timestamp,
    serialize_log,
    _Skeleton,
)
from ppmkit.simulate import PROFILES, simulate


def ev(seq, kind, oid, *, secs=None, position=None, label=None,
       source=None, target=None):
    return ModelingEvent(
        seq=seq,
        timestamp=BASE + timedelta(seconds=seq if secs is None else secs),
        kind=kind,
        object_id=oid,
        position=position,
        label=label,
        source_id=source,
        target_id=target,
    )


# Create a and b, a flow e from a to b, delete a, which takes e with it,
# then edit e: a log the old validator took and replay refused.
FOUND_EVENTS = (
    ev(1, EventKind.CREATE_ACTIVITY, "a"),
    ev(2, EventKind.CREATE_ACTIVITY, "b"),
    ev(3, EventKind.CREATE_EDGE, "e", source="a", target="b"),
    ev(4, EventKind.DELETE_ACTIVITY, "a"),
    ev(5, EventKind.CREATE_EDGE_BENDPOINT, "e"),
)


class TestTimestamps:
    def test_round_trip(self):
        ts = parse_timestamp("2010-11-15T10:00:01.250Z")
        assert ts == datetime(2010, 11, 15, 10, 0, 1, 250000, tzinfo=timezone.utc)
        assert format_timestamp(ts) == "2010-11-15T10:00:01.250Z"

    def test_rejects_sub_millisecond(self):
        with pytest.raises(ValueError, match="millisecond"):
            parse_timestamp("2010-11-15T10:00:01.2505Z")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad timestamp"):
            parse_timestamp("yesterday")

    @pytest.mark.parametrize("text", [
        "2010-1-5T1:0:0.4Z",  # one-digit fields
        "2010-11-15t10:00:01.250z",  # lower-case T and Z
        "2010-11-15T10:00:01.250",  # no Z
        "2010-11-15T10:00:01Z",  # no fraction
        "2010-11-15T10:00:01.2500000Z",  # seven fraction digits
        "2010-11-15T10:00:01.250Z\n",
        " 2010-11-15T10:00:01.250Z",
        "\u0662\u0660\u0661\u0660-11-15T10:00:01.250Z",  # Arabic-Indic digits
        "2010-11-15T10:00:1\u0662.250Z",
        "2010-02-30T10:00:01.250Z",  # no such day
        "2010-11-15T24:00:00.000Z",
        "2010-11-15T10:00:60.000Z",
        "0000-01-01T00:00:00.000Z",
    ])
    def test_rejects_loose_forms(self, text):
        with pytest.raises(ValueError, match="^bad timestamp"):
            parse_timestamp(text)

    def test_loose_forms_strptime_took(self):
        # the old parser accepted these; the documented shape does not
        for text in ("2010-1-5T1:0:0.4Z", "2010-11-15t10:00:01.250z",
                     "\u0662\u0660\u0661\u0660-11-15T10:00:01.250Z"):
            parse_timestamp_strptime(text)

    def test_fraction_padded_to_microseconds(self):
        assert parse_timestamp("2010-11-15T10:00:01.25Z").microsecond == 250_000
        assert parse_timestamp("2010-11-15T10:00:01.123000Z").microsecond == 123_000
        with pytest.raises(ValueError, match="millisecond"):
            parse_timestamp("2010-11-15T10:00:01.000250Z")

    def test_year_below_1000_round_trips(self):
        ts = datetime(999, 1, 2, 3, 4, 5, 6000, tzinfo=timezone.utc)
        assert format_timestamp(ts) == "0999-01-02T03:04:05.006Z"
        assert parse_timestamp(format_timestamp(ts)) == ts


_ALIGNED_UTC = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999000),
    timezones=st.just(timezone.utc),
).map(lambda dt: dt.replace(microsecond=dt.microsecond // 1000 * 1000))


@given(dt=_ALIGNED_UTC)
def test_timestamp_round_trip_matches_strptime(dt):
    text = format_timestamp(dt)
    assert parse_timestamp(text) == dt == parse_timestamp_strptime(text)


# Naive stamps and stamps at UTC and at other offsets, the widest ones
# included, over every year a datetime holds.
_ANY_STAMP = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999999),
    timezones=st.none() | st.sampled_from([
        timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-8)),
        timezone(timedelta(hours=23, minutes=59)), timezone(-timedelta(hours=23, minutes=59)),
    ]),
)


@given(dt=_ANY_STAMP)
@example(dt=datetime(1, 1, 1))
@example(dt=datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc))
@example(dt=datetime(2010, 11, 15, 10, 0, 1, 250999, tzinfo=timezone(timedelta(hours=-8))))
@example(dt=datetime(1, 1, 1, 0, 30, tzinfo=timezone(timedelta(hours=5))))  # before year 1 in UTC
@settings(max_examples=300)
def test_format_timestamp_matches_the_field_by_field_form(dt):
    """Microseconds are truncated to milliseconds, aware stamps turned to
    UTC; a stamp whose UTC form no datetime holds raises OverflowError."""
    try:
        want = format_timestamp_fields(dt)
    except OverflowError:
        with pytest.raises(OverflowError):
            format_timestamp(dt)
        return
    assert format_timestamp(dt) == want


# The characters timestamps are made of, some near misses and a few
# non-ASCII digits.
_TS_ALPHABET = "0123456789-:T.Z tz\u0661\u0967\uff11"


@given(text=st.text(_TS_ALPHABET, max_size=30)
       | st.from_regex(r"\A\d{1,4}-\d{1,2}-\d{1,2}T\d{1,2}:\d{1,2}:\d{1,2}\.\d{1,7}Z\Z"))
@example(text="2010-11-15T10:00:01.2505Z")
@example(text="2010-1-5T1:0:0.4Z")
@settings(max_examples=100)
def test_timestamp_parser_accepts_only_what_strptime_accepts(text):
    try:
        ts = parse_timestamp(text)
    except ValueError as exc:
        # a shape it refuses is never called misaligned
        if "millisecond" in str(exc):
            with pytest.raises(ValueError, match="millisecond"):
                parse_timestamp_strptime(text)
        return
    assert ts == parse_timestamp_strptime(text)


class TestEventKinds:
    def test_grid_count(self):
        # 3 action classes x 6 object types, plus bendpoints, label drag,
        # reconnect, and the four naming operations
        assert len(EventKind) == 26

    def test_bendpoint_edits_are_moves(self):
        for kind in (EventKind.CREATE_EDGE_BENDPOINT,
                     EventKind.MOVE_EDGE_BENDPOINT,
                     EventKind.DELETE_EDGE_BENDPOINT,
                     EventKind.MOVE_EDGE_LABEL):
            assert KIND_CLASS[kind] is EventClass.MOVE

    def test_name_events_are_other(self):
        assert KIND_CLASS[EventKind.NAME_ACTIVITY] is EventClass.OTHER
        assert KIND_CLASS[EventKind.RENAME_EDGE] is EventClass.OTHER

    def test_reconnect_is_its_own_class(self):
        assert KIND_CLASS[EventKind.RECONNECT_EDGE] is EventClass.RECONNECT

    def test_kind_class_table(self):
        expected = {
            "CREATE_START_EVENT": EventClass.CREATE,
            "CREATE_END_EVENT": EventClass.CREATE,
            "CREATE_ACTIVITY": EventClass.CREATE,
            "CREATE_XOR": EventClass.CREATE,
            "CREATE_AND": EventClass.CREATE,
            "CREATE_EDGE": EventClass.CREATE,
            "MOVE_START_EVENT": EventClass.MOVE,
            "MOVE_END_EVENT": EventClass.MOVE,
            "MOVE_ACTIVITY": EventClass.MOVE,
            "MOVE_XOR": EventClass.MOVE,
            "MOVE_AND": EventClass.MOVE,
            "MOVE_EDGE_LABEL": EventClass.MOVE,
            "CREATE_EDGE_BENDPOINT": EventClass.MOVE,
            "MOVE_EDGE_BENDPOINT": EventClass.MOVE,
            "DELETE_EDGE_BENDPOINT": EventClass.MOVE,
            "DELETE_START_EVENT": EventClass.DELETE,
            "DELETE_END_EVENT": EventClass.DELETE,
            "DELETE_ACTIVITY": EventClass.DELETE,
            "DELETE_XOR": EventClass.DELETE,
            "DELETE_AND": EventClass.DELETE,
            "DELETE_EDGE": EventClass.DELETE,
            "RECONNECT_EDGE": EventClass.RECONNECT,
            "NAME_ACTIVITY": EventClass.OTHER,
            "RENAME_ACTIVITY": EventClass.OTHER,
            "NAME_EDGE": EventClass.OTHER,
            "RENAME_EDGE": EventClass.OTHER,
        }
        assert {kind.value: cls for kind, cls in KIND_CLASS.items()} == expected

    def test_plain_grid(self):
        assert KIND_CLASS[EventKind.CREATE_XOR] is EventClass.CREATE
        assert KIND_CLASS[EventKind.MOVE_ACTIVITY] is EventClass.MOVE
        assert KIND_CLASS[EventKind.DELETE_EDGE] is EventClass.DELETE


class TestModelingEvent:
    @pytest.mark.parametrize("kind", list(EventKind), ids=lambda kind: kind.value)
    def test_object_type_comes_from_kind(self, kind):
        ends = {}
        if kind in (EventKind.CREATE_EDGE, EventKind.RECONNECT_EDGE):
            ends = {"source": "a", "target": "b"}
        assert ev(1, kind, "x", **ends).object_type is KIND_OBJECT_TYPE[kind]

    def test_edge_create_needs_endpoints(self):
        with pytest.raises(ValueError, match="requires source_id and target_id"):
            ev(1, EventKind.CREATE_EDGE, "e")

    def test_node_create_refuses_endpoints(self):
        with pytest.raises(ValueError, match="must not carry edge endpoints"):
            ev(1, EventKind.CREATE_ACTIVITY, "a", source="x", target="y")

    def test_seq_positive(self):
        with pytest.raises(ValueError, match="seq must be positive"):
            ev(0, EventKind.CREATE_ACTIVITY, "a")

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="^unknown event kind 'BOGUS'$"):
            ev(1, "BOGUS", "a")

    def test_kind_as_string_refused(self):
        # a str equal to a member's value is still not an EventKind
        with pytest.raises(ValueError, match="^unknown event kind 'CREATE_ACTIVITY'$"):
            ev(1, "CREATE_ACTIVITY", "a", source="x")


class TestEventLogValidation:
    def test_seq_must_increase(self):
        events = [
            ev(2, EventKind.CREATE_ACTIVITY, "a"),
            ev(2, EventKind.MOVE_ACTIVITY, "a", position=(1, 1)),
        ]
        with pytest.raises(ValueError, match="strictly increasing"):
            EventLog("s", events)

    def test_timestamp_must_not_regress(self):
        events = [
            ev(1, EventKind.CREATE_ACTIVITY, "a", secs=10),
            ev(2, EventKind.MOVE_ACTIVITY, "a", secs=5, position=(1, 1)),
        ]
        with pytest.raises(ValueError, match="timestamp regression"):
            EventLog("s", events)

    def test_action_on_unknown_object(self):
        with pytest.raises(ValueError, match="action on unknown object"):
            EventLog("s", [ev(1, EventKind.MOVE_ACTIVITY, "ghost", position=(0, 0))])

    def test_action_on_deleted_object(self):
        events = [
            ev(1, EventKind.CREATE_ACTIVITY, "a"),
            ev(2, EventKind.DELETE_ACTIVITY, "a"),
            ev(3, EventKind.MOVE_ACTIVITY, "a", position=(0, 0)),
        ]
        with pytest.raises(ValueError, match="action on deleted object"):
            EventLog("s", events)

    def test_recreate_after_delete_allowed_here(self):
        # the expanded form of a reconnect does exactly this
        events = [
            ev(1, EventKind.CREATE_ACTIVITY, "a"),
            ev(2, EventKind.DELETE_ACTIVITY, "a"),
            ev(3, EventKind.CREATE_ACTIVITY, "a"),
        ]
        assert len(EventLog("s", events)) == 3

    def test_duplicate_create(self):
        events = [
            ev(1, EventKind.CREATE_ACTIVITY, "a"),
            ev(2, EventKind.CREATE_ACTIVITY, "a"),
        ]
        with pytest.raises(ValueError, match="^duplicate object id a at seq 2$"):
            EventLog("s", events)

    def test_node_delete_ends_its_flows(self):
        with pytest.raises(ValueError, match="^action on deleted object e at seq 5$"):
            EventLog("s", FOUND_EVENTS)

    def test_flow_needs_live_nodes_as_ends(self):
        wired = [ev(1, EventKind.CREATE_ACTIVITY, "a"), ev(2, EventKind.CREATE_ACTIVITY, "b"),
                 ev(3, EventKind.CREATE_EDGE, "e", source="a", target="b")]
        for bad in (ev(4, EventKind.CREATE_EDGE, "f", source="e", target="b"),
                    ev(4, EventKind.RECONNECT_EDGE, "e", source="a", target="ghost")):
            with pytest.raises(ValueError, match=f"^edge {bad.object_id} ends at "
                                                 r"(e|ghost), not a live node at seq 4$"):
                EventLog("s", wired + [bad])


class TestParseLog:
    @pytest.mark.parametrize("kind", list(EventKind), ids=lambda kind: kind.value)
    def test_object_type_must_match_kind(self, kind):
        implied = KIND_OBJECT_TYPE[kind]
        for other in ObjectType:
            if other is implied:
                continue
            row = f"1,2010-11-15T10:00:00.000Z,{kind.value},x,{other.value},,,,,\n"
            with pytest.raises(LogFormatError) as err:
                parse_log(CSV_HEADER + "\n" + row)
            assert str(err.value) == (f"{kind.value} implies object type {implied.value}, "
                                      f"got {other.value} at line 2")

    def test_fixture(self):
        log = load_fixture("diamond.csv")
        assert log.session_id == "diamond"
        assert len(log) == 20
        assert log.events[0].kind is EventKind.CREATE_START_EVENT
        assert log.events[2].source_id == "s1"
        assert log.events[19].label == "report"

    def test_header_required(self):
        with pytest.raises(LogFormatError, match="bad header") as err:
            parse_log("nope,nope\n1,2,3\n")
        assert err.value.line == 1

    def test_empty_input(self):
        with pytest.raises(LogFormatError, match="empty input"):
            parse_log("")

    def test_error_carries_line_number(self):
        data = CSV_HEADER + "\n" + "x,2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,,,,,\n"
        with pytest.raises(LogFormatError, match="at line 2"):
            parse_log(data)

    def test_unknown_event_kind(self):
        data = CSV_HEADER + "\n" + "1,2010-11-15T10:00:00.000Z,SPINDLE,a,ACTIVITY,,,,,\n"
        with pytest.raises(LogFormatError, match="unknown event"):
            parse_log(data)

    def test_coordinates_come_in_pairs(self):
        data = CSV_HEADER + "\n" + "1,2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,5,,,,\n"
        with pytest.raises(LogFormatError, match="together"):
            parse_log(data)

    def test_strict_refuses_recreation(self):
        rows = [
            CSV_HEADER,
            "1,2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,,,,,",
            "2,2010-11-15T10:00:01.000Z,DELETE_ACTIVITY,a,ACTIVITY,,,,,",
            "3,2010-11-15T10:00:02.000Z,CREATE_ACTIVITY,a,ACTIVITY,,,,,",
        ]
        with pytest.raises(LogFormatError, match="recreation of deleted object"):
            parse_log("\n".join(rows) + "\n")

    def test_strict_refuses_a_live_duplicate_as_one_and_a_recreation_before_a_dead_end(self):
        rows = [CSV_HEADER, "1,2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,,,,,",
                "2,2010-11-15T10:00:01.000Z,CREATE_ACTIVITY,b,ACTIVITY,,,,,",
                "3,2010-11-15T10:00:02.000Z,CREATE_EDGE,e,EDGE,,,,a,b"]
        for last, refusal in (
                ("4,2010-11-15T10:00:03.000Z,CREATE_ACTIVITY,a,ACTIVITY,,,,,",
                 "duplicate object id a at line 5"),
                ("4,2010-11-15T10:00:03.000Z,CREATE_EDGE,e,EDGE,,,,ghost,b",
                 "duplicate object id e at line 5")):
            with pytest.raises(LogFormatError, match=f"^{refusal}$"):
                parse_log("\n".join(rows + [last]) + "\n")
        gone = rows + ["4,2010-11-15T10:00:03.000Z,DELETE_ACTIVITY,a,ACTIVITY,,,,,",
                       "5,2010-11-15T10:00:04.000Z,CREATE_EDGE,e,EDGE,,,,ghost,b"]
        with pytest.raises(LogFormatError, match="^recreation of deleted object e at line 6$"):
            parse_log("\n".join(gone) + "\n")

    def test_type_flip_names_its_line(self):
        rows = [
            CSV_HEADER,
            "1,2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,,,,,",
            "2,2010-11-15T10:00:01.000Z,MOVE_XOR,a,XOR,5,5,,,",
        ]
        with pytest.raises(LogFormatError, match="object a changes type at line 3") as err:
            parse_log("\n".join(rows) + "\n")
        assert err.value.line == 3

    def test_action_after_delete_names_its_line(self):
        rows = [
            CSV_HEADER,
            "1,2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,,,,,",
            "2,2010-11-15T10:00:01.000Z,DELETE_ACTIVITY,a,ACTIVITY,,,,,",
            "",
            "3,2010-11-15T10:00:02.000Z,MOVE_ACTIVITY,a,ACTIVITY,5,5,,,",
        ]
        with pytest.raises(LogFormatError, match="action on deleted object a at line 5") as err:
            parse_log("\n".join(rows) + "\n")
        assert err.value.line == 5

    @pytest.mark.parametrize("name", sorted(UNREPLAYABLE_LOGS))
    def test_refuses_a_log_that_does_not_replay(self, name):
        text, line = UNREPLAYABLE_LOGS[name]
        with pytest.raises(LogFormatError) as err:
            parse_log(text)
        assert err.value.line == line
        assert str(err.value).endswith(f" at line {line}")

    def test_field_over_csv_limit(self):
        data = (CSV_HEADER + "\n"
                + "1,2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,,," + "x" * 200_000
                + ",,\n")
        with pytest.raises(LogFormatError, match="malformed CSV: field larger") as err:
            parse_log(data)
        assert err.value.line == 2

    def test_nul_byte(self):
        # refused on every Python, as Python 3.10's csv module refuses it
        data = CSV_HEADER + "\n" + "\n" + "1,2010-11-15T10:00:00.000Z,CREATE_\0,a,ACTIVITY,,,,,\n"
        with pytest.raises(LogFormatError) as err:
            parse_log(data)
        assert str(err.value) == "malformed CSV: line contains NUL at line 3"
        assert err.value.line == 3

    def test_invalid_utf8(self):
        data = (CSV_HEADER + "\n").encode() + b"1,\xff\xfe,CREATE_ACTIVITY,a,ACTIVITY,,,,,\n"
        with pytest.raises(LogFormatError, match="not UTF-8") as err:
            parse_log(data)
        assert err.value.line == 1

    def test_bytes_and_text_parse_alike(self, diamond_log):
        text = serialize_log(diamond_log)
        assert parse_log(text.encode(), "diamond") == parse_log(text, "diamond") == diamond_log

    def test_line_numbers_count_lines_of_quoted_fields(self):
        rows = [
            CSV_HEADER,
            '1,2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,,,"two\nlines",,',
            "",
            "2,2010-11-15T10:00:01.000Z,MOVE_ACTIVITY,zz,ACTIVITY,1,1,,,",
        ]
        with pytest.raises(LogFormatError, match="unknown object zz at line 5"):
            parse_log("\n".join(rows) + "\n")

    def test_blank_lines_skipped(self):
        data = (CSV_HEADER + "\n\n"
                + "1,2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,,,,,\n\n")
        assert len(parse_log(data)) == 1


class TestSerializeLog:
    def test_canonical_form(self, churn_log):
        text = serialize_log(churn_log)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        assert text.endswith("\n")

    def test_quotes_survive(self):
        log = EventLog("s", [
            ev(1, EventKind.CREATE_ACTIVITY, "a"),
            ev(2, EventKind.NAME_ACTIVITY, "a", label='check, then "sign"'),
        ])
        again = parse_log(serialize_log(log), session_id="s")
        assert again.events[1].label == 'check, then "sign"'


class TestExpandReconnect:
    def test_fixture_expansion(self, rewire_log):
        assert rewire_log.has_reconnects()
        expanded = expand_reconnect(rewire_log)
        assert not expanded.has_reconnects()
        assert len(expanded) == 11
        delete, create = expanded.events[9], expanded.events[10]
        assert delete.kind is EventKind.DELETE_EDGE
        assert create.kind is EventKind.CREATE_EDGE
        assert delete.object_id == create.object_id == "e2"
        assert delete.timestamp == create.timestamp
        assert create.source_id == "a1" and create.target_id == "a2"
        assert [e.seq for e in expanded.events] == list(range(1, 12))

    def test_no_reconnects_is_identity(self, diamond_log):
        assert expand_reconnect(diamond_log) == diamond_log


@given(log=session_logs())
@example(log=HOSTILE_LOG)
@settings(max_examples=60)
def test_serialize_matches_the_field_by_field_writer(log):
    assert serialize_log(log) == serialize_log_by_fields(log)


@given(log=event_logs())
@settings(max_examples=40)
def test_reconnect_flag_matches_a_scan(log):
    """has_reconnects must agree with scanning the events, however the log
    was built. The expansion skips validation, so its output must pass it.
    The answer is recorded, not a field: ==, repr and hash ignore it."""
    parsed = parse_log(serialize_log(log), session_id=log.session_id)
    built = EventLog(log.session_id, log.events)
    expanded = expand_reconnect(log)
    assert EventLog(expanded.session_id, expanded.events) == expanded
    assert [f.name for f in dataclasses.fields(EventLog)] == ["session_id", "events"]
    assert (hash(parsed), repr(parsed)) == (hash(built), repr(built))
    for each in (log, parsed, built, expanded):
        assert each.has_reconnects() == any(
            e.kind is EventKind.RECONNECT_EDGE for e in each.events)


@given(log=event_logs())
@settings(max_examples=60)
def test_serialize_parse_round_trip(log):
    assert parse_log(serialize_log(log), session_id=log.session_id) == log


@given(log=event_logs())
@settings(max_examples=60)
def test_expand_reconnect_idempotent(log):
    once = expand_reconnect(log)
    assert not once.has_reconnects()
    assert expand_reconnect(once) == once


@given(log=event_logs())
@settings(max_examples=60)
def test_expansion_preserves_event_count(log):
    reconnects = sum(1 for e in log.events
                     if e.kind is EventKind.RECONNECT_EDGE)
    assert len(expand_reconnect(log)) == len(log) + reconnects


def rebuilt(event: ModelingEvent) -> ModelingEvent:
    """The same event through the public, validating constructor."""
    return ModelingEvent(**{f.name: getattr(event, f.name)
                            for f in dataclasses.fields(ModelingEvent)})


def assert_events_as_constructed(log: EventLog) -> None:
    """parse_log and expand_reconnect build events through the public
    constructor; each must equal, hash and print as the event built again
    from its fields."""
    parsed = parse_log(serialize_log(log), session_id=log.session_id)
    assert parsed.events == log.events
    for event in parsed.events + expand_reconnect(parsed).events:
        again = rebuilt(event)
        assert type(event) is ModelingEvent
        assert event == again and hash(event) == hash(again)
        assert repr(event) == repr(again)


@given(log=event_logs())
@settings(max_examples=60)
def test_parsed_events_equal_constructed_ones(log):
    assert_events_as_constructed(log)


@given(profile=st.sampled_from(sorted(PROFILES)), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=20, deadline=None)
def test_parsed_simulated_events_equal_constructed_ones(profile, seed):
    assert_events_as_constructed(simulate(dataclasses.replace(PROFILES[profile], seed=seed)))


@given(seq=st.integers(-3, 5),
       kind=st.sampled_from([*EventKind, "CREATE_ACTIVITY", "BOGUS", None]),
       object_id=st.sampled_from(["", "a", "e1"]),
       source_id=st.sampled_from([None, "", "a"]),
       target_id=st.sampled_from([None, "", "a"]))
@settings(max_examples=300)
def test_constructor_refuses_exactly_what_the_rule_names(seq, kind, object_id, source_id,
                                                         target_id):
    fields = dict(seq=seq, timestamp=BASE, kind=kind, object_id=object_id,
                  source_id=source_id, target_id=target_id)
    problem = event_problem(seq, kind, object_id, source_id, target_id)
    if problem is not None:
        with pytest.raises(ValueError) as excinfo:
            ModelingEvent(**fields)
        assert type(excinfo.value) is ValueError and str(excinfo.value) == problem
    else:
        event = ModelingEvent(**fields)
        assert {name: getattr(event, name) for name in fields} == fields
        assert event.position is None and event.label is None


def test_constructor_signature_is_the_fields():
    """The hand-written __init__ takes the dataclass fields, in order, with
    their defaults."""
    params = inspect.signature(ModelingEvent).parameters.values()
    empty, missing = inspect.Parameter.empty, dataclasses.MISSING
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         empty if f.default is missing else f.default) for f in dataclasses.fields(ModelingEvent)]


def test_events_are_frozen_and_slotted(diamond_log):
    event = diamond_log.events[0]
    assert not hasattr(event, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.seq = 5


ROWS_BEFORE = (
    "1,2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,1,2,,,\n"
    "2,2010-11-15T10:00:01.000Z,CREATE_ACTIVITY,b,ACTIVITY,1,2,,,\n"
)


@pytest.mark.parametrize("row, message", [
    ("0,2010-11-15T10:00:02.000Z,CREATE_ACTIVITY,c,ACTIVITY,,,,,",
     "seq must be positive, got 0"),
    ("-1,2010-11-15T10:00:02.000Z,CREATE_ACTIVITY,c,ACTIVITY,,,,,",
     "seq must be positive, got -1"),
    ("3,2010-11-15T10:00:02.000Z,CREATE_ACTIVITY,,ACTIVITY,,,,,",
     "object_id must be non-empty"),
    ("3,2010-11-15T10:00:02.000Z,CREATE_EDGE,e,EDGE,,,,a,",
     "CREATE_EDGE requires source_id and target_id"),
    ("3,2010-11-15T10:00:02.000Z,RECONNECT_EDGE,e,EDGE,,,,,b",
     "RECONNECT_EDGE requires source_id and target_id"),
    ("3,2010-11-15T10:00:02.000Z,CREATE_ACTIVITY,c,ACTIVITY,,,,a,b",
     "CREATE_ACTIVITY must not carry edge endpoints"),
    ("3,2010-11-15T10:00:02.000Z,DELETE_EDGE,e,EDGE,,,,,b",
     "DELETE_EDGE must not carry edge endpoints"),
], ids=["seq_zero", "seq_negative", "empty_object_id", "edge_without_target",
        "reconnect_without_source", "endpoints_on_node", "endpoints_on_delete"])
def test_parse_refuses_what_the_constructor_refuses(row, message):
    """The parser refuses what the constructor refuses, with the same
    message, and names the line."""
    with pytest.raises(LogFormatError) as excinfo:
        parse_log(CSV_HEADER + "\n" + ROWS_BEFORE + row + "\n")
    assert str(excinfo.value) == f"{message} at line 4"
    assert excinfo.value.line == 4
    fields = row.split(",")
    with pytest.raises(ValueError, match=f"^{message}$"):
        ModelingEvent(seq=int(fields[0]), timestamp=BASE, kind=EventKind(fields[2]),
                      object_id=fields[3], source_id=fields[8] or None,
                      target_id=fields[9] or None)


@pytest.mark.parametrize("row, message", [
    ("x,2010-11-15T10:00:02.000Z,CREATE_ACTIVITY,c,ACTIVITY,,,,,", "bad seq 'x'"),
    ("3,2010-11-15T10:00:02.000Z,CREATE_ACTIVITY,c,BLOB,,,,,", "unknown object type 'BLOB'"),
    ("3,2010-11-15T10:00:02.000Z,CREATE_ACTIVITY,c,ACTIVITY,5,y,,,", "bad coordinates '5','y'"),
], ids=["seq", "object_type", "coordinates"])
def test_parse_refuses_a_bad_field_at_its_line(row, message):
    with pytest.raises(LogFormatError) as excinfo:
        parse_log(CSV_HEADER + "\n" + ROWS_BEFORE + row + "\n")
    assert str(excinfo.value) == f"{message} at line 4"
    assert excinfo.value.line == 4


# Forms int() reads but serialize_log never writes; '1_0' would read as 10.
@pytest.mark.parametrize("text", [" 1", "+1", "1_0", "\uff11", "1_000", "\u0665", "1 ", "-",
                                  "--1", "-+1", "\u00b2", "007", "00", "-0", "-007"])
def test_parse_reads_integers_only_as_ascii_digits(text):
    def refusal(seq, x, y):
        row = f"{seq},2010-11-15T10:00:02.000Z,CREATE_ACTIVITY,c,ACTIVITY,{x},{y},,,"
        with pytest.raises(LogFormatError) as excinfo:
            parse_log(CSV_HEADER + "\n" + ROWS_BEFORE + row + "\n")
        return str(excinfo.value)

    assert refusal(text, "", "") == f"bad seq {text!r} at line 4"
    assert refusal(3, text, "7") == f"bad coordinates {text!r},'7' at line 4"
    assert refusal(3, "7", text) == f"bad coordinates '7',{text!r} at line 4"


def test_parse_reads_signed_ascii_coordinates():
    row = "3,2010-11-15T10:00:02.000Z,CREATE_ACTIVITY,c,ACTIVITY,-12,0,,,\n"
    log = parse_log(CSV_HEADER + "\n" + ROWS_BEFORE + row)
    assert log.events[2].position == (-12, 0)
    assert serialize_log(log).endswith(row)


def accepts(events) -> bool:
    try:
        EventLog("s", events)
    except ValueError:
        return False
    return True


@example(events=FOUND_EVENTS)
@given(events=event_logs(faults=True))
@settings(max_examples=300, deadline=None)
def test_validation_accepts_exactly_what_replays(events):
    assert accepts(events) == replays(events)


_INTEGER_TEXT = st.from_regex(r"-?[0-9]{1,3}", fullmatch=True)


@given(seq=_INTEGER_TEXT, x=_INTEGER_TEXT, y=_INTEGER_TEXT)
@settings(max_examples=200)
def test_accepted_integers_round_trip(seq, x, y):
    """An integer field is read only in the form serialize_log writes, so
    an accepted row comes back byte for byte; any other form is refused
    as the first field the row loop checks."""
    text = (CSV_HEADER + "\n"
            + f"{seq},2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,{x},{y},,,\n")
    canonical = {t: str(int(t)) == t for t in (seq, x, y)}
    if not canonical[seq]:
        problem = f"bad seq {seq!r}"
    elif not (canonical[x] and canonical[y]):
        problem = f"bad coordinates {x!r},{y!r}"
    elif int(seq) < 1:
        problem = f"seq must be positive, got {seq}"
    else:
        assert serialize_log(parse_log(text)) == text
        return
    with pytest.raises(LogFormatError) as excinfo:
        parse_log(text)
    assert str(excinfo.value) == f"{problem} at line 2"


def _quoted(value: str) -> str:
    return '"' + value.replace('"', '""') + '"'


def _token(value: str) -> str:
    """A field as CSV text, quoted when it must be."""
    return _quoted(value) if any(c in value for c in ',"\r\n') else value


_MISSES = ["digit", "separator", "kind", "type", "empty x", "day", "fraction", "quote"]


@st.composite
def near_miss_logs(draw):
    """The CSV of a log, valid or broken only in its lifecycle, with one
    field of one row changed: a digit of seq, timestamp, x or y inserted,
    replaced or deleted; a separator dropped, doubled or replaced; another
    kind or type; an empty x or y; a stamp's day or fraction; or quotes
    around a field."""
    # serialize_log reads only .events, so it writes events no EventLog takes.
    broken = event_logs(max_events=12, faults=True).map(lambda events: SimpleNamespace(
        events=events))
    log = draw(st.one_of(event_logs(max_events=12), broken))
    header, *rows = csv.reader(io.StringIO(serialize_log(log), newline=""))
    index = draw(st.integers(0, len(rows) - 1))
    row, quoted, seps = rows[index], None, [","] * 9
    miss = draw(st.sampled_from(_MISSES))
    if miss == "digit":
        field = draw(st.sampled_from([0, 1, 5, 6]))
        value, digit = row[field], draw(st.sampled_from(["", *"0123456789"]))
        at, cut = draw(st.integers(0, len(value))), draw(st.integers(0, 1))
        row[field] = value[:at] + digit + value[at + cut:]  # cut 0 inserts, 1 replaces
    elif miss == "separator":
        seps[draw(st.integers(0, 8))] = draw(st.sampled_from(["", ",,", ";", "\n", " ,"]))
    elif miss == "kind":
        row[2] = draw(st.sampled_from([kind.value for kind in EventKind] + ["BOGUS", ""]))
    elif miss == "type":
        row[4] = draw(st.sampled_from([otype.value for otype in ObjectType] + ["NODE", ""]))
    elif miss == "empty x":
        row[draw(st.sampled_from([5, 6]))] = ""
    elif miss == "day":
        row[1] = f"{row[1][:8]}{draw(st.integers(0, 32)):02d}{row[1][10:]}"
    elif miss == "fraction":
        row[1] = row[1][:20] + draw(st.from_regex(r"[0-9]{0,7}", fullmatch=True)) + "Z"
    else:
        quoted = draw(st.integers(0, 9))
    tokens = [_quoted(value) if field == quoted else _token(value)
              for field, value in enumerate(row)]
    rows = [",".join(map(_token, other)) for other in rows]
    rows[index] = "".join(token + sep for token, sep in zip(tokens, seps + [""]))
    return "\n".join([CSV_HEADER, *rows]) + "\n"


@given(text=near_miss_logs())
@settings(max_examples=400, deadline=None)
def test_parse_log_agrees_with_the_row_loop_on_near_misses(text):
    assert_parses_as_the_row_loop(text)


@given(log=st.one_of(event_logs(), simulated_logs(), rewired_blocks(), loops()))
@settings(max_examples=60, deadline=None)
def test_parse_log_accepts_every_valid_log_as_the_row_loop_does(log):
    text = serialize_log(log)
    assert parse_outcome(parse_log, text) == parse_outcome(parse_log_row_by_row, text) == (
        list(log.events), log.has_reconnects())


# Routes through parse_log: a log with one change to its line ends, blank
# lines, quoting or a field, or two faults of which the row loop names one,
# and what parse_log makes of it: the second event's changed fields, or the
# refusal.
_ROWS = [
    "1,2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,10,20,,,",
    "2,2010-11-15T10:00:01.000Z,CREATE_ACTIVITY,b,ACTIVITY,,,,,",
    "3,2010-11-15T10:00:02.000Z,CREATE_EDGE,e,EDGE,,,,a,b",
]
_PLAIN = "\n".join([CSV_HEADER, *_ROWS]) + "\n"
_UNKNOWN_A = _PLAIN.replace("CREATE_ACTIVITY,a", "MOVE_ACTIVITY,a")  # a lifecycle fault on line 2
_BAD_SEQ = _PLAIN.replace("\n1,", "\nx,")
_OVER_LIMIT = ("4,2010-11-15T10:00:03.000Z,CREATE_ACTIVITY,c,ACTIVITY,,," + "x" * 200_000
               + ",,\n")
ROUTES = {
    "crlf": (_PLAIN.replace("\n", "\r\n"), {}),
    "lone cr": (_PLAIN.replace("\n", "\r"), {}),
    "cr in a label": (_PLAIN.replace("b,ACTIVITY,,,", "b,ACTIVITY,,,x\ry"),
                      "expected 10 fields, got 8 at line 3"),
    "nul in a label": (_PLAIN.replace("b,ACTIVITY,,,", "b,ACTIVITY,,,x\0y"),
                       "malformed CSV: line contains NUL at line 3"),
    "bad seq before a nul": (_BAD_SEQ.replace("b,ACTIVITY,,,", "b,ACTIVITY,,,x\0y"),
                             "bad seq 'x' at line 2"),
    "nul on a quoted label's second line": (
        _PLAIN.replace("b,ACTIVITY,,,", 'b,ACTIVITY,,,"x\ny\0"'),
        "malformed CSV: line contains NUL at line 4"),
    "lifecycle fault before a nul": (_UNKNOWN_A.replace("b,ACTIVITY,,,", "b,ACTIVITY,,,x\0y"),
                                     "malformed CSV: line contains NUL at line 3"),
    "bad row before a field over csv's limit": (_BAD_SEQ + _OVER_LIMIT, "bad seq 'x' at line 2"),
    "lifecycle fault before a csv error": (
        _UNKNOWN_A + _OVER_LIMIT,
        "malformed CSV: field larger than field limit (131072) at line 5"),
    "csv error before a bad row": (
        _PLAIN + _OVER_LIMIT + "x,2010-11-15T10:00:04.000Z,CREATE_ACTIVITY,d,ACTIVITY,,,,,\n",
        "malformed CSV: field larger than field limit (131072) at line 5"),
    "unknown kind and unknown type": (_PLAIN.replace("CREATE_ACTIVITY,a,ACTIVITY", "BOGUS,a,NODE"),
                                      "unknown event 'BOGUS' at line 2"),
    "x without y and bad coordinates": (_PLAIN.replace("a,ACTIVITY,10,20", "a,ACTIVITY,1x,"),
                                        "x and y must be given together at line 2"),
    "unknown kind and bad coordinates": (
        _PLAIN.replace("CREATE_ACTIVITY,a,ACTIVITY,10,", "BOGUS,a,ACTIVITY,1x,"),
        "unknown event 'BOGUS' at line 2"),
    "mismatched type and x without y": (_PLAIN.replace("a,ACTIVITY,10,20", "a,XOR,10,"),
                                        "x and y must be given together at line 2"),
    "quoted label": (_PLAIN.replace("b,ACTIVITY,,,", 'b,ACTIVITY,,,"x, ""y""\nz"'),
                     {"label": 'x, "y"\nz'}),
    "quoted newline in seq": (_PLAIN.replace("\n2,", '\n"2\n3",').replace("\n3,", "\n4,"),
                              "bad seq '2\\n3' at line 3"),
    "quoted newline in timestamp": (
        _PLAIN.replace("2,2010-11-15T10:00:01.000Z", '2,"2010-11-15T10:00:01.000Z\n'
                                                     '2010-11-15T10:00:01.500Z"'),
        "bad timestamp '2010-11-15T10:00:01.000Z\\n2010-11-15T10:00:01.500Z' at line 3"),
    "blank line before header": ("\n" + _PLAIN, "bad header '' at line 1"),
    "renamed column": (_PLAIN.replace("label", "name", 1),
                       f"bad header {CSV_HEADER.replace('label', 'name')!r} at line 1"),
    "blank line between rows": (_PLAIN.replace("\n2,", "\n\n2,"), {}),
    "blank line at end": (_PLAIN + "\n", {}),
    "bad row after a blank line": (_PLAIN.replace("\n2,", "\n\nx,"), "bad seq 'x' at line 4"),
    "no final newline": (_PLAIN[:-1], {}),
    "1-digit fraction": (_PLAIN.replace("01.000Z", "01.5Z"),
                         {"timestamp": BASE + timedelta(seconds=1.5)}),
    "2-digit fraction": (_PLAIN.replace("01.000Z", "01.25Z"),
                         {"timestamp": BASE + timedelta(seconds=1.25)}),
    "6-digit fraction": (_PLAIN.replace("01.000Z", "01.125000Z"),
                         {"timestamp": BASE + timedelta(seconds=1.125)}),
    "february 30": (_PLAIN.replace("11-15T10:00:01", "02-30T10:00:01"),
                    "bad timestamp '2010-02-30T10:00:01.000Z' at line 3"),
    "month 21 in a 3-digit stamp": (_PLAIN.replace("11-15T10:00:01", "21-15T10:00:01"),
                                    "bad timestamp '2010-21-15T10:00:01.000Z' at line 3"),
}


@pytest.mark.parametrize("name", list(ROUTES))
def test_parse_routes_agree_with_the_row_loop(name):
    text, expected = ROUTES[name]
    assert_parses_as_the_row_loop(text)
    if isinstance(expected, str):
        with pytest.raises(LogFormatError) as excinfo:
            parse_log(text)
        assert str(excinfo.value) == expected
    else:
        events = list(parse_log(_PLAIN).events)
        events[1] = dataclasses.replace(events[1], **expected)
        assert list(parse_log(text).events) == events


def _graph_state(graph: _Skeleton):
    """A skeleton's graph, its adjacency in order."""
    return (list(graph.types.items()), list(graph.ends.items()),
            [(n, list(ways.items())) for n, ways in graph._out.items()],
            [(n, list(ways.items())) for n, ways in graph._in.items()])


def test_skeleton_copy_equals_its_source_and_is_independent():
    source = _Skeleton(strict=True)
    for event in (ev(1, EventKind.CREATE_ACTIVITY, "a"), ev(2, EventKind.CREATE_XOR, "x"),
                  ev(3, EventKind.CREATE_EDGE, "e", source="a", target="x"),
                  ev(4, EventKind.CREATE_EDGE, "f", source="x", target="x"),
                  ev(5, EventKind.RECONNECT_EDGE, "e", source="x", target="a"),
                  ev(6, EventKind.CREATE_ACTIVITY, "b"), ev(7, EventKind.DELETE_ACTIVITY, "b")):
        source.apply(event)
    before = _graph_state(source)
    clone = source.copy()
    assert _graph_state(clone) == before
    # a bare graph: no deleted ids, not strict, no reconnect seen
    assert (clone._deleted, clone._strict, clone.reconnected) == (set(), False, False)
    clone._drop("x")
    clone._add("b", ObjectType.ACTIVITY)
    assert _graph_state(source) == before
    source._drop("a")
    assert [n for n, _ in clone.types.items()] == ["a", "b"]


def test_apply_works_on_a_copied_bare_skeleton():
    clone = _Skeleton().copy()
    for event in (ev(1, EventKind.CREATE_ACTIVITY, "a"), ev(2, EventKind.CREATE_ACTIVITY, "b"),
                  ev(3, EventKind.CREATE_EDGE, "e", source="a", target="b"),
                  ev(4, EventKind.RECONNECT_EDGE, "e", source="b", target="a"),
                  ev(5, EventKind.DELETE_ACTIVITY, "a"), ev(6, EventKind.CREATE_ACTIVITY, "a")):
        clone.apply(event)
    assert clone.reconnected and list(clone.types) == ["b", "a"] and clone.ends == {}
    with pytest.raises(LogFormatError, match="^action on deleted object e$"):
        clone.apply(ev(7, EventKind.MOVE_EDGE_LABEL, "e", position=(1, 1)))
    with pytest.raises(ValueError, match="^duplicate object id b$"):
        clone.apply(ev(8, EventKind.CREATE_XOR, "b"))
