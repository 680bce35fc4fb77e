import dataclasses
import re
import xml.etree.ElementTree as ET
from datetime import timedelta
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BASE, FIXTURES, HOSTILE_LOG, event_logs, session_logs
from oracles import render_ppmchart_two_pass
from ppmkit.chart import PPMChartSpec, _quoted, render_ppmchart
from ppmkit.classify import classify_session
from ppmkit.eventlog import EventKind, EventLog, ModelingEvent, expand_reconnect, parse_log


DOT = re.compile(r'<circle cx="([0-9.]+)" cy="([0-9.]+)" r="3" fill="([^"]+)">'
                 r"<title>(\d+) ([A-Z_]+)</title></circle>")


def dots_of(svg):
    return DOT.findall(svg)


def test_one_row_per_object_one_dot_per_event(diamond_log):
    svg = render_ppmchart(diamond_log)
    objects = {ev.object_id for ev in diamond_log.events}
    assert svg.count('<g class="row"') == len(objects)
    assert len(dots_of(svg)) == len(diamond_log)


def test_last_event_pinned_to_right_edge(diamond_log):
    svg = render_ppmchart(diamond_log)
    assert max(float(x) for x, *_ in dots_of(svg)) == 1200.0


def test_x_positions_follow_window_formula(diamond_log):
    # 95s session in a 3600s window: first dot at 1200 * (1 - 95/3600)
    svg = render_ppmchart(diamond_log)
    xs = [float(x) for x, *_ in dots_of(svg)]
    assert min(xs) == round(1200 * (1 - 95 / 3600), 2)


def test_seventeen_minute_session_lands_at_860():
    events = []
    for k, secs in enumerate([0, 1020], start=1):
        events.append(ModelingEvent(
            seq=k, timestamp=BASE + timedelta(seconds=secs),
            kind=EventKind.CREATE_ACTIVITY if k == 1 else EventKind.MOVE_ACTIVITY,
            object_id="a", position=(10, 10),
        ))
    svg = render_ppmchart(EventLog("s", events))
    xs = sorted(float(x) for x, *_ in dots_of(svg))
    assert xs == [860.00, 1200.00]


def test_row_order_is_first_appearance(diamond_log):
    svg = render_ppmchart(diamond_log)
    order = re.findall(r'data-object="([^"]+)"', svg)
    assert order[:4] == ["s1", "a1", "e1", "g1"]
    assert len(order) == 16


def test_dot_colors_by_event_class(churn_log):
    svg = render_ppmchart(churn_log)
    by_seq = {int(seq): fill for _, _, fill, seq, _ in dots_of(svg)}
    assert by_seq == {1: "green", 2: "green", 3: "blue", 4: "red"}


def test_first_dot_in_each_row_is_a_create(diamond_log):
    svg = render_ppmchart(diamond_log)
    for block in svg.split('<g class="row"')[1:]:
        first = DOT.search(block)
        assert first.group(3) == "green"
        assert first.group(5).startswith("CREATE_")


def test_name_events_use_fourth_color(diamond_log):
    svg = render_ppmchart(diamond_log)
    named = [d for d in dots_of(svg) if d[4] == "NAME_ACTIVITY"]
    assert [fill for _, _, fill, _, _ in named] == ["orange"]


def test_deleted_objects_keep_full_rows(churn_log):
    svg = render_ppmchart(churn_log)
    assert 'data-object="a1"' in svg
    a1_block = svg.split('data-object="a1">')[1].split("</g>")[0]
    assert len(DOT.findall(a1_block)) == 3  # create, move, delete


def test_custom_colors_and_geometry(churn_log):
    spec = PPMChartSpec(width=600.0, window=60.0,
                        colors={"create": "#0a0", "move": "#00a",
                                "delete": "#a00", "name": "#fa0"})
    svg = render_ppmchart(churn_log, spec)
    assert 'fill="#0a0"' in svg
    assert "green" not in svg
    assert max(float(x) for x, *_ in dots_of(svg)) == 600.0


def test_spec_colors_are_quoted(churn_log):
    spec = PPMChartSpec(colors={"create": 'x" onload="y', "move": "<b>&",
                                "delete": "red", "name": "orange"})
    svg = render_ppmchart(churn_log, spec)
    assert svg.count("""fill='x" onload="y'""") == 2
    assert svg.count('fill="&lt;b&gt;&amp;"') == 1


def test_missing_color_is_named(churn_log):
    with pytest.raises(ValueError, match="^spec colors lack move, delete, name$"):
        render_ppmchart(churn_log, PPMChartSpec(colors={"create": "green"}))


def test_titles_need_no_escaping():
    # render_ppmchart writes an event's kind into <title> as it is.
    assert all(escape(kind.value) == kind.value for kind in EventKind)


def test_height_defaults_to_rows_times_row_height(churn_log):
    svg = render_ppmchart(churn_log)
    assert 'height="40.00"' in svg  # 2 objects x 20px
    tall = render_ppmchart(churn_log, PPMChartSpec(height=300.0))
    assert 'height="300.00"' in tall
    assert 'cy="75.00"' in tall  # first of two rows centered at 300/2 * 0.5


def test_empty_session_rejected():
    with pytest.raises(ValueError, match="cannot chart an empty session"):
        render_ppmchart(EventLog("s", []))


def test_window_too_small(diamond_log):
    with pytest.raises(ValueError, match=r"spans 95s but the window is 60s"):
        render_ppmchart(diamond_log, PPMChartSpec(window=60.0))


@pytest.mark.parametrize("field", ["window", "width", "height"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -5.0])
def test_geometry_must_be_finite_and_positive(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        PPMChartSpec(**{field: value})


def test_window_equal_to_span_allowed(diamond_log):
    svg = render_ppmchart(diamond_log, PPMChartSpec(window=95.0))
    assert min(float(x) for x, *_ in dots_of(svg)) == 0.0


def test_byte_determinism(diamond_log):
    spec = PPMChartSpec()
    assert render_ppmchart(diamond_log, spec) == render_ppmchart(diamond_log, spec)


def test_title_carries_seq_and_kind(diamond_log):
    svg = render_ppmchart(diamond_log)
    assert "<title>1 CREATE_START_EVENT</title>" in svg
    assert "<title>20 NAME_ACTIVITY</title>" in svg


@given(log=event_logs(allow_reconnects=False),
       hours=st.integers(min_value=1, max_value=48))
@settings(max_examples=40)
def test_time_translation_byte_identity(log, hours):
    span = (log.events[-1].timestamp - log.events[0].timestamp).total_seconds()
    spec = PPMChartSpec(window=max(span, 1.0))
    shifted = EventLog(log.session_id, [
        dataclasses.replace(ev, timestamp=ev.timestamp + timedelta(hours=hours))
        for ev in log.events
    ])
    assert render_ppmchart(shifted, spec) == render_ppmchart(log, spec)


# What XML 1.0 cannot carry, even escaped: C0 controls other than tab,
# newline and return, U+FFFE and U+FFFF, and (category Cs) lone surrogates.
NOT_XML = "".join(map(chr, [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF]))
QUOTED = '&<>"\'\t\n\r'  # what quoteattr escapes, and the quote it may switch to
XML_TEXT = st.text(st.sampled_from(QUOTED) | st.characters(exclude_categories=["Cs"],
                                                           exclude_characters=NOT_XML))
# Object ids: what quoteattr escapes and letters, ASCII or not.
IDS = st.text(st.sampled_from(QUOTED) | st.characters(categories=["L"]), min_size=1, max_size=6)


@given(value=XML_TEXT)
@example(value="it's")
@example(value="\"'")
@settings(max_examples=300)
def test_quoting_matches_quoteattr_and_parses_back(value):
    quoted = _quoted(value, "object id")
    assert quoted == quoteattr(value)
    assert ET.fromstring(f"<a b={quoted}/>").get("b") == value


@given(before=XML_TEXT, bad=st.sampled_from(NOT_XML) | st.characters(categories=["Cs"]),
       after=XML_TEXT)
def test_quoting_refuses_what_xml_cannot_carry(before, bad, after):
    with pytest.raises(ValueError, match=f"^color move .* holds {re.escape(repr(bad))}, "
                                         "which XML cannot carry$"):
        _quoted(before + bad + after, "color move")


def test_chart_refuses_an_id_xml_cannot_carry(churn_log):
    csv_text = (FIXTURES / "churn.csv").read_text().replace(",a1,", ",a\x01b,")
    log = parse_log(csv_text, session_id="control")  # the log itself is valid
    assert classify_session(log).session_id == "control"
    with pytest.raises(ValueError, match=r"^object id 'a\\x01b' holds '\\x01', which XML"):
        render_ppmchart(log)
    colors = dict(PPMChartSpec().colors, delete="red\ufffe")
    with pytest.raises(ValueError, match=r"^color delete 'red\\ufffe' holds '\\ufffe'"):
        render_ppmchart(churn_log, PPMChartSpec(colors=colors))


_SIZES = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


@st.composite
def charted_logs(draw):
    """A session log whose object ids are renamed one to one onto IDS, and a
    spec that fits it: any width, a height left open or drawn, a window of
    at least the span, and colors that need quoting."""
    log = draw(session_logs())
    ids = list(dict.fromkeys(oid for ev in log.events
                             for oid in (ev.object_id, ev.source_id, ev.target_id) if oid))
    new = dict(zip(ids, draw(st.lists(IDS, min_size=len(ids), max_size=len(ids), unique=True))))
    log = EventLog(log.session_id, [
        dataclasses.replace(ev, object_id=new[ev.object_id], source_id=new.get(ev.source_id),
                            target_id=new.get(ev.target_id))
        for ev in log.events])
    span = (log.events[-1].timestamp - log.events[0].timestamp).total_seconds()
    colors = {key: draw(st.text("ab#0 \"'&<>", min_size=1, max_size=6))
              for key in PPMChartSpec().colors}
    return log, PPMChartSpec(window=draw(st.floats(min_value=max(span, 1e-3),
                                                   allow_infinity=False)),
                             width=draw(_SIZES), height=draw(st.none() | _SIZES),
                             colors=colors)


@given(case=charted_logs())
@example(case=(HOSTILE_LOG, PPMChartSpec(colors={
    "create": "\"'&<", "move": "blue", "delete": "red", "name": "orange"})))
@settings(max_examples=60)
def test_chart_matches_the_two_pass_renderer(case):
    log, spec = case
    assert render_ppmchart(log, spec) == render_ppmchart_two_pass(log, spec)


SVG = "{http://www.w3.org/2000/svg}"


@given(case=charted_logs())
@example(case=(HOSTILE_LOG, PPMChartSpec()))
@settings(max_examples=60)
def test_chart_is_well_formed_with_one_row_per_object(case):
    log, spec = case
    svg = render_ppmchart(log, spec)
    root = ET.fromstring(svg)
    objects = list(dict.fromkeys(ev.object_id for ev in expand_reconnect(log).events))
    assert svg.count('<g class="row"') == len(objects)
    assert [g.get("data-object") for g in root.iter(f"{SVG}g")] == objects
    assert len(list(root.iter(f"{SVG}circle"))) == len(expand_reconnect(log).events)
