"""Hostile input: whatever the bytes, text or JSON, each reader refuses it
with its own error type (LogFormatError for logs, ValueError for model and
report JSON) and never lets another exception escape. parse_log gives
the row loop's answer on such text too (oracles.parse_log_row_by_row)."""

import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_parses_as_the_row_loop, event_logs, load_fixture
from oracles import _most_blocks_at_once, report_from_dict
from ppmkit.classify import SessionReport, classify_model, classify_session
from ppmkit.cli import main
from ppmkit.eventlog import (
    CSV_HEADER,
    EventKind,
    LogFormatError,
    ObjectType,
    expand_reconnect,
    parse_log,
    parse_timestamp,
    serialize_log,
)
from ppmkit.model import ProcessModel
from ppmkit.replay import replay
from ppmkit.simulate import PROFILES, simulate_cohort
from ppmkit.soundness import VIOLATION_KINDS


def parse_or_refuse(data):
    try:
        parse_log(data)
    except LogFormatError:
        pass


# Field values a log is made of, plus the characters CSV quoting and
# line splitting care about.
_FIELDS = st.one_of(
    st.sampled_from([k.value for k in EventKind] + [t.value for t in ObjectType]),
    st.sampled_from(["1", "2", "-1", "0", "a", "e1", "", '"', '""', "\x00", "\r", "\n",
                     "2010-11-15T10:00:00.000Z", "2010-11-15T10:00:01.000Z"]),
    st.text(max_size=8),
)
_ROWS = st.lists(st.lists(_FIELDS, max_size=12).map(",".join), max_size=8)


@given(rows=_ROWS, newline=st.sampled_from(["\n", "\r\n", "\r"]))
@settings(max_examples=80)
def test_parse_log_csv_like_text(rows, newline):
    assert_parses_as_the_row_loop(newline.join([CSV_HEADER] + rows))


@given(text=st.text(max_size=200))
@settings(max_examples=150)
def test_parse_log_arbitrary_text(text):
    parse_or_refuse(text)
    parse_or_refuse(CSV_HEADER + "\n" + text)


@given(data=st.binary(max_size=200))
@settings(max_examples=150)
def test_parse_log_arbitrary_bytes(data):
    parse_or_refuse(data)
    parse_or_refuse(CSV_HEADER.encode() + b"\n" + data)


@given(log=event_logs(max_events=12), data=st.data())
@settings(max_examples=50)
def test_parse_log_spliced_valid_log(log, data):
    text = serialize_log(log)
    start = data.draw(st.integers(0, len(text)))
    end = data.draw(st.integers(start, len(text)))
    assert_parses_as_the_row_loop(text[:start] + data.draw(st.text(max_size=20)) + text[end:])


@pytest.mark.parametrize("seq, x, message", [
    ("1" * 641, "", "bad seq '1111"),
    ("1" * 5000, "", "bad seq '1111"),  # over int()'s default limit of 4300 digits
    ("1", "-" + "1" * 641, "bad coordinates '-1111"),
    ("1", "1" * 5000, "bad coordinates '1111"),
], ids=["seq_641", "seq_5000", "x_641", "x_5000"])
def test_parse_log_refuses_an_integer_too_long_for_int(seq, x, message):
    # At most 640 digits, the least limit int() can be set to, so the
    # message is parse_log's own on every Python and under any setting.
    row = f"{seq},2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,{x},{x and 5},,,"
    with pytest.raises(LogFormatError, match=re.escape(message)) as err:
        parse_log(f"{CSV_HEADER}\n{row}\n")
    assert err.value.line == 2
    assert_parses_as_the_row_loop(f"{CSV_HEADER}\n{row}\n")


_ROW = "1,2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,5,5,,,"


def _long_field(index: int, char: str) -> tuple[str, str]:
    """_ROW with field `index` made 5,000 characters of `char`, and that field."""
    fields = _ROW.split(",")
    fields[index] = char * 5000
    return ",".join(fields), fields[index]


@pytest.mark.parametrize("index, char, refusal", [
    (0, "1", "bad seq {}"), (1, "2", "bad timestamp {}"), (2, "E", "unknown event {}"),
    (4, "T", "unknown object type {}"), (5, "1", "bad coordinates {},'5'"),
    (6, "1", "bad coordinates '5',{}"),
], ids=["seq", "timestamp", "event", "object_type", "x", "y"])
def test_parse_log_quotes_a_long_refused_field_cut(index, char, refusal):
    """A refusal quotes at most 200 characters of a field and then gives
    its length, however long the field is."""
    row, field = _long_field(index, char)
    cut = f"{field[:200]!r}... (5000 characters)"
    with pytest.raises(LogFormatError) as err:
        parse_log(f"{CSV_HEADER}\n{row}\n")
    assert str(err.value) == refusal.format(cut) + " at line 2"
    assert_parses_as_the_row_loop(f"{CSV_HEADER}\n{row}\n")


def test_parse_log_quotes_a_long_header_cut():
    header = CSV_HEADER + "," + "h" * 5000
    with pytest.raises(LogFormatError) as err:
        parse_log(f"{header}\n{_ROW}\n")
    assert str(err.value) == f"bad header {header[:200]!r}... ({len(header)} characters) at line 1"
    assert_parses_as_the_row_loop(f"{header}\n{_ROW}\n")


_STAMP = "2010-11-15T10:00:0{}.000Z"


@pytest.mark.parametrize("rows, refusal", [
    ([f"1,{_STAMP.format(0)},MOVE_ACTIVITY,{{}},ACTIVITY,5,5,,,"],
     "action on unknown object {} at line 2"),
    ([f"1,{_STAMP.format(0)},CREATE_EDGE,e,EDGE,,,,{{}},{{}}"],
     "edge e ends at {}, not a live node at line 2"),
    ([f"1,{_STAMP.format(0)},CREATE_ACTIVITY,{{}},ACTIVITY,5,5,,,",
      f"2,{_STAMP.format(1)},CREATE_ACTIVITY,{{}},ACTIVITY,5,5,,,"],
     "duplicate object id {} at line 3"),
], ids=["unknown_object", "edge_end", "duplicate_create"])
def test_lifecycle_refusals_cut_a_long_object_id(rows, refusal):
    """A lifecycle refusal prints an id of 200 characters or fewer whole,
    and a longer one cut after 200 characters and then given its length."""
    for length, shown in ((200, "a" * 200), (201, f"{'a' * 200}... (201 characters)"),
                          (5000, f"{'a' * 200}... (5000 characters)")):
        text = "\n".join([CSV_HEADER] + [row.replace("{}", "a" * length) for row in rows]) + "\n"
        with pytest.raises(LogFormatError) as err:
            parse_log(text)
        assert str(err.value) == refusal.format(shown)
        assert_parses_as_the_row_loop(text)


def test_parse_timestamp_quotes_a_stamp_of_200_characters_whole_and_cuts_a_longer_one():
    for length, shown in ((200, repr("2" * 200)), (201, f"{'2' * 200!r}... (201 characters)")):
        with pytest.raises(ValueError) as err:
            parse_timestamp("2" * length)
        assert str(err.value) == f"bad timestamp {shown}"


def _cut(text: str, show=repr) -> str:
    return show(text[:200]) + (f"... ({len(text)} characters)" if len(text) > 200 else "")


# JSON values the loaders quote in a refusal, each set at the paths given
# (of MODELS[0], or of the first report with a violation), with the
# refusal and whether it shows a string as repr does or as it is.
_JSON_QUOTES = [
    ("model", [("nodes", 0, "type")], "invalid node type {}", repr),
    ("model", [("nodes", 0, "id"), ("nodes", 1, "id")], "duplicate object id {}", str),
    ("model", [("edges", 0, "source")], "edge e1 ends at {}, not a live node", str),
    ("report", [("verdict", "stage")], "unknown stage {}", repr),
    ("report", [("verdict", "soundness", "violations", 0, "kind")],
     f"wrong value type: violation kind must be one of {', '.join(VIOLATION_KINDS)}, got {{}}",
     repr),
    ("report", [("metrics", "tot_time")], "wrong value type: tot_time must be a number, got {}",
     repr),
    ("report", [("blocks", 0, "members")],
     "wrong value type: members must be a list of strings, got {}", repr),
]


def _json_with(loader: str, paths, value):
    """The JSON text and the loaders of a model or report with `value` at `paths`."""
    if loader == "model":
        text, loads = MODELS[0], [ProcessModel.from_json]
    else:
        text = next(r for r in REPORTS if '"kind"' in r)
        loads = [SessionReport.from_json, lambda t: report_from_dict(json.loads(t))]
    for path in paths:
        text = _with(text, path, value)
    return text, loads


@pytest.mark.parametrize("loader, paths, refusal, show", _JSON_QUOTES,
                         ids=["node_type", "duplicate_id", "edge_end", "stage", "violation_kind",
                              "metric", "members"])
def test_json_refusals_cut_a_long_string(loader, paths, refusal, show):
    """A JSON refusal quotes a string value of 200 characters whole, and a
    longer one cut after 200 characters and then given its length, as a
    CSV refusal does; the oracle's own wordings agree."""
    for length in (200, 201, 5000):
        text, loads = _json_with(loader, paths, "a" * length)
        for load in loads:
            with pytest.raises(ValueError) as err:
                load(text)
            assert str(err.value) == refusal.format(_cut("a" * length, show))


@pytest.mark.parametrize("loader, path, name", [
    ("model", ("nodes", 0, "id"), "node id"), ("report", ("session_id",), "session_id"),
    ("report", ("blocks", 0, "interval"), "interval"),
])
def test_json_refusals_cut_a_long_value_that_is_no_string(loader, path, name):
    value = list(range(3000))
    text, loads = _json_with(loader, [path], value)
    wanted = "a list of two strings" if name == "interval" else "a string"
    for load in loads:
        with pytest.raises(ValueError) as err:
            load(text)
        assert str(err.value) == (f"wrong value type: {name} must be {wanted}, "
                                  f"got {_cut(repr(value), str)}")


@pytest.mark.parametrize("loader, path", [("model", ("nodes", 0, "x")),
                                          ("report", ("metrics", "max_simul_block"))])
def test_json_integer_too_long_for_int_is_refused_in_fixed_words(loader, path):
    # At 5,000 digits json.loads refuses under int()'s default limit of
    # 4,300, in words that differ between Python versions.
    text, loads = _json_with(loader, [path], 987654321)
    text = text.replace("987654321", "1" * 5000)
    with pytest.raises(ValueError, match="^JSON integer has too many digits$"):
        loads[0](text)


def test_parse_log_reads_integers_of_640_digits_under_the_least_int_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no digit limit on int()")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        seq, x = "9" * 640, "-" + "9" * 640
        row = f"{seq},2010-11-15T10:00:00.000Z,CREATE_ACTIVITY,a,ACTIVITY,{x},{seq},,,"
        log = parse_log(f"{CSV_HEADER}\n{row}\n")
        assert serialize_log(log) == f"{CSV_HEADER}\n{row}\n"
    finally:
        sys.set_int_max_str_digits(limit)


# Leaves include the edge cases of number conversion: non-finite floats,
# huge values and strings that Fraction or int read as numbers.
_EDGE_VALUES = st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e308, -(2**70),
                                "", "1/0", "1/3", "1e400", "nan", "2010-11-15T10:00:00.000Z"])
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=10), _EDGE_VALUES,
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=12,
)


def _slots(value, found):
    """Every (container, key) inside a JSON value, depth first."""
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = range(len(value))
    else:
        return found
    for key in keys:
        found.append((value, key))
        _slots(value[key], found)
    return found


@st.composite
def mutated(draw, originals):
    """One of `originals` with up to three values replaced by arbitrary
    JSON or deleted."""
    value = json.loads(draw(st.sampled_from(originals)))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(value, [])
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            container[key] = draw(st.one_of(_EDGE_VALUES, _JSON_LEAVES, _JSON_VALUES))
        elif isinstance(container, dict):
            del container[key]
        else:
            container.pop(key)
    return json.dumps(value)


def _reports() -> list[str]:
    logs = [load_fixture(name) for name in ("diamond.csv", "churn.csv", "rewire.csv")]
    logs += simulate_cohort(PROFILES["chaotic"], 6, 3)
    reports = [classify_session(log).to_json() for log in logs]
    # cover every verdict shape there is: with and without soundness,
    # with violation traces and witnesses
    assert any('"trace": [' in r for r in reports)
    return reports


REPORTS = _reports()
MODELS = [replay(expand_reconnect(load_fixture(name))).to_json()
          for name in ("diamond.csv", "rewire.csv")]


def load_or_refuse(from_json, text):
    try:
        from_json(text)
    except ValueError:
        pass


def _nested(key: str) -> str:
    """An object whose `key` holds arrays nested deeper than json.loads
    can recurse."""
    return f'{{"{key}": ' + "[" * 5000 + "]" * 5000 + "}"


def _with(original: str, path: tuple, value) -> str:
    data = json.loads(original)
    container = data
    for key in path[:-1]:
        container = container[key]
    container[path[-1]] = value
    return json.dumps(data)


@given(text=mutated(REPORTS) | _JSON_VALUES.map(json.dumps))
@example(text=_with(REPORTS[0], ("metrics", "tot_time"), float("inf")))
@example(text=_with(REPORTS[0], ("metrics", "tot_time"), "1/0"))
@example(text=_with(REPORTS[0], ("blocks", 0, "interval"), []))
@example(text=_with(REPORTS[0], ("blocks", 0, "interval"), ["2010-11-15T10:00:15.000Z"] * 3))
@example(text=_with(REPORTS[0], ("blocks", 0, "members"), "abc"))
@example(text=_with(REPORTS[0], ("blocks", 0, "whole"), "yes"))
@example(text=_with(REPORTS[0], ("blocks", 0, "split"), 7))
@example(text=_with(REPORTS[0], ("blocks", 0, "join"), None))
@example(text=_with(REPORTS[0], ("session_id",), 1))
@example(text=_with(REPORTS[0], ("blocks", 0, "members"), ["zz", "a", "a"]))
@example(text=_with(REPORTS[0], ("blocks", 0, "members"), ["a2", "a3", "g1", "g1", "g2"]))
@example(text=_with(REPORTS[0], ("blocks", 0, "interval"),
                    ["2010-11-15T10:00:35.000Z", "2010-11-15T10:00:15.000Z"]))
@example(text=_nested("blocks"))
@settings(max_examples=100)
def test_report_json_raises_only_value_error(text):
    load_or_refuse(SessionReport.from_json, text)


@given(text=mutated(MODELS) | _JSON_VALUES.map(json.dumps))
@example(text=_with(MODELS[0], ("nodes", 0, "x"), float("inf")))
@example(text=_with(MODELS[0], ("nodes", 0, "id"), 5))
@example(text=_nested("nodes"))
@settings(max_examples=100)
def test_model_json_raises_only_value_error(text):
    # A model that loads also classifies, or is refused with ValueError.
    try:
        classify_model(ProcessModel.from_json(text))
    except ValueError:
        pass


@pytest.mark.parametrize("command, key", [("classify", "nodes"), ("stats", "blocks")])
def test_cli_refuses_deeply_nested_json_in_one_line(capsys, tmp_path, command, key):
    path = tmp_path / "deep.json"
    path.write_text(_nested(key), encoding="utf-8")
    flag = "--model" if command == "classify" else "--reports"
    assert main([command, flag, str(path if command == "classify" else tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize("path, value", [
    (("nodes", 0, "id"), 5), (("nodes", 0, "x"), 1.9), (("nodes", 0, "y"), True),
    (("nodes", 0, "label"), ["a"]), (("edges", 0, "target"), 0),
    (("edges", 0, "bendpoints"), [[0.5, 1]]),
])
def test_model_value_of_wrong_type_is_refused(path, value):
    with pytest.raises(ValueError, match="^wrong value type: "):
        ProcessModel.from_json(_with(MODELS[0], path, value))


@pytest.mark.parametrize("path", [("nodes",), ("edges",), ("edges", 0, "bendpoints")])
@pytest.mark.parametrize("value", [{}, "", 5])
def test_model_list_of_wrong_type_is_refused(path, value):
    # An empty object or string iterates as no items; it is no list all the same.
    refusal = f"wrong value type: {path[-1]} must be a list, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        ProcessModel.from_json(_with(MODELS[0], path, value))


@pytest.mark.parametrize("path, value", [
    (("blocks", 0, "members"), "abc"), (("blocks", 0, "whole"), "yes"),
    (("blocks", 0, "split"), 7), (("blocks", 0, "join"), None),
    (("blocks", 0, "interval"), ["2010-11-15T10:00:15.000Z"] * 3), (("session_id",), 1),
])
def test_report_value_of_wrong_type_is_refused(path, value):
    with pytest.raises(ValueError, match="^wrong value type: "):
        SessionReport.from_json(_with(REPORTS[0], path, value))


@pytest.mark.parametrize("path", [("blocks",), ("verdict", "normalization", "applied_rules"),
                                  ("verdict", "soundness", "violations")])
@pytest.mark.parametrize("value", [{}, "", float("inf")])
def test_report_list_of_wrong_type_is_refused(path, value):
    text = _with(REPORTS[0], path, value)
    refusal = f"wrong value type: {path[-1]} must be a list, got {value!r}"
    for load in (SessionReport.from_dict, report_from_dict):
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            load(json.loads(text))


def test_interval_item_that_is_no_string_is_refused_in_the_loaders_words():
    text = _with(REPORTS[0], ("blocks", 0, "interval"), [5, "2010-11-15T10:00:15.000Z"])
    refusal = ("wrong value type: interval must be a list of two strings, "
               "got [5, '2010-11-15T10:00:15.000Z']")
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        SessionReport.from_json(text)


def test_negative_states_explored_is_refused():
    text = _with(REPORTS[0], ("verdict", "soundness", "states_explored"), -7)
    assert json.loads(text)["verdict"]["stage"] == "Sound"
    with pytest.raises(ValueError, match="^states_explored must be a non-negative int, got -7$"):
        SessionReport.from_json(text)


# A block of REPORTS[0] (split g1, join g2) that no detector could find.
IMPOSSIBLE_BLOCKS = [
    ("members", ["zz", "a", "a"], "lacks its split or join"),
    ("members", ["a2", "a3", "g1"], "lacks its split or join"),
    ("members", ["a2", "a3", "g1", "g1", "g2"], "repeats a member"),
    ("interval", ["2010-11-15T10:00:35.000Z", "2010-11-15T10:00:15.000Z"],
     "ends before it starts"),
]
_BLOCK_REFUSAL = re.compile(r"block '.*'/'.*' (lacks its split or join|repeats a member"
                            r"|ends before it starts)", re.DOTALL)


@pytest.mark.parametrize("field, value, problem", IMPOSSIBLE_BLOCKS)
def test_impossible_block_is_refused(field, value, problem):
    with pytest.raises(ValueError, match=f"^block 'g1'/'g2' {problem}$"):
        SessionReport.from_json(_with(REPORTS[0], ("blocks", 0, field), value))


# Block metrics a report's own blocks do not give: REPORTS[0] holds one
# whole block, REPORTS[1] none.
CONTRADICTED_METRICS = [
    (0, {"max_simul_block": 40}), (0, {"perc_num_block_as_a_whole": -7.5}),
    (0, {"perc_num_block_as_a_whole": None}), (0, {"perc_num_block_as_a_whole": 0.0}),
    (1, {"perc_num_block_as_a_whole": 1.0}), (1, {"max_simul_block": 1}),
]
_METRICS_REFUSAL = "block metrics do not match the report's blocks"


def _contradicted(index: int, metrics: dict) -> str:
    data = json.loads(REPORTS[index])
    data["metrics"].update(metrics)
    return json.dumps(data)


@pytest.mark.parametrize("index, metrics", CONTRADICTED_METRICS)
def test_stats_refuses_contradicted_block_metrics_in_one_line(capsys, tmp_path, index, metrics):
    for k, report in enumerate(REPORTS):
        (tmp_path / f"r{k}.json").write_text(report, encoding="utf-8")
    bad = tmp_path / f"r{index}.json"
    bad.write_text(_contradicted(index, metrics), encoding="utf-8")
    assert main(["stats", "--reports", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: {_METRICS_REFUSAL}\n"


def _outcome(load, data):
    try:
        return load(data)
    except Exception as exc:  # noqa: BLE001 - the test compares what each raises
        return type(exc), str(exc)


def _has_impossible_block(data: dict) -> bool:
    """Whether a report the oracle loads holds a block whose members lack
    its split or join or repeat an id, or whose interval ends before it
    starts."""
    for b in data["blocks"]:
        members, (start, end) = b["members"], b["interval"]
        if ({b["split"], b["join"]} - set(members) or len(set(members)) < len(members)
                or parse_timestamp(end) < parse_timestamp(start)):
            return True
    return False


# Metric values no session gives, each with the refusal it draws.
IMPOSSIBLE_METRICS = [
    ({"tot_time": -5.0, "tot_create_time": 0.0}, "tot_time must be at least 0, got -5.0"),
    ({"tot_create_time": -1.5}, "tot_create_time must lie between 0 and tot_time"),
    ({"tot_time": 2.0, "tot_create_time": 3.0}, "tot_create_time must lie between 0 and "
                                                "tot_time 2.0, got 3.0"),
    ({"perc_num_elements_with_moves": 7.5},
     "perc_num_elements_with_moves must lie between 0 and 1, got 7.5"),
    ({"perc_num_elements_with_moves": -0.5}, "perc_num_elements_with_moves must lie between"),
    ({"avg_move_on_moved_elements": -2.0}, "avg_move_on_moved_elements must be at least 1, "
                                           "got -2.0"),
    ({"avg_move_on_moved_elements": 0.5}, "avg_move_on_moved_elements must be at least 1"),
    ({"avg_move_on_moved_elements": None}, "avg_move_on_moved_elements must be null exactly "
                                           "when perc_num_elements_with_moves is 0, got null"),
    ({"perc_num_elements_with_moves": 0}, "avg_move_on_moved_elements must be null exactly "
                                          "when perc_num_elements_with_moves is 0, got "),
]
_IMPOSSIBLE_METRIC_REFUSAL = re.compile(
    r"(tot_time|tot_create_time|perc_num_elements_with_moves|avg_move_on_moved_elements)"
    r" must (be at least|lie between|be null exactly when) .*")


@pytest.mark.parametrize("metrics, refusal", IMPOSSIBLE_METRICS)
def test_impossible_metrics_are_refused(metrics, refusal):
    text = _contradicted(0, metrics)
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}"):
        SessionReport.from_json(text)
    assert _has_impossible_metrics(json.loads(text)["metrics"])
    report_from_dict(json.loads(text))  # the constructors take them


def _has_impossible_metrics(m: dict) -> bool:
    """Whether metrics the oracle loads hold a value no session gives: a
    negative total time, a create time outside it, a moved share outside
    [0, 1], fewer than one move per moved element, or moves per moved
    element given exactly when no element moved."""
    total, create = m["tot_time"], m["tot_create_time"]
    share, avg = m["perc_num_elements_with_moves"], m["avg_move_on_moved_elements"]
    return (total < 0 or not 0 <= create <= total or not 0 <= share <= 1
            or (avg is not None and avg < 1) or (avg is None) != (share == 0))


def _contradicts_its_blocks(report: SessionReport) -> bool:
    """Whether a report's block metrics differ from the most blocks open at
    once and the share of whole blocks, as JSON writes it, of its blocks."""
    blocks, m = report.blocks, report.metrics
    if not blocks:
        return (m.max_simul_block, m.perc_num_block_as_a_whole) != (0, None)
    whole = Fraction(sum(b.whole for b in blocks), len(blocks))
    return (m.max_simul_block, m.perc_num_block_as_a_whole) != (
        _most_blocks_at_once(list(blocks)), Fraction(float(whole)))


@given(text=mutated(REPORTS) | _JSON_VALUES.map(json.dumps))
@example(text=_with(REPORTS[0], ("metrics", "tot_time"), float("nan")))
@example(text=_with(REPORTS[0], ("metrics", "max_simul_block"), 40))
@example(text=_with(REPORTS[0], ("blocks", 0, "whole"), False))
@example(text=_with(_with(REPORTS[0], ("blocks", 0, "members"), ["g1"]), ("session_id",), 1))
@example(text=_with(_with(REPORTS[0], ("verdict", "normalization", "reason"), "mixed gateway: g"),
                    ("verdict", "normalization", "rejected"), True))  # rejected, yet soundness
@example(text=_with(REPORTS[0], ("verdict", "soundness", "states_explored"), -7))
@example(text=_with(REPORTS[0], ("blocks", 0, "interval"), [5, "2010-11-15T10:00:15.000Z"]))
@example(text=_with(REPORTS[0], ("blocks",), {}))
@example(text=_with(REPORTS[0], ("verdict", "soundness", "violations"), ""))
@example(text=_with(REPORTS[0], ("metrics", "tot_time"), -5.0))
@example(text=_with(REPORTS[0], ("metrics", "tot_create_time"), 1e9))
@example(text=_with(REPORTS[0], ("metrics", "perc_num_elements_with_moves"), 7.5))
@example(text=_with(REPORTS[0], ("metrics", "avg_move_on_moved_elements"), -2.0))
@example(text=_with(REPORTS[0], ("metrics", "avg_move_on_moved_elements"), None))
@example(text=_with(REPORTS[0], ("metrics", "perc_num_elements_with_moves"), 0))
@example(text=_with(_with(REPORTS[0], ("metrics", "tot_time"), -5.0), ("blocks", 0, "whole"),
                    False))  # impossible metrics are refused before contradicted ones
@settings(max_examples=300)
def test_loader_refuses_what_the_oracle_refuses_and_impossible_blocks(text):
    """The loader gives what the constructor-built oracle gives: an equal
    report, or the same exception type and message. Of what the oracle
    accepts it refuses exactly the reports with an impossible block, after
    every other check, then those with metrics no session gives, and then
    those whose block metrics their blocks do not give."""
    data = json.loads(text)
    new, old = _outcome(SessionReport.from_dict, data), _outcome(report_from_dict, data)
    if isinstance(old, SessionReport) and _has_impossible_block(data):
        assert new[0] is ValueError and _BLOCK_REFUSAL.fullmatch(new[1]), new
    elif isinstance(old, SessionReport) and _has_impossible_metrics(data["metrics"]):
        assert new[0] is ValueError and _IMPOSSIBLE_METRIC_REFUSAL.fullmatch(new[1]), new
    elif isinstance(old, SessionReport) and _contradicts_its_blocks(old):
        assert new == (ValueError, _METRICS_REFUSAL)
    else:
        assert new == old
