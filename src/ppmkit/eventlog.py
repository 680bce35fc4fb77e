"""Modeling-event logs: event vocabulary, CSV parsing, validation, classification.

A session log is a UTF-8 CSV file (LF, CRLF or CR line ends) with the exact header

    seq,timestamp,event,object_id,object_type,x,y,label,source_id,target_id

holding one editor action per row, ordered by ``seq``. Timestamps are
ISO-8601 UTC with millisecond precision (``YYYY-MM-DDThh:mm:ss.sssZ``).
Labels follow RFC 4180 quoting; optional fields may be empty.

parse_log checks each row rule once, on whole columns: on all rows of a
log, and only when that refuses, on one row at a time to name the first
bad line.

Every EventLog keeps the lifecycle rule of _Skeleton, the graph the events
build and ProcessModel holds, so every EventLog replays; block dating walks
the same graph class.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from enum import Enum


class EventKind(str, Enum):
    CREATE_START_EVENT = "CREATE_START_EVENT"
    CREATE_END_EVENT = "CREATE_END_EVENT"
    CREATE_ACTIVITY = "CREATE_ACTIVITY"
    CREATE_XOR = "CREATE_XOR"
    CREATE_AND = "CREATE_AND"
    CREATE_EDGE = "CREATE_EDGE"
    MOVE_START_EVENT = "MOVE_START_EVENT"
    MOVE_END_EVENT = "MOVE_END_EVENT"
    MOVE_ACTIVITY = "MOVE_ACTIVITY"
    MOVE_XOR = "MOVE_XOR"
    MOVE_AND = "MOVE_AND"
    MOVE_EDGE_LABEL = "MOVE_EDGE_LABEL"
    CREATE_EDGE_BENDPOINT = "CREATE_EDGE_BENDPOINT"
    MOVE_EDGE_BENDPOINT = "MOVE_EDGE_BENDPOINT"
    DELETE_EDGE_BENDPOINT = "DELETE_EDGE_BENDPOINT"
    DELETE_START_EVENT = "DELETE_START_EVENT"
    DELETE_END_EVENT = "DELETE_END_EVENT"
    DELETE_ACTIVITY = "DELETE_ACTIVITY"
    DELETE_XOR = "DELETE_XOR"
    DELETE_AND = "DELETE_AND"
    DELETE_EDGE = "DELETE_EDGE"
    RECONNECT_EDGE = "RECONNECT_EDGE"
    NAME_ACTIVITY = "NAME_ACTIVITY"
    RENAME_ACTIVITY = "RENAME_ACTIVITY"
    NAME_EDGE = "NAME_EDGE"
    RENAME_EDGE = "RENAME_EDGE"


class ObjectType(str, Enum):
    START_EVENT = "START_EVENT"
    END_EVENT = "END_EVENT"
    ACTIVITY = "ACTIVITY"
    XOR = "XOR"
    AND = "AND"
    EDGE = "EDGE"


class EventClass(Enum):
    """Action class of an event kind.

    RECONNECT is the marker for RECONNECT_EDGE, which stands for a delete
    plus a create of the same edge and is materialized by
    :func:`expand_reconnect` before any metric is computed.
    """

    CREATE = "Create"
    MOVE = "Move"
    DELETE = "Delete"
    OTHER = "Other"
    RECONNECT = "Reconnect"


# Object type and action class implied by each event kind: the noun and
# the verb of its name (NAME_/RENAME_ are OTHER), except that bendpoint
# edits and edge-label drags all count as moving the edge.
KIND_OBJECT_TYPE: dict[EventKind, ObjectType] = {}
KIND_CLASS: dict[EventKind, EventClass] = {}
for _kind in EventKind:
    _verb, _noun = _kind.value.split("_", 1)
    if _noun.startswith("EDGE_"):
        KIND_OBJECT_TYPE[_kind] = ObjectType.EDGE
        KIND_CLASS[_kind] = EventClass.MOVE
    else:
        KIND_OBJECT_TYPE[_kind] = ObjectType(_noun)
        KIND_CLASS[_kind] = EventClass.__members__.get(_verb, EventClass.OTHER)

# Members the per-event walks compare against: an Enum class lookup costs ~0.2 us.
_CREATE, _DELETE, _RECONNECT, _EDGE = (EventClass.CREATE, EventClass.DELETE,
                                       EventClass.RECONNECT, ObjectType.EDGE)
_MOVE, _EDGE_ENDED = EventClass.MOVE, (EventKind.CREATE_EDGE, EventKind.RECONNECT_EDGE)

# CSV field values: each kind's member (a dict lookup costs less than
# EventKind(raw)), the type names, and the type name each kind implies;
# per member, the two names serialize_log writes (.value costs more).
_KIND_BY_VALUE = {kind.value: kind for kind in EventKind}
_TYPE_VALUES = {otype.value for otype in ObjectType}
_TYPE_OF_KIND = {kind.value: otype.value for kind, otype in KIND_OBJECT_TYPE.items()}
_KIND_NAME = {kind: kind.value for kind in EventKind}
_TYPE_NAME = {kind: otype.value for kind, otype in KIND_OBJECT_TYPE.items()}


class LogFormatError(ValueError):
    """Malformed or invalid event-log input; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)


CSV_HEADER = (
    "seq,timestamp,event,object_id,object_type,x,y,label,source_id,target_id"
)

# Hours stop at 23 here whatever a given Python's fromisoformat takes;
# the constructor it calls checks every other field's range. %s: fraction digits.
_TS = r"\d{4}-\d\d-\d\dT(?:[01]\d|2[0-3]):\d\d:\d\d\.\d{%s}Z"
_TS_SHAPE = re.compile(_TS % "1,6", re.ASCII)
_MS_STAMPS = re.compile(f"(?:{_TS % 3}\0)*{_TS % 3}", re.ASCII)  # a column, NUL-joined
# The only integer form parse_log reads: ASCII digits, an optional "-", no
# leading zero and no "-0", so serialize_log writes each one back as read;
# at most 640 digits, the least limit sys.set_int_max_str_digits sets int().
_INT = "(?:0|-?[1-9][0-9]{0,639})"
_INTS = re.compile(f"(?:{_INT}\0)*{_INT}")  # a column, NUL-joined

_QUOTE_LIMIT = 200  # characters of a field a refusal quotes; a longer one is cut


def _quote(text, show=repr) -> str:
    """show(text), cut after _QUOTE_LIMIT characters and then given its
    length; a value that is no string is quoted as its repr."""
    if type(text) is not str:
        text, show = repr(text), str
    cut = f"... ({len(text)} characters)" if len(text) > _QUOTE_LIMIT else ""
    return show(text[:_QUOTE_LIMIT]) + cut


def parse_timestamp(text: str) -> datetime:
    """Parse a UTC timestamp of exactly the shape YYYY-MM-DDThh:mm:ss.fZ.

    Digits are ASCII, every field but the year has two, and the fraction
    has 1 to 6, read as a decimal fraction of a second that must be a
    whole number of milliseconds.
    """
    if _TS_SHAPE.fullmatch(text) is None:
        raise ValueError(f"bad timestamp {_quote(text)}")
    try:
        # the fraction padded to six digits, a form every Python 3.10+ reads
        ts = datetime.fromisoformat(text[:-1].ljust(26, "0") + "+00:00")
    except ValueError:
        raise ValueError(f"bad timestamp {text!r}") from None
    if ts.microsecond % 1000 != 0:
        raise ValueError(f"timestamp {text!r} not millisecond-aligned")
    return ts


def parse_timestamps(stamps) -> list[datetime]:
    """parse_timestamp of each stamp, read as one column: one match and
    one fromisoformat map when every stamp has millisecond digits, else
    parse_timestamp per stamp, which words the first bad one."""
    joined = "\0".join(stamps)
    if _MS_STAMPS.fullmatch(joined):
        # six fraction digits and "+00:00", a form fromisoformat reads on every Python
        parts = joined.replace("Z", "000+00:00").split("\0")
        try:
            if len(parts) == len(stamps):  # else a stamp holds NUL
                return list(map(datetime.fromisoformat, parts))
        except ValueError:  # a stamp's shape but no such date
            pass
    return list(map(parse_timestamp, stamps))


def format_timestamp(ts: datetime) -> str:
    """The form parse_timestamp reads; sub-millisecond digits are dropped."""
    if ts.tzinfo is not None and ts.tzinfo is not timezone.utc:
        ts = ts.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" % (
        ts.year, ts.month, ts.day, ts.hour, ts.minute, ts.second, ts.microsecond // 1000)


@dataclass(frozen=True, slots=True)
class ModelingEvent:
    """One timestamped editor action on one model object."""

    seq: int
    timestamp: datetime
    kind: EventKind
    object_id: str
    position: tuple[int, int] | None = None
    label: str | None = None
    source_id: str | None = None
    target_id: str | None = None

    def __init__(self, seq: int, timestamp: datetime, kind: EventKind, object_id: str,
                 position: tuple[int, int] | None = None, label: str | None = None,
                 source_id: str | None = None, target_id: str | None = None):
        if not isinstance(kind, EventKind):
            raise ValueError(f"unknown event kind {kind!r}")
        if seq < 1:
            raise ValueError(f"seq must be positive, got {seq}")
        if not object_id:
            raise ValueError("object_id must be non-empty")
        if kind in _EDGE_ENDED:
            if not source_id or not target_id:
                raise ValueError(f"{kind.value} requires source_id and target_id")
        elif source_id or target_id:
            raise ValueError(f"{kind.value} must not carry edge endpoints")
        # The slot setters (after the class) skip the frozen __setattr__.
        _set_seq(self, seq)
        _set_timestamp(self, timestamp)
        _set_kind(self, kind)
        _set_object_id(self, object_id)
        _set_position(self, position)
        _set_label(self, label)
        _set_source_id(self, source_id)
        _set_target_id(self, target_id)

    @property
    def object_type(self) -> ObjectType:
        return KIND_OBJECT_TYPE[self.kind]

    @property
    def event_class(self) -> EventClass:
        return KIND_CLASS[self.kind]


(_set_seq, _set_timestamp, _set_kind, _set_object_id, _set_position, _set_label,
 _set_source_id, _set_target_id) = (ModelingEvent.__dict__[f.name].__set__
                                    for f in fields(ModelingEvent))


@dataclass(frozen=True)
class EventLog:
    """An immutable, validated sequence of modeling events for one session."""

    session_id: str
    events: tuple[ModelingEvent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "_reconnects", _check_events(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def has_reconnects(self) -> bool:
        return self._reconnects  # recorded when the log was made


def _checked_log(session_id: str, events: list[ModelingEvent], reconnects: bool) -> EventLog:
    """The EventLog of events that parse_log's _check_events walk checked,
    or that expand_reconnect made valid; __post_init__'s walk is skipped."""
    log = object.__new__(EventLog)
    object.__setattr__(log, "session_id", session_id)
    object.__setattr__(log, "events", tuple(events))
    object.__setattr__(log, "_reconnects", reconnects)
    return log


class _Skeleton:
    """ProcessModel's graph, which the block search reads: each live
    object's type, each edge's ends, and per node its in- and out-flows in
    order, edge id to the node at the other end.

    Its edits state the structure rule that logs and models share, each
    refusal a ValueError: `_add` and `_link` refuse an id in use, and
    `_link` then a flow end that is not a live node. ProcessModel calls
    them directly. `apply` edits it by events and adds the rules that
    belong to logs: under `strict` a deleted id is never created again,
    and every other event needs a live object of the type it was created
    with. Deleting a node deletes its edges, so a later event on one of
    them acts on a deleted object. `_deleted` keeps every id deleted so
    far, for `strict` and to word a refusal.
    """

    __slots__ = ("types", "ends", "_out", "_in", "_deleted", "_strict", "reconnected")

    def __init__(self, strict: bool = False):
        self.types, self.ends, self._out, self._in = {}, {}, {}, {}
        self._deleted, self._strict, self.reconnected = set(), strict, False

    def apply(self, ev: ModelingEvent) -> None:
        """Apply an event; one that breaks a rule raises ValueError (a
        lifecycle rule LogFormatError) without a line."""
        oid, kind, types = ev.object_id, ev.kind, self.types
        otype, event_class = KIND_OBJECT_TYPE[kind], KIND_CLASS[kind]
        if event_class is _CREATE:
            if self._strict and oid in self._deleted:
                raise LogFormatError(f"recreation of deleted object {_quote(oid, str)}")
            if otype is _EDGE:
                self._link(oid, ev.source_id, ev.target_id)
            else:
                self._add(oid, otype)
        elif types.get(oid) is not otype:
            if oid in types:
                raise LogFormatError(f"object {_quote(oid, str)} changes type")
            verb = "deleted" if oid in self._deleted else "unknown"
            raise LogFormatError(f"action on {verb} object {_quote(oid, str)}")
        elif event_class is _RECONNECT:
            self.reconnected = True
            self._unlink(oid)
            self._link(oid, ev.source_id, ev.target_id)
        elif event_class is _DELETE:
            self._deleted.add(oid)
            if otype is _EDGE:
                self._unlink(oid)
            else:
                self._deleted.update(self._drop(oid))

    def _add(self, nid: str, otype: ObjectType) -> None:
        if nid in self.types:
            raise ValueError(f"duplicate object id {_quote(nid, str)}")
        self.types[nid], self._out[nid], self._in[nid] = otype, {}, {}

    def _link(self, eid: str, s: str, t: str) -> None:
        if eid in self.types:
            raise ValueError(f"duplicate object id {_quote(eid, str)}")
        outs = self._out  # one entry per live node
        if s not in outs or t not in outs:
            end = _quote(t if s in outs else s, str)
            raise ValueError(f"edge {_quote(eid, str)} ends at {end}, not a live node")
        self.types[eid], self.ends[eid] = _EDGE, (s, t)
        outs[s][eid], self._in[t][eid] = t, s

    def _unlink(self, eid: str) -> None:
        s, t = self.ends.pop(eid)
        del self.types[eid], self._out[s][eid], self._in[t][eid]

    def _drop(self, nid: str) -> dict[str, str]:
        """Unlink a node's edges and drop the node; return the edges' ids."""
        for eid in (edges := {**self._out[nid], **self._in[nid]}):
            self._unlink(eid)
        del self.types[nid], self._out[nid], self._in[nid]
        return edges

    def copy(self) -> "_Skeleton":
        """The same graph in new dicts, with no lifecycle history."""
        clone = _Skeleton.__new__(_Skeleton)
        clone.types, clone.ends = dict(self.types), dict(self.ends)
        clone._out = {n: dict(ways) for n, ways in self._out.items()}
        clone._in = {n: dict(ways) for n, ways in self._in.items()}
        clone._deleted, clone._strict, clone.reconnected = set(), False, False
        return clone


def _check_events(events, lines: list[int] | None = None) -> bool:
    """Check the order and lifecycle rules in one walk; return whether a
    reconnect was among the events. The first event breaking them raises
    LogFormatError at its CSV line from `lines`, else ValueError at its seq.

    Seq numbers strictly increase and timestamps never go back; _Skeleton
    states the lifecycle rule. A deleted id may be created again, which is
    what reconnect expansion emits; parsed input may not do that.
    """
    skeleton = _Skeleton(strict=lines is not None)
    apply, prev = skeleton.apply, None
    try:
        for index, ev in enumerate(events):
            if prev is not None:
                if ev.seq <= prev.seq:
                    raise LogFormatError(f"seq not strictly increasing ({prev.seq} then {ev.seq})")
                if ev.timestamp < prev.timestamp:
                    raise LogFormatError("timestamp regression")
            prev = ev
            apply(ev)
    except ValueError as exc:  # LogFormatError too
        if lines is None:
            raise ValueError(f"{exc} at seq {ev.seq}") from None
        raise LogFormatError(str(exc), lines[index]) from None
    return skeleton.reconnected


def _events(rows: list[list[str]]) -> list[ModelingEvent]:
    """The events of CSV rows, each row rule checked on whole columns in the
    order a row's fields are read. A broken rule raises ValueError worded
    from the first row, so on one row it is that row's own message. No
    field holds NUL (parse_log refuses it), so NUL joins a column.
    """
    if set(map(len, rows)) != {10}:
        raise ValueError(f"expected 10 fields, got {len(rows[0])}")
    seqs, stamps, kinds, oids, types, xs, ys, labels, sources, targets = zip(*rows)
    seq, _, kind, _, otype, x, y = rows[0][:7]
    if _INTS.fullmatch("\0".join(seqs)) is None:
        raise ValueError(f"bad seq {_quote(seq)}")
    times = parse_timestamps(stamps)
    members = list(map(_KIND_BY_VALUE.get, kinds))
    if None in members:
        raise ValueError(f"unknown event {_quote(kind)}")
    if not _TYPE_VALUES.issuperset(types):
        raise ValueError(f"unknown object type {_quote(otype)}")
    if list(map(bool, xs)) != list(map(bool, ys)):
        raise ValueError("x and y must be given together")
    coords = "\0".join(filter(None, xs + ys))
    if coords and _INTS.fullmatch(coords) is None:
        raise ValueError(f"bad coordinates {_quote(x)},{_quote(y)}")
    if tuple(map(_TYPE_OF_KIND.get, kinds)) != types:
        raise ValueError(f"{kind} implies object type {_TYPE_OF_KIND[kind]}, got {otype}")
    return list(map(ModelingEvent, map(int, seqs), times, members, oids,
                    [(int(x), int(y)) if x else None for x, y in zip(xs, ys)],
                    [v or None for v in labels], [v or None for v in sources],
                    [v or None for v in targets]))


def _lines(text: str):
    """The lines csv.reader reads of a log. The first that holds NUL is
    refused, as Python 3.10's csv module refuses it, on every Python."""
    for number, line in enumerate(io.StringIO(text, newline=""), 1):
        if "\0" in line:
            raise LogFormatError("malformed CSV: line contains NUL", number)
        yield line


def parse_log(data: bytes | str, session_id: str = "") -> EventLog:
    """Parse and validate an event-log CSV.

    The row rules are checked on all rows at once, and a valid log is read
    with no line numbers. A log refused there is read again a record at a
    time, and the rows are checked one by one up to the first bad line.

    Raises LogFormatError with a 1-based line number on input that is not
    UTF-8 or not CSV (a NUL included), any malformed row, unknown event
    name, an object type other than the one the event name implies, seq or
    timestamp disorder, missing edge endpoints, a create of an id in use,
    an edge whose ends are not live nodes, action on a never-created or
    deleted object (an edge of a deleted node included), an object
    changing type, or recreation of a previously deleted object id.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LogFormatError(f"not UTF-8 (byte {exc.start}: {exc.reason})", 1) from None
    else:
        text = data
    try:
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        rows = [row for row in rows if row]
        if header == CSV_HEADER.split(",") and "\0" not in text:
            events = _events(rows) if rows else []
            return _checked_log(session_id, events, _check_events(events, range(len(events))))
    except (csv.Error, ValueError):  # LogFormatError too; ValueError on empty text
        pass
    reader = csv.reader(_lines(text))
    events, lines = [], []
    try:
        header = next(reader, None)
        if header is None:
            raise LogFormatError("empty input, expected header row", 1)
        if header != CSV_HEADER.split(","):
            raise LogFormatError(f"bad header {_quote(','.join(header))}", 1)
        # A record's number is its first line; a quoted field may span lines.
        line = reader.line_num + 1
        for row in reader:
            if row:
                try:
                    events += _events([row])
                except ValueError as exc:
                    raise LogFormatError(str(exc), line) from None
                lines.append(line)
            line = reader.line_num + 1
    except csv.Error as exc:
        raise LogFormatError(f"malformed CSV: {exc}", reader.line_num) from None
    return _checked_log(session_id, events, _check_events(events, lines))


def serialize_log(log: EventLog) -> str:
    """Render a log back to its CSV form. parse_log inverts this exactly."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    # csv writes an int through str and None as an empty field.
    writer.writerows((ev.seq, format_timestamp(ev.timestamp), _KIND_NAME[ev.kind], ev.object_id,
                      _TYPE_NAME[ev.kind], *(ev.position or (None, None)), ev.label,
                      ev.source_id, ev.target_id) for ev in log.events)
    return out.getvalue()


def expand_reconnect(log: EventLog) -> EventLog:
    """Replace each RECONNECT_EDGE by DELETE_EDGE + CREATE_EDGE on the same id.

    Both synthetic events keep the reconnect's timestamp; the create carries
    the reconnect's endpoints. Seq numbers are reassigned consecutively so
    relative order is preserved. A log without reconnects, an expanded one
    too, is returned as it is: the flag recorded when it was made says so.
    """
    if not log.has_reconnects():
        return log
    events: list[ModelingEvent] = []
    seq = 0
    for ev in log.events:
        if ev.kind is EventKind.RECONNECT_EDGE:
            events.append(ModelingEvent(seq + 1, ev.timestamp, EventKind.DELETE_EDGE,
                                        ev.object_id))
            events.append(ModelingEvent(seq + 2, ev.timestamp, EventKind.CREATE_EDGE,
                                        ev.object_id, ev.position, ev.label, ev.source_id,
                                        ev.target_id))
            seq += 2
        else:
            seq += 1
            events.append(ev if ev.seq == seq else
                          ModelingEvent(seq, ev.timestamp, ev.kind, ev.object_id,
                                        ev.position, ev.label, ev.source_id, ev.target_id))
    # Valid by construction: the reconnected edge and its new ends are
    # alive, deleting and recreating it keeps every later event's object
    # state, seq numbers run 1..n and timestamps keep their order.
    return _checked_log(log.session_id, events, False)
