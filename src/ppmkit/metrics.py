"""Per-session metrics over modeling behavior.

Six values per session: two about block-structured working (how many
blocks were under construction at once, how many blocks were built as a
whole), two about layout churn (average moves per moved element, share of
elements ever moved), and two about speed (total modeling time, time from
first to last create). Ratios and durations are exact rationals; durations
are in seconds. Metrics that are undefined for a session (no blocks, no
moves) are None rather than 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .blocks import Block, _replay_and_date, max_simul_block, perc_blocks_as_whole
from .eventlog import EventClass, EventLog, expand_reconnect

#: JSON field order for SessionMetrics.
METRIC_NAMES = (
    "max_simul_block",
    "perc_num_block_as_a_whole",
    "avg_move_on_moved_elements",
    "perc_num_elements_with_moves",
    "tot_time",
    "tot_create_time",
)


def _require_expanded(log: EventLog):
    if log.has_reconnects():
        raise ValueError("expand reconnect events before computing metrics")


def _seconds(delta) -> Fraction:
    # exact: timedelta stores integer microseconds
    return Fraction(
        (delta.days * 86_400 + delta.seconds) * 10**6 + delta.microseconds,
        10**6,
    )


def avg_move_on_moved_elements(log: EventLog) -> Fraction | None:
    """Average number of move operations over elements moved at least once.

    None when nothing was ever moved. Bendpoint edits and edge label drags
    count as moves of the edge.
    """
    _require_expanded(log)
    moves_by_object: dict[str, int] = {}
    for ev in log.events:
        if ev.event_class is EventClass.MOVE:
            moves_by_object[ev.object_id] = moves_by_object.get(ev.object_id, 0) + 1
    if not moves_by_object:
        return None
    return Fraction(sum(moves_by_object.values()), len(moves_by_object))


def perc_num_elements_with_moves(log: EventLog) -> Fraction:
    """Share of elements with at least one move operation.

    The denominator counts every element ever created, including elements
    deleted later: each had its time on the canvas.
    """
    _require_expanded(log)
    created: set[str] = set()
    moved: set[str] = set()
    for ev in log.events:
        if ev.is_create():
            created.add(ev.object_id)
        elif ev.event_class is EventClass.MOVE:
            moved.add(ev.object_id)
    if not created:
        raise ValueError("empty session: no created elements")
    return Fraction(len(moved), len(created))


def tot_time(log: EventLog) -> Fraction:
    """Seconds between the first and last recorded action."""
    if not log.events:
        raise ValueError("empty session: no events")
    return _seconds(log.events[-1].timestamp - log.events[0].timestamp)


def tot_create_time(log: EventLog) -> Fraction:
    """Seconds between the first and last create action."""
    _require_expanded(log)
    stamps = [ev.timestamp for ev in log.events if ev.is_create()]
    if not stamps:
        raise ValueError("empty session: no create events")
    return _seconds(stamps[-1] - stamps[0])


@dataclass(frozen=True)
class SessionMetrics:
    max_simul_block: int
    perc_num_block_as_a_whole: Fraction | None
    avg_move_on_moved_elements: Fraction | None
    perc_num_elements_with_moves: Fraction
    tot_time: Fraction
    tot_create_time: Fraction

    def to_dict(self) -> dict:
        out = {}
        for name in METRIC_NAMES:
            value = getattr(self, name)
            if value is None:
                out[name] = None
            elif isinstance(value, Fraction):
                out[name] = float(value)
            else:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SessionMetrics":
        def frac(name: str, optional: bool = False) -> Fraction | None:
            value = data[name]
            if value is None and optional:
                return None
            if type(value) not in (int, float):  # a bool is an int, but no metric
                raise TypeError(f"{name} must be a number, got {value!r}")
            return Fraction(value)

        if type(data["max_simul_block"]) is not int:  # a bool is not a count
            raise TypeError(f"max_simul_block must be an int, got {data['max_simul_block']!r}")
        return cls(
            max_simul_block=data["max_simul_block"],
            perc_num_block_as_a_whole=frac("perc_num_block_as_a_whole", optional=True),
            avg_move_on_moved_elements=frac("avg_move_on_moved_elements", optional=True),
            perc_num_elements_with_moves=frac("perc_num_elements_with_moves"),
            tot_time=frac("tot_time"),
            tot_create_time=frac("tot_create_time"),
        )


def compute_session_metrics(log: EventLog, blocks: list[Block] | None = None) -> SessionMetrics:
    """All six metrics for one session.

    Reconnect events are expanded here, so raw parsed logs are fine. Pass
    `blocks` to reuse an existing detect_blocks result; it must come from
    the same expanded log.
    """
    log = expand_reconnect(log)
    if blocks is None:
        _, blocks = _replay_and_date(log)
    return SessionMetrics(
        max_simul_block=max_simul_block(blocks),
        perc_num_block_as_a_whole=perc_blocks_as_whole(blocks),
        avg_move_on_moved_elements=avg_move_on_moved_elements(log),
        perc_num_elements_with_moves=perc_num_elements_with_moves(log),
        tot_time=tot_time(log),
        tot_create_time=tot_create_time(log),
    )
