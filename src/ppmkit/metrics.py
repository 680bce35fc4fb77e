"""Per-session metrics over modeling behavior.

Six values per session: two about block-structured working (how many
blocks were under construction at once, how many blocks were built as a
whole), two about layout churn (average moves per moved element, share of
elements ever moved), and two about speed (total modeling time, time from
first to last create). Bendpoint edits and edge-label drags are moves of
the edge, and every element ever created counts towards the share, the
deleted ones too: each had its time on the canvas. Ratios and durations
are exact rationals; durations are in seconds. Metrics that are undefined
for a session (no blocks, no moves) are None rather than 0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import timedelta
from fractions import Fraction

from .blocks import Block, max_simul_block, perc_blocks_as_whole
from .eventlog import _CREATE, _MOVE, KIND_CLASS, EventLog, _quote, expand_reconnect
from .model import typed


def _seconds(delta: timedelta) -> Fraction:
    # exact: timedelta stores integer microseconds
    return Fraction(delta // timedelta(microseconds=1), 10**6)


def tot_time(log: EventLog) -> Fraction:
    """Seconds between the first and last recorded action."""
    if not log.events:
        raise ValueError("empty session: no events")
    return _seconds(log.events[-1].timestamp - log.events[0].timestamp)


@dataclass(frozen=True, slots=True)
class SessionMetrics:
    max_simul_block: int
    perc_num_block_as_a_whole: Fraction | None
    avg_move_on_moved_elements: Fraction | None
    perc_num_elements_with_moves: Fraction
    tot_time: Fraction
    tot_create_time: Fraction

    def __init__(self, max_simul_block: int, perc_num_block_as_a_whole: Fraction | None,
                 avg_move_on_moved_elements: Fraction | None,
                 perc_num_elements_with_moves: Fraction, tot_time: Fraction,
                 tot_create_time: Fraction):
        # The slot setters (after the class) skip the frozen __setattr__.
        _set_max(self, max_simul_block)
        _set_whole(self, perc_num_block_as_a_whole)
        _set_avg(self, avg_move_on_moved_elements)
        _set_moved(self, perc_num_elements_with_moves)
        _set_tot(self, tot_time)
        _set_create(self, tot_create_time)

    @classmethod
    def from_dict(cls, data: dict) -> "SessionMetrics":
        return cls(typed(data["max_simul_block"], "max_simul_block", int),
                   *[_fraction(data[name], name) for name in METRIC_NAMES[1:]])


def _fraction(value, name: str) -> Fraction | None:
    """A metric read from JSON: an int or a float (a bool is an int, but no
    metric), or null where the metric may be undefined."""
    if value is None and name in ("perc_num_block_as_a_whole", "avg_move_on_moved_elements"):
        return None
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"{name} must be a number, got {_quote(value)}")
    return Fraction(*value.as_integer_ratio())  # exact; raises as Fraction(value) does


#: JSON field order for SessionMetrics.
METRIC_NAMES = tuple(f.name for f in fields(SessionMetrics))
_set_max, _set_whole, _set_avg, _set_moved, _set_tot, _set_create = (
    SessionMetrics.__dict__[name].__set__ for name in METRIC_NAMES)


def compute_session_metrics(log: EventLog, blocks: list[Block]) -> SessionMetrics:
    """All six metrics for one session, given the blocks detect_blocks
    found and dated on the same log. The log's reconnects are expanded
    first, as every stage does; the four log metrics come from one walk.
    """
    log = expand_reconnect(log)
    moves = 0
    moved: set[str] = set()
    created: set[str] = set()
    first_create = last_create = None
    for ev in log.events:
        event_class = KIND_CLASS[ev.kind]
        if event_class is _MOVE:
            moves += 1
            moved.add(ev.object_id)
        elif event_class is _CREATE:
            created.add(ev.object_id)
            if first_create is None:
                first_create = ev.timestamp
            last_create = ev.timestamp
    if not created:
        raise ValueError("empty session: no created elements")
    return SessionMetrics(
        max_simul_block=max_simul_block(blocks),
        perc_num_block_as_a_whole=perc_blocks_as_whole(blocks),
        avg_move_on_moved_elements=Fraction(moves, len(moved)) if moved else None,
        perc_num_elements_with_moves=Fraction(len(moved), len(created)),
        tot_time=tot_time(log),
        tot_create_time=_seconds(last_create - first_create),
    )
