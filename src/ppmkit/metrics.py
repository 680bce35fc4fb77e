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
from .eventlog import _CREATE, _MOVE, KIND_CLASS, EventLog, expand_reconnect
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

    @classmethod
    def from_dict(cls, data: dict) -> "SessionMetrics":
        def frac(name: str, optional: bool = False) -> Fraction | None:
            value = data[name]
            if value is None and optional:
                return None
            if type(value) not in (int, float):  # a bool is an int, but no metric
                raise TypeError(f"{name} must be a number, got {value!r}")
            return Fraction(value)

        return cls(typed(data["max_simul_block"], "max_simul_block", int),
                   frac("perc_num_block_as_a_whole", optional=True),
                   frac("avg_move_on_moved_elements", optional=True),
                   frac("perc_num_elements_with_moves"), frac("tot_time"), frac("tot_create_time"))


#: JSON field order for SessionMetrics.
METRIC_NAMES = tuple(f.name for f in fields(SessionMetrics))


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
