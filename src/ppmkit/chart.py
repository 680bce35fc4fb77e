"""Dotted-chart rendering of a modeling session as a standalone SVG.

One row per model element, ordered by first appearance; one dot per event,
colored by what the event did (create, move, delete, name). Time runs left
to right and the last event of the session is pinned to the right edge, so
a session that used the whole window fills the whole width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from xml.sax.saxutils import quoteattr

from .eventlog import EventClass, EventLog, expand_reconnect

ROW_HEIGHT = 20.0  # pixels per row when the spec leaves the height open


def _default_colors() -> dict[str, str]:
    return {
        "create": "green",
        "move": "blue",
        "delete": "red",
        "name": "orange",
    }


@dataclass
class PPMChartSpec:
    """Geometry and palette for a chart. Times are seconds, sizes pixels."""

    window: float = 3600.0
    width: float = 1200.0
    height: float | None = None  # None: rows * ROW_HEIGHT
    colors: dict[str, str] = field(default_factory=_default_colors)

    def __post_init__(self):
        sizes = {"window": self.window, "width": self.width, "height": self.height}
        for name, value in sizes.items():
            if value is None and name == "height":
                continue
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


_CLASS_KEY = {
    EventClass.CREATE: "create",
    EventClass.MOVE: "move",
    EventClass.DELETE: "delete",
    EventClass.OTHER: "name",
}


def _num(value: float) -> str:
    return f"{value:.2f}"


def render_ppmchart(log: EventLog, spec: PPMChartSpec | None = None) -> str:
    """The session as an SVG dotted chart, its reconnects expanded first."""
    log = expand_reconnect(log)
    if spec is None:
        spec = PPMChartSpec()
    missing = [key for key in _CLASS_KEY.values() if key not in spec.colors]
    if missing:
        raise ValueError(f"spec colors lack {', '.join(missing)}")
    if not log.events:
        raise ValueError("cannot chart an empty session")

    t_first = log.events[0].timestamp
    t_last = log.events[-1].timestamp
    span = (t_last - t_first).total_seconds()
    if span > spec.window:
        raise ValueError(
            f"session spans {span:.0f}s but the window is {spec.window:.0f}s; "
            "pass a larger window"
        )

    # Row per object, in order of first appearance.
    rows: dict[str, list] = {}
    for ev in log.events:
        rows.setdefault(ev.object_id, []).append(ev)

    height = spec.height if spec.height is not None else len(rows) * ROW_HEIGHT
    row_height = height / len(rows)

    def x_of(ts) -> float:
        return spec.width * (1.0 - (t_last - ts).total_seconds() / spec.window)

    # Quoted once per class; a title is a seq and an EventKind value, safe in XML.
    fills = {cls: f"fill={quoteattr(spec.colors[key])}" for cls, key in _CLASS_KEY.items()}
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_num(spec.width)}" '
        f'height="{_num(height)}" viewBox="0 0 {_num(spec.width)} {_num(height)}">',
        f'  <rect width="{_num(spec.width)}" height="{_num(height)}" fill="white"/>',
    ]
    for row, (obj, events) in enumerate(rows.items()):
        y = _num((row + 0.5) * row_height)
        lines.append(f"  <g class=\"row\" data-object={quoteattr(obj)}>")
        lines.append(f'    <line x1="{_num(x_of(events[0].timestamp))}" y1="{y}" '
                     f'x2="{_num(spec.width)}" y2="{y}" stroke="#ddd"/>')
        lines.extend(f'    <circle cx="{_num(x_of(ev.timestamp))}" cy="{y}" r="3" '
                     f"{fills[ev.event_class]}><title>{ev.seq} {ev.kind.value}</title></circle>"
                     for ev in events)
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
