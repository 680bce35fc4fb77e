"""Dotted-chart rendering of a modeling session as a standalone SVG.

One row per model element, ordered by first appearance; one dot per event,
colored by what the event did (create, move, delete, name). Time runs left
to right and the last event of the session is pinned to the right edge, so
a session that used the whole window fills the whole width.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from xml.sax.saxutils import quoteattr

from .eventlog import KIND_CLASS, EventClass, EventLog, expand_reconnect

ROW_HEIGHT = 20.0  # pixels per row when the spec leaves the height open


def _default_colors() -> dict[str, str]:
    return {"create": "green", "move": "blue", "delete": "red", "name": "orange"}


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
            if not (value is None and name == "height" or math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


_CLASS_KEY = {EventClass.CREATE: "create", EventClass.MOVE: "move",
              EventClass.DELETE: "delete", EventClass.OTHER: "name"}
# Each kind's color key, and its dot's end after the seq (no kind needs escaping).
_KIND_KEY = {kind: _CLASS_KEY[cls] for kind, cls in KIND_CLASS.items() if cls in _CLASS_KEY}
_KIND_END = {kind: f" {kind.value}</title></circle>" for kind in _KIND_KEY}

# What quoteattr rewrites (&<>" and tab, newline, return) and what XML 1.0
# cannot carry at all (the other C0 controls, lone surrogates, U+FFFE, U+FFFF).
_NEEDS_CARE = re.compile('[&<>"\x00-\x1f\ud800-\udfff\ufffe\uffff]')
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _quoted(value: str, name: str) -> str:
    """quoteattr(value), refusing a character that XML cannot carry."""
    if not _NEEDS_CARE.search(value):
        return f'"{value}"'
    bad = _NOT_XML.search(value)
    if bad:
        raise ValueError(f"{name} {value!r} holds {bad.group()!r}, which XML cannot carry")
    return quoteattr(value)


def render_ppmchart(log: EventLog, spec: PPMChartSpec | None = None) -> str:
    """The session as an SVG dotted chart, its reconnects expanded first."""
    log = expand_reconnect(log)
    spec = spec if spec is not None else PPMChartSpec()
    missing = [key for key in _CLASS_KEY.values() if key not in spec.colors]
    if missing:
        raise ValueError(f"spec colors lack {', '.join(missing)}")
    if not log.events:
        raise ValueError("cannot chart an empty session")

    t_last = log.events[-1].timestamp
    span = (t_last - log.events[0].timestamp).total_seconds()
    if span > spec.window:
        raise ValueError(f"session spans {span:.0f}s but the window is {spec.window:.0f}s; "
                         "pass a larger window")

    # Row per object, in order of first appearance.
    rows: dict[str, list] = {}
    for ev in log.events:
        rows.setdefault(ev.object_id, []).append(ev)

    height = spec.height if spec.height is not None else len(rows) * ROW_HEIGHT
    row_height = height / len(rows)
    width, window = spec.width, spec.window
    w, h = f"{width:.2f}", f"{height:.2f}"

    # A dot is cx, cy, its kind's tail (colors quoted once), seq, _KIND_END.
    fills = {key: _quoted(spec.colors[key], f"color {key}") for key in _CLASS_KEY.values()}
    tail = {kind: f'" r="3" fill={fills[key]}><title>' for kind, key in _KIND_KEY.items()}
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}">', f'  <rect width="{w}" height="{h}" fill="white"/>']
    for row, (obj, events) in enumerate(rows.items()):
        y = f"{(row + 0.5) * row_height:.2f}"
        x1 = width * (1.0 - (t_last - events[0].timestamp).total_seconds() / window)
        lines.append(f'  <g class="row" data-object={_quoted(obj, "object id")}>')
        lines.append(f'    <line x1="{x1:.2f}" y1="{y}" x2="{w}" y2="{y}" stroke="#ddd"/>')
        lines.extend(
            f'    <circle cx="{width * (1.0 - (t_last - ev.timestamp).total_seconds() / window):.2f}"'
            f' cy="{y}{tail[ev.kind]}{ev.seq}{_KIND_END[ev.kind]}' for ev in events)
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
