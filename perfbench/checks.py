"""Known answers the benchmark checks every output against."""

from __future__ import annotations

import sys

import workloads

ROW_MARK = '<g class="row"'  # one per chart row in render_ppmchart's SVG
STATS_REPS = 10  # the stats step is short; it is repeated per pass


def check(session: workloads.Session, report, rows: int | None = None) -> str | None:
    """Why a session's outputs miss its known answer, or None."""
    answer = session.answer
    stage = report.verdict.stage
    if stage not in answer.stages:
        return f"{session.session_id}: stage {stage}, expected {'/'.join(answer.stages)}"
    if len(report.blocks) != answer.blocks:
        return f"{session.session_id}: {len(report.blocks)} blocks, expected {answer.blocks}"
    if rows is not None and rows != answer.rows:
        return f"{session.session_id}: {rows} chart rows, expected {answer.rows}"
    return None


def expected_groups(reports) -> tuple[int, int] | None:
    """Group sizes compare_groups must report; None when it must refuse
    because a group has fewer than two sessions."""
    sound = sum(1 for r in reports if r.verdict.stage == "Sound")
    sizes = (sound, len(reports) - sound)
    return sizes if min(sizes) >= 2 else None


def compare(ppm, reports):
    """compare_groups' group sizes, or None when it refuses the corpus."""
    try:
        comparison = ppm.compare_groups(reports)
    except ValueError:
        return None
    return (comparison.group_a_size, comparison.group_b_size)


class Tally:
    """Attempted and failed sessions, undecided verdicts, first errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.undecided = 0
        self.errors: list[str] = []

    def error(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)
            print(f"benchmark: {message}", file=sys.stderr)

    def session(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.error(problem)
