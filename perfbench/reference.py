"""A fixed reference task that tells how fast the host runs at the moment.

On a shared host the speed of a core drifts: for seconds or minutes every
interpreted instruction can take 1.5 to 2 times as long, and when such a
phase covers a whole run, taking the best of several samples cannot remove
it. So the benchmark times this task, which uses only the standard library
and never changes with ppmkit, before and after each step it measures and,
from a timer signal, every PERIOD_S seconds during a longer step. The step
is cut at each sample into segments, and each segment is scaled to the
speed the task had on the machine that fixed REFERENCE_MS:

    scaled = segment time * REFERENCE_MS / (mean of the samples at its ends)

A sample is the mean time of a few back-to-back calls, so like the step it
averages over the host's quick changes of speed. The time the samples take
is left out of the step. A step slowed on its own (say, by a preemption)
reads slower, and the per-session median over the passes discards it. A
change that makes the library slower makes every scaled time slower by the
same share.
"""

from __future__ import annotations

import csv
import io
import json
import signal
import time
from datetime import datetime

# Set on a 2-core x86-64 machine with Python 3.11 so that scaled times read
# about as the milliseconds that machine takes when no other load slows it.
REFERENCE_MS = 0.14
TRIES = 3  # a sample is the mean of this many back-to-back calls
PERIOD_S = 0.05  # how often a longer step is sampled

_ROWS = [
    (str(i), f"2010-11-15T10:{i % 60:02d}:{i * 7 % 60:02d}.{i % 1000:03d}Z", "CREATE_TASK",
     f"t{i}", "task", str(i * 3), str(i * 5), f"label {i}", "", "")
    for i in range(40)
]
_buffer = io.StringIO()
csv.writer(_buffer).writerows(_ROWS)
_TEXT = _buffer.getvalue()


def reference() -> str:
    """Parse a small event-log-like CSV, index, sort and serialise it: the
    same kinds of interpreter work the library does per session.

    It runs inside a signal handler, so it takes no lock the interrupted
    code might hold (datetime.strptime does).
    """
    objects = {}
    for row in csv.reader(io.StringIO(_TEXT)):
        stamp = datetime.fromisoformat(row[1][:-1])
        objects[row[3]] = {"at": stamp, "x": int(row[5]), "label": row[7].upper(),
                           "edges": set(range(int(row[0]) % 7))}
    ordered = sorted(objects.items(), key=lambda kv: (kv[1]["x"], kv[0]))
    return json.dumps([[k, v["label"], len(v["edges"])] for k, v in ordered])


def sample() -> float:
    """The reference task's mean time in ns over TRIES calls."""
    t0 = time.perf_counter_ns()
    for _ in range(TRIES):
        reference()
    return (time.perf_counter_ns() - t0) / TRIES


class Meter:
    """Times steps in ms at the reference machine's speed."""

    def __init__(self):
        self.last = sample()  # the latest sample, taken after the last step

    def measure(self, step):
        """Run step(); returns its result and its scaled time in ms."""
        segments = []  # (ns, sample at the segment's start)
        left = self.last
        start = time.perf_counter_ns()

        def tick(signum, frame):
            nonlocal left, start
            segments.append((time.perf_counter_ns() - start, left))
            left = sample()
            start = time.perf_counter_ns()

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            start = time.perf_counter_ns()
            result = step()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        segments.append((time.perf_counter_ns() - start, left))
        self.last = sample()
        rights = [at_start for _, at_start in segments[1:]] + [self.last]
        return result, REFERENCE_MS * sum(
            2 * ns / (at_start + at_end) for (ns, at_start), at_end in zip(segments, rights))
