"""Pass schedule and order statistics used by the benchmark's metrics."""

from __future__ import annotations

import statistics
import time

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


class Passes:
    """Pass numbers 0, 1, ... until `seconds` have gone by since the first
    pass began, and at least `minimum` of them. `count` is how many ran."""

    def __init__(self, seconds: float, minimum: int):
        self.seconds = seconds
        self.minimum = minimum
        self.count = 0

    def __iter__(self):
        deadline = time.perf_counter() + self.seconds
        while self.count < self.minimum or time.perf_counter() < deadline:
            yield self.count
            self.count += 1


def median(values: list[float]) -> float:
    return statistics.median(values)


def best_ms(samples_ns: list[list[int]]) -> list[float]:
    """Each session's fastest sample in ms; sessions that never ran are left out."""
    return [min(ns) / 1e6 for ns in samples_ns if ns]


def per_session(samples: list[list[float]]) -> list[float]:
    """Each session's median sample; sessions that never ran are left out.

    The samples are scaled to the reference speed (see reference.py), so
    the median is the session's typical time; a sample slowed on its own
    does not move it.
    """
    return [statistics.median(x) for x in samples if x]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    With the n samples sorted ascending, the sample at 1-based rank r has
    n - r samples beyond it, so the answer is rank r = n - TAIL_BEYOND,
    reported as percentile 100 * r / n. Returns (percentile, value, n);
    fewer than TAIL_BEYOND + 1 samples have no such percentile.
    """
    n = len(samples)
    rank = n - TAIL_BEYOND
    if rank < 1:
        raise ValueError(f"a tail needs at least {TAIL_BEYOND + 1} samples, got {n}")
    return 100.0 * rank / n, sorted(samples)[rank - 1], n
