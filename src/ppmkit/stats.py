"""Compare metric distributions between perspicuous and non-perspicuous
sessions: five-number boxplot summaries and pooled two-sample t-tests.

Boxplot quartiles are Tukey hinges (medians of the lower and upper halves,
the overall median belonging to both halves when the count is odd), with
whiskers at the most extreme points within 1.5 interquartile ranges of the
hinges. The t-test pools variances, so df = n1 + n2 - 2, and gets its
two-tailed p-value from the regularized incomplete beta function, written
out here as a continued fraction so the digits are the same everywhere.
statistics.median sorts and takes (a + b) / 2 alike on Pythons 3.10 to
3.13. Floats are added left to right by reduce, not by the builtin sum,
which Python 3.12 made compensated.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from functools import reduce
from operator import add, truediv
from statistics import median

from .eventlog import _record
from .metrics import METRIC_NAMES

#: Which conjecture each metric belongs to: C1 = structured modeling,
#: C2 = movement, C3 = speed.
METRIC_CONJECTURE = {
    "max_simul_block": "C1",
    "perc_num_block_as_a_whole": "C1",
    "avg_move_on_moved_elements": "C2",
    "perc_num_elements_with_moves": "C2",
    "tot_time": "C3",
    "tot_create_time": "C3",
}

GROUP_A = "perspicuous"
GROUP_B = "non-perspicuous"


@_record
class BoxplotSummary:
    median: float
    lower_hinge: float
    upper_hinge: float
    mean: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]
    n: int


def boxplot_summary(values: list[float]) -> BoxplotSummary:
    if not values:
        raise ValueError("boxplot needs at least one value")
    xs = sorted(float(v) for v in values)
    n = len(xs)
    lower = xs[: (n + 1) // 2]
    upper = xs[n // 2 :]
    lo_hinge = median(lower)
    hi_hinge = median(upper)
    iqr = hi_hinge - lo_hinge
    fence_low = lo_hinge - 1.5 * iqr
    fence_high = hi_hinge + 1.5 * iqr
    inside = [x for x in xs if fence_low <= x <= fence_high]
    return BoxplotSummary(
        median=median(xs),
        lower_hinge=lo_hinge,
        upper_hinge=hi_hinge,
        mean=reduce(add, xs, 0.0) / n,
        whisker_low=inside[0],
        whisker_high=inside[-1],
        outliers=tuple(x for x in xs if x < fence_low or x > fence_high),
        n=n,
    )


def _betacf(a: float, b: float, x: float) -> float:
    # Lentz's continued fraction for the incomplete beta, standard form.
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        # step m applies its even coefficient, then its odd one
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), accurate to well under 1e-10 on the t-test domain."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_tailed_p(t: float, df: int) -> float:
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


@_record
class TTestResult:
    t_value: float
    df: int
    p_value: float
    group_sizes: tuple[int, int]
    group_means: tuple[float, float]
    group_variances: tuple[float, float]


def t_test(group_a: list[float], group_b: list[float]) -> TTestResult:
    """Pooled-variance two-sample t-test, two-tailed."""
    n1, n2 = len(group_a), len(group_b)
    if n1 < 2 or n2 < 2:
        raise ValueError(f"each group needs at least 2 values, got {n1} and {n2}")
    xs = [float(v) for v in group_a]
    ys = [float(v) for v in group_b]
    mean_a = reduce(add, xs, 0.0) / n1
    mean_b = reduce(add, ys, 0.0) / n2
    ss_a = reduce(add, ((v - mean_a) ** 2 for v in xs), 0.0)
    ss_b = reduce(add, ((v - mean_b) ** 2 for v in ys), 0.0)
    df = n1 + n2 - 2
    pooled = (ss_a + ss_b) / df
    if pooled == 0.0:
        raise ValueError("degenerate samples: pooled variance is zero")
    t = (mean_a - mean_b) / math.sqrt(pooled * (n1 + n2) / (n1 * n2))
    return TTestResult(
        t_value=t,
        df=df,
        p_value=t_two_tailed_p(t, df),
        group_sizes=(n1, n2),
        group_means=(mean_a, mean_b),
        group_variances=(ss_a / (n1 - 1), ss_b / (n2 - 1)),
    )


@_record
class MetricComparison:
    metric: str
    conjecture: str
    group_a: BoxplotSummary
    group_b: BoxplotSummary
    test: TTestResult
    significant: bool  # p < 0.05


@_record
class GroupComparison:
    group_a_size: int
    group_b_size: int
    rows: tuple[MetricComparison, ...]

    def to_dict(self) -> dict:
        return {
            "groups": {
                "a": {"label": GROUP_A, "sessions": self.group_a_size},
                "b": {"label": GROUP_B, "sessions": self.group_b_size},
            },
            "metrics": [asdict(row) for row in self.rows],
        }


def compare_groups(reports, exclude_unknown: bool = False,
                   metrics: tuple[str, ...] = METRIC_NAMES) -> GroupComparison:
    """Split session reports by perspicuity and t-test each metric.

    Sessions whose verdict hit the state cap can be dropped with
    exclude_unknown. Metric values that are not applicable for a session
    are dropped per metric, never the whole session.
    """
    group_a, group_b = [], []  # one pass, one stage read per report
    for r in reports:
        stage = r.verdict.stage
        if not (exclude_unknown and stage == "StateSpaceExceeded"):
            (group_a if stage == "Sound" else group_b).append(r)  # Sound: perspicuous
    if not group_a:
        raise ValueError(f"group {GROUP_A} is empty")
    if not group_b:
        raise ValueError(f"group {GROUP_B} is empty")

    if not metrics:
        raise ValueError("no metric to compare")
    for name in metrics:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r}")

    rows = []
    for name in metrics:
        # float(v), in a third of the time: float(Fraction) goes through numbers.Rational
        values_a = [truediv(*v.as_integer_ratio())
                    for r in group_a if (v := getattr(r.metrics, name)) is not None]
        values_b = [truediv(*v.as_integer_ratio())
                    for r in group_b if (v := getattr(r.metrics, name)) is not None]
        if len(values_a) < 2 or len(values_b) < 2:
            raise ValueError(
                f"metric {name}: need at least 2 applicable values per group, "
                f"got {len(values_a)} ({GROUP_A}) and {len(values_b)} ({GROUP_B})"
            )
        test = t_test(values_a, values_b)
        rows.append(
            MetricComparison(
                metric=name,
                conjecture=METRIC_CONJECTURE[name],
                group_a=boxplot_summary(values_a),
                group_b=boxplot_summary(values_b),
                test=test,
                significant=test.p_value < 0.05,
            )
        )
    return GroupComparison(
        group_a_size=len(group_a),
        group_b_size=len(group_b),
        rows=tuple(rows),
    )


def render_table(comparison: GroupComparison) -> str:
    """Plain-text comparison table, one row per metric."""
    header = ("Conjecture", "Metric", "T-value", "df", "P-value", "")
    body = [
        (
            row.conjecture,
            row.metric,
            f"{row.test.t_value:.3f}",
            str(row.test.df),
            f"{row.test.p_value:.4f}",
            "*" if row.significant else "",
        )
        for row in comparison.rows
    ]
    widths = [
        max(len(header[k]), *(len(r[k]) for r in body)) for k in range(len(header))
    ]
    lines = [
        f"groups: {GROUP_A} n={comparison.group_a_size}, "
        f"{GROUP_B} n={comparison.group_b_size}",
        "  ".join(h.ljust(widths[k]) for k, h in enumerate(header)).rstrip(),
    ]
    for r in body:
        lines.append("  ".join(c.ljust(widths[k]) for k, c in enumerate(r)).rstrip())
    lines.append("(*) statistically significant at the 95% confidence level")
    return "\n".join(lines) + "\n"
