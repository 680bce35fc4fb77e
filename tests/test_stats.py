import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import t_p_value
from ppmkit.classify import PerspicuityVerdict, SessionReport
from ppmkit.metrics import METRIC_NAMES, SessionMetrics
from ppmkit.normalize import NormalizationOutcome
from ppmkit.soundness import SoundnessReport, Violation
from ppmkit.stats import (
    GROUP_A,
    GROUP_B,
    METRIC_CONJECTURE,
    boxplot_summary,
    compare_groups,
    regularized_incomplete_beta,
    render_table,
    t_test,
    t_two_tailed_p,
)


class TestBoxplot:
    def test_odd_count_median_in_both_halves(self):
        s = boxplot_summary([1, 2, 3, 4, 100])
        assert s.median == 3.0
        assert (s.lower_hinge, s.upper_hinge) == (2.0, 4.0)
        assert (s.whisker_low, s.whisker_high) == (1.0, 4.0)
        assert s.outliers == (100.0,)
        assert s.n == 5

    def test_even_count_hinges(self):
        s = boxplot_summary(list(range(1, 9)))
        assert (s.lower_hinge, s.upper_hinge) == (2.5, 6.5)
        assert s.median == 4.5

    def test_single_value(self):
        s = boxplot_summary([7])
        assert s.median == s.lower_hinge == s.upper_hinge == 7.0
        assert s.outliers == ()

    def test_input_order_irrelevant(self):
        assert boxplot_summary([3, 1, 2]) == boxplot_summary([1, 2, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            boxplot_summary([])

    def test_mean_adds_left_to_right_on_every_python(self):
        # The builtin sum of Python 3.12+ compensates and would give 1/3.
        assert boxplot_summary([1e16, 1.0, -1e16]).mean == 0.0


class TestTTest:
    def test_pinned_example(self):
        # shifting a sample by one with unit-variance spacing gives t = -1
        result = t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert result.t_value == -1.0
        assert result.df == 8
        assert abs(result.p_value - 0.3466) <= 1e-4
        assert result.group_sizes == (5, 5)
        assert result.group_means == (3.0, 4.0)
        assert result.group_variances == (2.5, 2.5)

    def test_df_for_unequal_sizes(self):
        result = t_test([0.0, 1.0] * 27, [0.0, 2.0] * 24 + [1.0])
        assert result.group_sizes == (54, 49)
        assert result.df == 101

    def test_symmetric_swap_negates_t(self):
        a, b = [1.0, 2.0, 5.0], [0.5, 3.0, 3.5, 9.0]
        fwd, rev = t_test(a, b), t_test(b, a)
        assert fwd.t_value == -rev.t_value
        assert fwd.p_value == rev.p_value
        assert fwd.df == rev.df

    def test_small_groups_rejected(self):
        with pytest.raises(ValueError, match="at least 2 values, got 1 and 3"):
            t_test([1.0], [1.0, 2.0, 3.0])

    def test_constant_samples_rejected(self):
        with pytest.raises(ValueError, match="pooled variance is zero"):
            t_test([2.0, 2.0], [2.0, 2.0])

    def test_identical_means_give_t_zero(self):
        result = t_test([1.0, 3.0], [0.0, 4.0])
        assert result.t_value == 0.0
        assert result.p_value == 1.0


def _sum_of_squares(values):
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values)


@given(
    a=st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=12),
    b=st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=12),
    shift=st.floats(min_value=-10, max_value=10),
)
@settings(max_examples=80)
@example(a=[0.0, 0.0], b=[0.0, 6.38e-53], shift=1.0)
def test_t_shift_invariance(a, b, shift):
    try:
        base = t_test(a, b)
    except ValueError:
        return
    shifted_a, shifted_b = [v + shift for v in a], [v + shift for v in b]
    try:
        moved = t_test(shifted_a, shifted_b)
    except ValueError as err:
        # Shifting may round a tiny spread away; then the samples must
        # really have no spread left.
        assert "pooled variance is zero" in str(err)
        assert _sum_of_squares(shifted_a) + _sum_of_squares(shifted_b) == 0.0
        return
    assert math.isclose(base.t_value, moved.t_value, rel_tol=1e-7, abs_tol=1e-7)
    assert moved.df == base.df


@given(
    a=st.lists(st.integers(min_value=-100, max_value=100), min_size=2, max_size=10),
    b=st.lists(st.integers(min_value=-100, max_value=100), min_size=2, max_size=10),
    scale=st.floats(min_value=0.125, max_value=8),
)
@settings(max_examples=80)
def test_t_scale_invariance(a, b, scale):
    try:
        base = t_test(a, b)
    except ValueError:
        return
    scaled = t_test([v * scale for v in a], [v * scale for v in b])
    assert math.isclose(base.t_value, scaled.t_value, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
@pytest.mark.parametrize("df", [1, 2, 5, 30, 101, 200])
def test_p_value_against_quadrature(t, df):
    assert abs(t_two_tailed_p(t, df) - t_p_value(t, df)) < 1e-10


def test_p_value_limits():
    assert t_two_tailed_p(0.0, 10) == 1.0
    assert t_two_tailed_p(50.0, 10) < 1e-9


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1,1) is the identity
    assert math.isclose(regularized_incomplete_beta(1.0, 1.0, 0.37), 0.37,
                        rel_tol=1e-12)
    # symmetry: I_x(a,b) = 1 - I_{1-x}(b,a)
    lhs = regularized_incomplete_beta(3.5, 1.25, 0.6)
    rhs = 1.0 - regularized_incomplete_beta(1.25, 3.5, 0.4)
    assert math.isclose(lhs, rhs, rel_tol=1e-11)


# Soundness violations that put a repaired model's verdict at each stage.
STAGE_EVIDENCE = {
    "Sound": (),
    "Unsound": (Violation("DeadTransition", witness="t_a"),),
    "StateSpaceExceeded": (Violation("StateSpaceExceeded"),),
}


def make_report(session_id, perspicuous, *, stage=None, max_simul=1,
                perc_whole=Fraction(1), avg_move=Fraction(2),
                perc_moves=Fraction(1, 4), tot=Fraction(600),
                tot_create=Fraction(300)):
    metrics = SessionMetrics(
        max_simul_block=max_simul,
        perc_num_block_as_a_whole=perc_whole,
        avg_move_on_moved_elements=avg_move,
        perc_num_elements_with_moves=perc_moves,
        tot_time=tot,
        tot_create_time=tot_create,
    )
    if stage is None:
        stage = "Sound" if perspicuous else "Unsound"
    verdict = PerspicuityVerdict(
        normalization=NormalizationOutcome(model=None),
        soundness=SoundnessReport(STAGE_EVIDENCE[stage], 2),
    )
    return SessionReport(session_id=session_id, metrics=metrics, blocks=(),
                         verdict=verdict)


def sample_reports():
    # every metric varies inside each group, or the t-test would reject
    # the pooled variance as degenerate
    reports = [
        make_report(f"p{k}", True,
                    max_simul=k % 2,
                    perc_whole=Fraction(2 + k, 4),
                    avg_move=Fraction(2 + k, 2),
                    perc_moves=Fraction(1 + k, 10),
                    tot=Fraction(500 + 40 * k),
                    tot_create=Fraction(300 + 30 * k))
        for k in range(4)
    ]
    reports += [
        make_report(f"n{k}", False,
                    max_simul=2 + k,
                    perc_whole=Fraction(k, 4),
                    avg_move=Fraction(5 + k, 2),
                    perc_moves=Fraction(4 + k, 10),
                    tot=Fraction(900 + 40 * k),
                    tot_create=Fraction(500 + 30 * k))
        for k in range(3)
    ]
    return reports


def row(comparison, metric):
    """The comparison's row for `metric`."""
    return next(r for r in comparison.rows if r.metric == metric)


class TestCompareGroups:
    def test_splits_and_labels(self):
        cmp = compare_groups(sample_reports())
        groups = cmp.to_dict()["groups"]
        assert (groups["a"]["label"], groups["b"]["label"]) == (GROUP_A, GROUP_B)
        assert (cmp.group_a_size, cmp.group_b_size) == (4, 3)
        assert [r.metric for r in cmp.rows] == list(METRIC_NAMES)

    def test_conjecture_tags(self):
        cmp = compare_groups(sample_reports())
        assert row(cmp, "max_simul_block").conjecture == "C1"
        assert row(cmp, "avg_move_on_moved_elements").conjecture == "C2"
        assert row(cmp, "tot_time").conjecture == "C3"
        assert set(METRIC_CONJECTURE) == set(METRIC_NAMES)

    def test_direction_of_pinned_gap(self):
        cmp = compare_groups(sample_reports())
        tot = row(cmp, "tot_time")
        assert tot.test.t_value < 0  # non-perspicuous sessions took longer
        assert tot.test.group_means[0] < tot.test.group_means[1]

    def test_empty_groups_named(self):
        with pytest.raises(ValueError, match="group non-perspicuous is empty"):
            compare_groups([make_report("p", True), make_report("q", True)])
        with pytest.raises(ValueError, match="group perspicuous is empty"):
            compare_groups([make_report("n", False)])

    def test_empty_metric_list_rejected(self):
        with pytest.raises(ValueError, match="^no metric to compare$"):
            compare_groups(sample_reports(), metrics=())

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric 'speed'"):
            compare_groups(sample_reports(), metrics=("speed",))

    def test_exclude_unknown_drops_capped_sessions(self):
        reports = sample_reports()
        reports.append(make_report("x", False, stage="StateSpaceExceeded",
                                   tot=Fraction(5)))
        kept = compare_groups(reports, exclude_unknown=True)
        assert kept.group_b_size == 3
        included = compare_groups(reports)
        assert included.group_b_size == 4

    def test_none_values_dropped_per_metric(self):
        reports = sample_reports()
        reports[0] = make_report("p0", True, perc_whole=None)
        cmp = compare_groups(reports)
        assert row(cmp, "perc_num_block_as_a_whole").group_a.n == 3
        assert row(cmp, "tot_time").group_a.n == 4

    def test_too_few_applicable_values(self):
        reports = [
            make_report("p0", True, avg_move=None),
            make_report("p1", True, avg_move=None),
            make_report("p2", True, avg_move=None),
            make_report("n0", False),
            make_report("n1", False),
        ]
        with pytest.raises(ValueError, match="avg_move_on_moved_elements: need "
                                             "at least 2 applicable values"):
            compare_groups(reports, metrics=("avg_move_on_moved_elements",))

    def test_single_metric_selection(self):
        cmp = compare_groups(sample_reports(), metrics=("tot_time",))
        assert [r.metric for r in cmp.rows] == ["tot_time"]

    def test_to_dict_shape(self):
        d = compare_groups(sample_reports()).to_dict()
        assert d["groups"]["a"] == {"label": "perspicuous", "sessions": 4}
        assert len(d["metrics"]) == 6
        assert d["metrics"][0]["test"]["df"] == 5


class TestRenderTable:
    def test_structure(self):
        text = render_table(compare_groups(sample_reports()))
        lines = text.splitlines()
        assert lines[0] == "groups: perspicuous n=4, non-perspicuous n=3"
        assert lines[1].startswith("Conjecture  Metric")
        assert len(lines) == 2 + 6 + 1
        assert lines[-1] == "(*) statistically significant at the 95% confidence level"
        assert text.endswith("\n")

    def test_significance_stars(self):
        cmp = compare_groups(sample_reports())
        text = render_table(cmp)
        for row in cmp.rows:
            line = next(l for l in text.splitlines() if f" {row.metric} " in l + " ")
            assert line.rstrip().endswith("*") == row.significant

    def test_values_formatted(self):
        cmp = compare_groups(sample_reports(), metrics=("tot_time",))
        text = render_table(cmp)
        assert f"{cmp.rows[0].test.t_value:.3f}" in text
        assert f"{cmp.rows[0].test.p_value:.4f}" in text
