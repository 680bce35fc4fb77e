"""End-to-end acceptance gate.

Seven numbered checks, each printing its own PASS/FAIL line so a plain
pytest run shows the verdict per check. Tolerances are pinned here and
nowhere else: exact equality for rational metrics and the t statistic,
1e-4 against the published p-value, 1e-8 against the quadrature oracle,
0.01px on chart geometry, wall-clock budgets on the two bulk checks.
"""

import re
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from conftest import load_fixture
from golden_cases import GOLDEN_CASES, build
from oracles import brute_force_soundness, models_isomorphic, random_wfnet, t_p_value
from ppmkit.chart import PPMChartSpec, render_ppmchart
from ppmkit.classify import classify_session
from ppmkit.cli import main as cli_main
from ppmkit.eventlog import ObjectType as OT
from ppmkit.eventlog import expand_reconnect, serialize_log
from ppmkit.normalize import normalize
from ppmkit.simulate import PROFILES, default_template, simulate_cohort
from ppmkit.soundness import check_soundness
from ppmkit.stats import compare_groups, t_test
from ppmkit.wfnet import to_wfnet


def structured_templates():
    """Block-structured models the reduction decides: a 3-wide AND block,
    an AND block nested in an XOR branch, and an XOR loop with a redo task."""
    S, E, A, X, AND = OT.START_EVENT, OT.END_EVENT, OT.ACTIVITY, OT.XOR, OT.AND
    wide_and = build(
        [("s", S), ("f", AND), ("a", A), ("b", A), ("c", A), ("j", AND), ("e", E)],
        [("s", "f"), ("f", "a"), ("f", "b"), ("f", "c"), ("a", "j"), ("b", "j"),
         ("c", "j"), ("j", "e")],
    )
    and_in_xor = build(
        [("s", S), ("x1", X), ("f", AND), ("a", A), ("b", A), ("j", AND),
         ("c", A), ("x2", X), ("e", E)],
        [("s", "x1"), ("x1", "f"), ("f", "a"), ("f", "b"), ("a", "j"), ("b", "j"),
         ("j", "x2"), ("x1", "c"), ("c", "x2"), ("x2", "e")],
    )
    xor_loop = build(
        [("s", S), ("enter", X), ("a", A), ("leave", X), ("redo", A), ("e", E)],
        [("s", "enter"), ("enter", "a"), ("a", "leave"), ("leave", "redo"),
         ("redo", "enter"), ("leave", "e")],
    )
    return [wide_and, and_in_xor, xor_loop]


@contextmanager
def criterion(capsys, number, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number} ({name}): PASS")


def test_criterion_1_soundness_agrees_with_brute_force(capsys):
    with criterion(capsys, 1, "soundness vs brute force, 500 random nets"):
        started = time.perf_counter()
        seen_kinds = set()
        for seed in range(1, 501):
            net = random_wfnet(seed)
            report = check_soundness(net, max_states=500_000)
            assert report.verdict != "Unknown", f"seed {seed} hit the state cap"
            expected = brute_force_soundness(net)
            assert report.verdict == expected, (
                f"seed {seed}: {report.verdict} != {expected}"
            )
            seen_kinds.update(v.kind for v in report.violations)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"

        # the random family must exercise every failure mode
        for kind in ("NotWFStructured", "DeadlockNoCompletion",
                     "ImproperCompletion", "Unbounded"):
            assert kind in seen_kinds, f"no random net produced {kind}"

        # sound nets are vanishingly rare at that arc density, so agreement
        # on Sound is pinned with deterministic nets through both checkers
        sound_seen = 0
        nets = [to_wfnet(normalize(default_template()).model)]
        nets += [to_wfnet(normalize(case()[0]).model) for _, case in GOLDEN_CASES]
        nets += [to_wfnet(normalize(model).model) for model in structured_templates()]
        for net in nets:
            verdict = check_soundness(net, max_states=500_000).verdict
            assert verdict == brute_force_soundness(net)
            sound_seen += verdict == "Sound"
        assert sound_seen >= 2


def test_criterion_2_normalization_golden_models(capsys):
    with criterion(capsys, 2, "normalization golden models"):
        for name, case in GOLDEN_CASES:
            source, expected = case()
            outcome = normalize(source)
            assert not outcome.rejected, name
            assert models_isomorphic(outcome.model, expected, set(source.nodes)), (
                f"{name}: normalized model does not match the golden shape"
            )


def test_criterion_3_metric_fixtures_exact(capsys):
    expected = {
        "diamond": (1, Fraction(1), Fraction(3, 2), Fraction(1, 8),
                    Fraction(95), Fraction(75)),
        "churn": (0, None, Fraction(1), Fraction(1, 2),
                  Fraction(30), Fraction(10)),
        "rewire": (0, None, Fraction(2), Fraction(1, 7),
                   Fraction(36), Fraction(36)),
    }
    with criterion(capsys, 3, "hand-computed metric fixtures"):
        for stem, values in expected.items():
            m = classify_session(load_fixture(f"{stem}.csv")).metrics
            got = (m.max_simul_block, m.perc_num_block_as_a_whole,
                   m.avg_move_on_moved_elements, m.perc_num_elements_with_moves,
                   m.tot_time, m.tot_create_time)
            assert got == values, f"{stem}: {got} != {values}"
        assert classify_session(
            load_fixture("diamond.csv")
        ).metrics.avg_move_on_moved_elements == Fraction(3, 2)  # the 1.5 average


def test_criterion_4_t_test_reference_values(capsys):
    with criterion(capsys, 4, "t-test reference values"):
        result = t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert result.t_value == -1.0  # exactly, not approximately
        assert result.df == 8
        assert abs(result.p_value - 0.3466) <= 1e-4
        assert abs(result.p_value - t_p_value(result.t_value, 8)) <= 1e-8

        sizes = t_test([0.0, 1.0] * 27, [0.0, 2.0] * 24 + [1.0])
        assert sizes.group_sizes == (54, 49)
        assert sizes.df == 101


def test_criterion_5_cohort_separation(capsys):
    with criterion(capsys, 5, "seed-7 cohort separation"):
        started = time.perf_counter()
        structured = simulate_cohort(PROFILES["structured"], 50, seed=7)
        chaotic = simulate_cohort(PROFILES["chaotic"], 50, seed=7)
        reports = [classify_session(log) for log in structured + chaotic]

        s_persp = sum(r.verdict.perspicuous for r in reports[:50])
        c_nonpersp = sum(not r.verdict.perspicuous for r in reports[50:])
        assert s_persp >= 45, f"only {s_persp}/50 structured sessions perspicuous"
        assert c_nonpersp >= 30, f"only {c_nonpersp}/50 chaotic sessions non-perspicuous"

        comparison = compare_groups(reports)
        for row in comparison.rows:
            assert row.test.p_value < 0.05, (
                f"{row.metric}: p={row.test.p_value:.4f} not significant"
            )
        # direction checks, group a being the perspicuous sessions
        t_value = {row.metric: row.test.t_value for row in comparison.rows}
        assert t_value["max_simul_block"] < 0
        assert t_value["perc_num_block_as_a_whole"] > 0
        assert t_value["tot_time"] < 0
        assert t_value["tot_create_time"] < 0

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"


def test_criterion_6_chart_contract(capsys):
    dot = re.compile(r'<circle cx="([0-9.]+)"')
    with criterion(capsys, 6, "chart geometry and determinism"):
        for stem in ("diamond", "churn", "rewire"):
            log = expand_reconnect(load_fixture(f"{stem}.csv"))
            spec = PPMChartSpec()
            svg = render_ppmchart(log, spec)
            objects = {ev.object_id for ev in log.events}
            assert svg.count('<g class="row"') == len(objects), stem
            xs = [float(x) for x in dot.findall(svg)]
            assert len(xs) == len(log.events), stem
            assert abs(max(xs) - spec.width) <= 0.01, stem
            assert render_ppmchart(log, spec) == svg, stem


def test_criterion_7_reruns_byte_identical(capsys, tmp_path):
    with criterion(capsys, 7, "simulate and classify reruns"):
        for name, seed in (("structured", 7), ("chaotic", 11)):
            first = simulate_cohort(PROFILES[name], 5, seed=seed)
            second = simulate_cohort(PROFILES[name], 5, seed=seed)
            assert [serialize_log(a) for a in first] == \
                [serialize_log(b) for b in second]

        logs = tmp_path / "logs"
        code = cli_main(["simulate", "--profile", "chaotic", "--sessions", "4",
                         "--seed", "3", "--out", str(logs)])
        assert code == 0
        again = tmp_path / "logs2"
        assert cli_main(["simulate", "--profile", "chaotic", "--sessions", "4",
                         "--seed", "3", "--out", str(again)]) == 0
        for a, b in zip(sorted(logs.iterdir()), sorted(again.iterdir())):
            assert a.name == b.name
            assert a.read_bytes() == b.read_bytes()

        run_a, run_b = tmp_path / "r1", tmp_path / "r2"
        assert cli_main(["classify", "--log", str(logs), "--out", str(run_a)]) == 0
        assert cli_main(["classify", "--log", str(logs), "--out", str(run_b)]) == 0
        names_a = sorted(p.name for p in run_a.iterdir())
        names_b = sorted(p.name for p in run_b.iterdir())
        assert names_a == names_b == sorted(f"{p.stem}.json" for p in logs.iterdir())
        for name in names_a:
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes()
