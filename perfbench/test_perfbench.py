"""Self-test of the benchmark: generators, known answers, tail rule, probes.

    python3 -m pytest -q perfbench

The generator test classifies every session of every workload on the
default seed and one other, so it takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import ppmkit  # noqa: E402
import probes  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "n, percentile, rank",
    [
        (11, 100 / 11, 1),  # the smallest sample has exactly 10 beyond it
        (12, 200 / 12, 2),
        (20, 50.0, 10),
        (100, 90.0, 90),
        (1000, 99.0, 990),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile, rank):
    samples = [float(v) for v in range(n, 0, -1)]  # n..1, unsorted on purpose
    got_percentile, value, got_n = summary.tail(samples)
    assert got_n == n
    assert got_percentile == pytest.approx(percentile)
    assert value == rank
    assert sum(1 for v in samples if v > value) == summary.TAIL_BEYOND


def test_tail_counts_tied_samples_by_rank():
    samples = [1.0] * 5 + [2.0] * 10
    assert summary.tail(samples) == (100 * 5 / 15, 1.0, 15)
    samples = [1.0] * 4 + [2.0] * 11
    assert summary.tail(samples) == (100 * 5 / 15, 2.0, 15)


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        summary.tail([1.0] * 10)


def test_passes_run_at_least_the_minimum():
    passes = summary.Passes(0, 3)
    assert list(passes) == [0, 1, 2]
    assert passes.count == 3


def test_meter_scales_the_reference_task_and_restores_the_alarm_handler():
    handler = signal.getsignal(signal.SIGALRM)
    meter = reference.Meter()
    calls = 400  # long enough for the timer to sample during the step
    _, ms = meter.measure(lambda: [reference.reference() for _ in range(calls)])
    # The step is the reference task itself, so it reads about calls * REFERENCE_MS.
    assert 0.5 < ms / (calls * reference.REFERENCE_MS) < 2
    assert signal.getsignal(signal.SIGALRM) is handler


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
@pytest.mark.parametrize("seed", [7, 3])
def test_generated_logs_parse_and_meet_their_answers(workload, seed):
    sessions = workloads.GENERATORS[workload](seed)
    reports = []
    for s in sessions:
        log = ppmkit.parse_log(s.csv_text, session_id=s.session_id)
        report = ppmkit.classify_session(log)
        rows = ppmkit.render_ppmchart(ppmkit.expand_reconnect(log)).count(checks.ROW_MARK)
        assert checks.check(s, report, rows) is None
        reports.append(report)
    assert checks.compare(ppmkit, reports) == checks.expected_groups(reports)


def test_workloads_exercise_their_stages():
    rework = workloads.rework(7)
    assert any("RECONNECT_EDGE" in s.csv_text for s in rework)
    assert any("DELETE_XOR" in s.csv_text or "DELETE_AND" in s.csv_text for s in rework)
    assert sum(s.answer.stages != ("Sound",) for s in rework) > len(rework) / 2
    assert not any("RECONNECT_EDGE" in s.csv_text for s in workloads.cohort(7))
    assert [s.answer.blocks for s in workloads.xor_chain(7)] == list(workloads.XOR_CHAIN_SIZES)
    undecided = [s for s in workloads.and_wide(7) if len(s.answer.stages) > 1]
    assert [s.session_id for s in undecided] == ["and_wide_7_35_w9"]
    for generate in workloads.GENERATORS.values():
        assert len(generate(7)) > summary.TAIL_BEYOND


def test_inputs_depend_only_on_the_seed():
    for generate in workloads.GENERATORS.values():
        assert workloads.digest(generate(7)) == workloads.digest(generate(7))
        assert workloads.digest(generate(7)) != workloads.digest(generate(8))


def test_probe_with_changed_signature_is_reported_missing():
    # A library whose detect_blocks no longer takes the model first.
    changed = types.SimpleNamespace(**{n: getattr(ppmkit, n) for n in ppmkit.__all__})
    changed.detect_blocks = lambda log: ppmkit.detect_blocks(ppmkit.replay(log), log)
    session = workloads.xor_chain(7)[0]
    log = ppmkit.parse_log(session.csv_text, session_id=session.session_id)
    spans = probes.Spans()
    rows = probes._layer_probes(changed, spans, session.session_id, None, log)
    assert rows == session.answer.rows
    assert set(spans.missing) == {"blocks.detect_blocks", "metrics.compute_session_metrics"}
    values = probes._summarise(spans, passes=1)
    assert values["blocks.detect_ms"]["value"] is None
    assert values["blocks.found"]["value"] is None
    assert values["soundness.states_explored"]["value"] > 0


def test_run_refuses_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cohort", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in probes.LAYER_METRICS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)


def test_compare_refuses_runs_with_different_inputs(tmp_path):
    def saved(digest):
        detail = {"workload": "cohort", "seed": 1, "input_sha256": digest}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"session_ms_p50": {"value": 1.0, "unit": "ms"}}}
        return json.dumps({"detail": detail}) + "\n" + json.dumps(result) + "\n"

    (tmp_path / "a").write_text(saved("a" * 64))
    (tmp_path / "b").write_text(saved("b" * 64))

    def compare(base, new):
        return subprocess.run([sys.executable, str(HERE / "compare.py"), str(base), str(new)],
                              capture_output=True, text=True, timeout=60)

    assert compare(tmp_path / "a", tmp_path / "a").returncode == 0
    refused = compare(tmp_path / "a", tmp_path / "b")
    assert refused.returncode == 1
    assert "REFUSED" in refused.stdout
