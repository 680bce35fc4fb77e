import json
import shlex
import shutil
from pathlib import Path

import pytest

from conftest import FIXTURES, UNREPLAYABLE_LOGS
from golden_cases import build
from ppmkit.chart import PPMChartSpec
from ppmkit.cli import build_parser, main
from ppmkit.eventlog import ObjectType, parse_log
from ppmkit.model import ProcessModel
from ppmkit.replay import replay, replay_until


DIAMOND = str(FIXTURES / "diamond.csv")
CHURN = str(FIXTURES / "churn.csv")
REWIRE = str(FIXTURES / "rewire.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus_run(capsys, tmp_path, command):
    """Run `command` over a log directory where bad.csv, which sorts first,
    fails; returns the output directory."""
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "bad.csv").write_text(Path(CHURN).read_text().replace(".000Z", "Z", 1))
    shutil.copy(DIAMOND, logs / "diamond.csv")
    shutil.copy(REWIRE, logs / "rewire.csv")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, "--log", str(logs), "--out", str(out_dir))
    assert code == 1
    assert out == ""
    assert err == "error: 1 of 3 logs failed\n"
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "diamond.json", "errors.json", "rewire.json"]
    assert json.loads((out_dir / "errors.json").read_text()) == [
        {"file": "bad.csv", "error": "bad timestamp '2010-11-15T10:00:00Z' at line 2"}]
    return out_dir


class TestParse:
    def test_summary(self, capsys):
        code, out, err = run(capsys, "parse", "--log", DIAMOND)
        assert code == 0
        data = json.loads(out)
        assert data == {
            "session_id": "diamond",
            "events": 20,
            "objects": 16,
            "reconnect_events": 0,
            "first_timestamp": "2010-11-15T10:00:00.000Z",
            "last_timestamp": "2010-11-15T10:01:35.000Z",
        }

    def test_reconnects_counted(self, capsys):
        _, out, _ = run(capsys, "parse", "--log", REWIRE)
        assert json.loads(out)["reconnect_events"] == 1

    def test_canonical_out(self, capsys, tmp_path):
        target = tmp_path / "canon.csv"
        code, out, _ = run(capsys, "parse", "--log", DIAMOND, "--out", str(target))
        assert code == 0
        assert out == ""
        original = Path(DIAMOND).read_text()
        assert target.read_text() == original  # fixture is already canonical

    def test_bad_log_exits_1_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(Path(CHURN).read_text().replace(
            "2,2010-11-15T10:00:10.000Z,CREATE_ACTIVITY",
            "2,2010-11-15T10:00:10.000Z,CONJURE_ACTIVITY"))
        code, out, err = run(capsys, "parse", "--log", str(bad))
        assert code == 1
        assert "error:" in err and "line 3" in err

    def test_flow_of_a_deleted_node_exits_1_with_line(self, capsys, tmp_path):
        found = tmp_path / "found.csv"
        found.write_text(UNREPLAYABLE_LOGS["bendpoint on cascaded flow"][0])
        code, out, err = run(capsys, "parse", "--log", str(found))
        assert (code, out) == (1, "")
        assert err == f"error: {found}: action on deleted object e at line 6\n"


class TestMalformedLog:
    """Input that is not UTF-8 or not CSV ends in one error line naming the
    file, never a traceback."""

    @pytest.mark.parametrize("command", ["parse", "classify", "metrics"])
    def test_field_over_csv_limit(self, capsys, tmp_path, command):
        big = tmp_path / "big.csv"
        big.write_text(Path(DIAMOND).read_text().replace(",report,", "," + "x" * 200_000 + ","))
        code, out, err = run(capsys, command, "--log", str(big))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {big}: malformed CSV: field larger than field limit")
        assert err.endswith(" at line 21\n") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["parse", "classify", "metrics"])
    def test_invalid_utf8(self, capsys, tmp_path, command):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(Path(DIAMOND).read_bytes().replace(b"report", b"r\xe9port"))
        code, out, err = run(capsys, command, "--log", str(bad))
        assert code == 1
        assert out == ""
        offset = Path(DIAMOND).read_bytes().index(b"report") + 1
        assert err.startswith(f"error: {bad}: not UTF-8 (byte {offset}: invalid continuation byte)")
        assert err.endswith(" at line 1\n") and err.count("\n") == 1


class TestReplay:
    def test_full(self, capsys):
        code, out, _ = run(capsys, "replay", "--log", DIAMOND)
        assert code == 0
        model = ProcessModel.from_json(out)
        assert len(model.nodes) == 8

    def test_at_seq(self, capsys):
        _, out, _ = run(capsys, "replay", "--log", DIAMOND, "--at", "3")
        model = ProcessModel.from_json(out)
        assert set(model.nodes) == {"s1", "a1"}

    def test_at_time(self, capsys):
        _, out, _ = run(capsys, "replay", "--log", DIAMOND,
                        "--at-time", "2010-11-15T10:00:10.000Z")
        assert set(ProcessModel.from_json(out).nodes) == {"s1", "a1"}

    def test_at_and_at_time_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["replay", "--log", DIAMOND, "--at", "3",
                  "--at-time", "2010-11-15T10:00:10.000Z"])
        assert exit_.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("at, ends", [("5", set()), ("6", {"x1"})])
    def test_at_counts_the_logs_own_seqs(self, capsys, tmp_path, at, ends):
        # Expansion turns the reconnect at seq 5 into seqs 5 and 6.
        log = tmp_path / "moved.csv"
        log.write_text(
            "seq,timestamp,event,object_id,object_type,x,y,label,source_id,target_id\n"
            "1,2010-11-15T10:00:00.000Z,CREATE_START_EVENT,s1,START_EVENT,60,200,,,\n"
            "2,2010-11-15T10:00:04.000Z,CREATE_ACTIVITY,a1,ACTIVITY,180,200,,,\n"
            "3,2010-11-15T10:00:08.000Z,CREATE_ACTIVITY,a2,ACTIVITY,300,200,,,\n"
            "4,2010-11-15T10:00:12.000Z,CREATE_EDGE,e1,EDGE,,,,s1,a1\n"
            "5,2010-11-15T10:00:16.000Z,RECONNECT_EDGE,e1,EDGE,,,,s1,a2\n"
            "6,2010-11-15T10:00:20.000Z,CREATE_END_EVENT,x1,END_EVENT,420,200,,,\n"
        )
        code, out, _ = run(capsys, "replay", "--log", str(log), "--at", at)
        assert code == 0
        model = ProcessModel.from_json(out)
        assert (model.edges["e1"].source, model.edges["e1"].target) == ("s1", "a2")
        assert set(model.nodes) == {"s1", "a1", "a2"} | ends

    def test_at_is_replay_until(self, capsys, rewire_log):
        code, out, _ = run(capsys, "replay", "--log", REWIRE, "--at", "10")
        assert code == 0
        assert ProcessModel.from_json(out) == replay_until(rewire_log, 10)

    def test_reconnects_expanded(self, capsys):
        code, out, _ = run(capsys, "replay", "--log", REWIRE)
        assert code == 0
        model = ProcessModel.from_json(out)
        assert model.edges["e2"].target == "a2"


class TestMetrics:
    def test_single_log(self, capsys):
        code, out, _ = run(capsys, "metrics", "--log", DIAMOND)
        assert code == 0
        data = json.loads(out)
        assert data["session_id"] == "diamond"
        assert data["metrics"]["avg_move_on_moved_elements"] == 1.5
        assert data["blocks"][0]["split"] == "g1"

    def test_directory_requires_out(self, capsys, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        shutil.copy(DIAMOND, logs / "diamond.csv")
        code, _, err = run(capsys, "metrics", "--log", str(logs))
        assert code == 1
        assert "--out directory is required" in err

    def test_directory_writes_per_session(self, capsys, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        shutil.copy(DIAMOND, logs / "diamond.csv")
        shutil.copy(CHURN, logs / "churn.csv")
        out_dir = tmp_path / "reports"
        code, _, _ = run(capsys, "metrics", "--log", str(logs),
                         "--out", str(out_dir))
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["churn.json", "diamond.json"]

    def test_directory_reports_every_good_log(self, capsys, tmp_path):
        out_dir = corpus_run(capsys, tmp_path, "metrics")
        _, single, _ = run(capsys, "metrics", "--log", DIAMOND)
        assert (out_dir / "diamond.json").read_text() == single

    @pytest.mark.parametrize("log", [DIAMOND, CHURN, REWIRE])
    def test_matches_classify_report(self, capsys, log):
        _, metrics_out, _ = run(capsys, "metrics", "--log", log)
        _, classify_out, _ = run(capsys, "classify", "--log", log)
        report = json.loads(classify_out)
        assert json.loads(metrics_out) == {
            "session_id": report["session_id"],
            "metrics": report["metrics"],
            "blocks": report["blocks"],
        }

    def test_empty_directory(self, capsys, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code, _, err = run(capsys, "metrics", "--log", str(empty),
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert "no .csv logs" in err


class TestClassify:
    def test_session(self, capsys):
        code, out, _ = run(capsys, "classify", "--log", DIAMOND)
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["perspicuous"] is True
        assert data["verdict"]["stage"] == "Sound"

    def test_model_json(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(replay(parse_log(
            Path(DIAMOND).read_text(), session_id="diamond")).to_json())
        code, out, _ = run(capsys, "classify", "--model", str(model_path))
        assert code == 0
        data = json.loads(out)
        assert data["perspicuous"] is True
        assert "session_id" not in data  # verdict only, no session wrapper

    def test_branch_id_meeting_a_task_id(self, capsys, tmp_path):
        # XOR split x with flow e1 and a task named x_e1: both translate to a
        # transition t_x_e1, and the task's takes the suffix _2.
        rows = ["1,2010-11-15T10:00:00.000Z,CREATE_START_EVENT,s,START_EVENT,0,0,,,",
                "2,2010-11-15T10:00:01.000Z,CREATE_XOR,x,XOR,1,0,,,",
                "3,2010-11-15T10:00:02.000Z,CREATE_ACTIVITY,x_e1,ACTIVITY,2,0,,,",
                "4,2010-11-15T10:00:03.000Z,CREATE_ACTIVITY,b,ACTIVITY,2,1,,,",
                "5,2010-11-15T10:00:04.000Z,CREATE_XOR,j,XOR,3,0,,,",
                "6,2010-11-15T10:00:05.000Z,CREATE_END_EVENT,end,END_EVENT,4,0,,,",
                "7,2010-11-15T10:00:06.000Z,CREATE_EDGE,e0,EDGE,,,,s,x",
                "8,2010-11-15T10:00:07.000Z,CREATE_EDGE,e1,EDGE,,,,x,x_e1",
                "9,2010-11-15T10:00:08.000Z,CREATE_EDGE,e2,EDGE,,,,x,b",
                "10,2010-11-15T10:00:09.000Z,CREATE_EDGE,e3,EDGE,,,,x_e1,j",
                "11,2010-11-15T10:00:10.000Z,CREATE_EDGE,e4,EDGE,,,,b,j",
                "12,2010-11-15T10:00:11.000Z,CREATE_EDGE,e5,EDGE,,,,j,end"]
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "clash.csv").write_text(Path(DIAMOND).read_text().splitlines()[0] + "\n"
                                        + "\n".join(rows) + "\n")
        shutil.copy(DIAMOND, logs / "diamond.csv")
        code, out, err = run(capsys, "classify", "--log", str(logs / "clash.csv"))
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"]["stage"] == "Sound"
        code, _, err = run(capsys, "classify", "--log", str(logs), "--out", str(tmp_path / "out"))
        assert (code, err) == (0, "")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "clash.json", "diamond.json"]

    def test_log_and_model_exclusive(self, capsys, tmp_path):
        model_path = tmp_path / "m.json"
        model_path.write_text(ProcessModel().to_json())
        with pytest.raises(SystemExit) as exit_:
            main(["classify", "--log", DIAMOND, "--model", str(model_path)])
        assert exit_.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_neither_input(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["classify"])
        assert exit_.value.code == 2
        assert "one of the arguments --log --model is required" in capsys.readouterr().err

    def test_max_states_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "--log", DIAMOND,
                           "--max-states", "1")
        assert code == 0
        assert json.loads(out)["verdict"]["stage"] == "StateSpaceExceeded"

    def test_max_states_below_one_over_a_log_directory(self, capsys, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        for src in (DIAMOND, CHURN, REWIRE):
            shutil.copy(src, logs)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "classify", "--log", str(logs),
                             "--out", str(out_dir), "--max-states", "0")
        assert code == 1
        assert out == ""
        assert err == "error: --max-states must be >= 1, got 0\n"
        assert not out_dir.exists()

    def test_max_states_below_one_with_a_model(self, capsys, tmp_path):
        # A mixed gateway: normalization rejects it before soundness runs.
        model = build(
            nodes=[("a", ObjectType.ACTIVITY), ("b", ObjectType.ACTIVITY),
                   ("g", ObjectType.XOR), ("c", ObjectType.ACTIVITY),
                   ("d", ObjectType.ACTIVITY)],
            edges=[("a", "g"), ("b", "g"), ("g", "c"), ("g", "d")],
        )
        model_path = tmp_path / "model.json"
        model_path.write_text(model.to_json())
        out_path = tmp_path / "verdict.json"
        code, out, err = run(capsys, "classify", "--model", str(model_path),
                             "--out", str(out_path), "--max-states", "-5")
        assert code == 1
        assert out == ""
        assert err == "error: --max-states must be >= 1, got -5\n"
        assert not out_path.exists()

    def test_model_node_without_id_exits_1(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"nodes": [{"type": "ACTIVITY"}]}))
        code, out, err = run(capsys, "classify", "--model", str(model_path))
        assert code == 1
        assert out == ""
        assert err == f"error: {model_path}: missing key 'id'\n"

    def test_model_nodes_of_wrong_type_exits_1(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"nodes": 5, "edges": []}))
        code, out, err = run(capsys, "classify", "--model", str(model_path))
        assert code == 1
        assert out == ""
        assert err == f"error: {model_path}: wrong value type: nodes must be a list, got 5\n"

    def test_model_numeric_id_exits_1(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"nodes": [{"id": 5, "type": "ACTIVITY"},
                                                    {"id": "a", "type": "ACTIVITY"}]}))
        code, out, err = run(capsys, "classify", "--model", str(model_path))
        assert code == 1
        assert out == ""
        assert err == (f"error: {model_path}: wrong value type: "
                       "node id must be a string, got 5\n")

    def test_directory_mode(self, capsys, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        shutil.copy(DIAMOND, logs / "diamond.csv")
        shutil.copy(REWIRE, logs / "rewire.csv")
        out_dir = tmp_path / "reports"
        code, _, _ = run(capsys, "classify", "--log", str(logs),
                         "--out", str(out_dir))
        assert code == 0
        report = json.loads((out_dir / "rewire.json").read_text())
        assert report["session_id"] == "rewire"
        assert not (out_dir / "errors.json").exists()

    def test_directory_reports_every_good_log(self, capsys, tmp_path):
        out_dir = corpus_run(capsys, tmp_path, "classify")
        for name in ("diamond", "rewire"):
            _, single, _ = run(capsys, "classify", "--log", str(FIXTURES / f"{name}.csv"))
            assert (out_dir / f"{name}.json").read_text() == single

    def test_directory_names_the_line_of_a_log_that_does_not_replay(self, capsys, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "found.csv").write_text(UNREPLAYABLE_LOGS["bendpoint on cascaded flow"][0])
        shutil.copy(DIAMOND, logs / "diamond.csv")
        shutil.copy(REWIRE, logs / "rewire.csv")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "classify", "--log", str(logs), "--out", str(out_dir))
        assert (code, err) == (1, "error: 1 of 3 logs failed\n")
        assert json.loads((out_dir / "errors.json").read_text()) == [
            {"file": "found.csv", "error": "action on deleted object e at line 6"}]
        for name in ("diamond", "rewire"):
            _, single, _ = run(capsys, "classify", "--log", str(FIXTURES / f"{name}.csv"))
            assert (out_dir / f"{name}.json").read_text() == single

    def test_log_named_errors_is_refused_not_overwritten(self, capsys, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "bad.csv").write_text("not a log\n")
        shutil.copy(DIAMOND, logs / "errors.csv")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "classify", "--log", str(logs),
                           "--out", str(out_dir))
        assert code == 1
        assert err == "error: 2 of 2 logs failed\n"
        assert [p.name for p in out_dir.iterdir()] == ["errors.json"]
        failures = json.loads((out_dir / "errors.json").read_text())
        assert [f["file"] for f in failures] == ["bad.csv", "errors.csv"]
        assert failures[1]["error"] == "its report would overwrite errors.json"

    def test_clean_rerun_removes_stale_failure_list(self, capsys, tmp_path):
        out_dir = corpus_run(capsys, tmp_path, "classify")
        (tmp_path / "logs" / "bad.csv").unlink()
        code, _, _ = run(capsys, "classify", "--log", str(tmp_path / "logs"),
                         "--out", str(out_dir))
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "diamond.json", "rewire.json"]


class TestChart:
    def test_svg_out(self, capsys, tmp_path):
        target = tmp_path / "chart.svg"
        code, _, _ = run(capsys, "chart", "--log", DIAMOND, "--out", str(target))
        assert code == 0
        svg = target.read_text()
        assert svg.startswith("<svg ")
        assert svg.count("<circle") == 20

    def test_custom_colors(self, capsys):
        _, out, _ = run(capsys, "chart", "--log", CHURN,
                        "--color-create", "#123456")
        assert 'fill="#123456"' in out

    def test_window_too_small(self, capsys):
        code, _, err = run(capsys, "chart", "--log", DIAMOND, "--window", "10")
        assert code == 1
        assert "pass a larger window" in err

    @pytest.mark.parametrize("flag", ["--window", "--width", "--height"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    def test_geometry_must_be_finite_and_positive(self, capsys, flag, value):
        code, out, err = run(capsys, "chart", "--log", DIAMOND, f"{flag}={value}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "finite and positive" in err

    def test_geometry_flags(self, capsys):
        _, out, _ = run(capsys, "chart", "--log", CHURN,
                        "--width", "300", "--height", "80")
        assert 'width="300.00"' in out
        assert 'height="80.00"' in out

    def test_id_xml_cannot_carry_is_refused(self, capsys, tmp_path):
        log = tmp_path / "control.csv"
        log.write_text(Path(CHURN).read_text().replace(",a1,", ",a\x01b,"))
        code, out, err = run(capsys, "chart", "--log", str(log))
        assert (code, out) == (1, "")
        assert err == ("error: object id 'a\\x01b' holds '\\x01', "
                       "which XML cannot carry\n")
        # JSON escapes the character, so the report path keeps the log.
        code, out, _ = run(capsys, "classify", "--log", str(log))
        assert code == 0
        assert json.loads(out)["session_id"] == "control"

    def test_color_xml_cannot_carry_is_refused(self, capsys):
        code, out, err = run(capsys, "chart", "--log", CHURN, "--color-move", "blue\x0b")
        assert (code, out) == (1, "")
        assert err == "error: color move 'blue\\x0b' holds '\\x0b', which XML cannot carry\n"


class TestSimulateAndStats:
    def prepare_reports(self, capsys, tmp_path, sessions=6):
        logs = tmp_path / "logs"
        for profile, seed in (("structured", 1), ("chaotic", 2)):
            code, _, _ = run(capsys, "simulate", "--profile", profile,
                             "--sessions", str(sessions), "--seed", str(seed),
                             "--out", str(logs))
            assert code == 0
        reports = tmp_path / "reports"
        code, _, _ = run(capsys, "classify", "--log", str(logs),
                         "--out", str(reports))
        assert code == 0
        return reports

    def test_stats_after_failing_corpus_run_reads_only_reports(self, capsys, tmp_path):
        clean = self.prepare_reports(capsys, tmp_path / "clean")
        _, expected, _ = run(capsys, "stats", "--reports", str(clean))
        logs = tmp_path / "clean" / "logs"
        (logs / "bad.csv").write_text("not a log\n")
        reports = tmp_path / "reports"
        code, _, err = run(capsys, "classify", "--log", str(logs),
                           "--out", str(reports))
        assert code == 1
        assert err == "error: 1 of 13 logs failed\n"
        assert (reports / "errors.json").exists()
        code, out, err = run(capsys, "stats", "--reports", str(reports))
        assert (code, err) == (0, "")
        assert out == expected

    def test_simulate_writes_one_csv_per_session(self, capsys, tmp_path):
        out = tmp_path / "d"
        code, _, _ = run(capsys, "simulate", "--profile", "structured",
                         "--sessions", "50", "--seed", "7", "--out", str(out))
        assert code == 0
        files = sorted(out.glob("*.csv"))
        assert len(files) == 50
        assert files[0].name == "structured_7_000.csv"
        assert files[-1].name == "structured_7_049.csv"

    def test_simulate_unknown_profile_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--profile", "frantic", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_stats_text(self, capsys, tmp_path):
        reports = self.prepare_reports(capsys, tmp_path)
        code, out, _ = run(capsys, "stats", "--reports", str(reports))
        assert code == 0
        assert out.startswith("groups: perspicuous n=")
        assert "tot_time" in out
        assert out.rstrip().endswith("95% confidence level")

    def test_stats_json_single_metric(self, capsys, tmp_path):
        reports = self.prepare_reports(capsys, tmp_path)
        code, out, _ = run(capsys, "stats", "--reports", str(reports),
                           "--metric", "tot_time", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [m["metric"] for m in data["metrics"]] == ["tot_time"]
        assert data["groups"]["a"]["label"] == "perspicuous"

    def test_stats_exclude_unknown_flag_accepted(self, capsys, tmp_path):
        reports = self.prepare_reports(capsys, tmp_path)
        code, _, _ = run(capsys, "stats", "--reports", str(reports),
                         "--exclude-unknown")
        assert code == 0

    def test_stats_empty_group_exits_1(self, capsys, tmp_path):
        logs = tmp_path / "logs"
        run(capsys, "simulate", "--profile", "structured", "--sessions", "4",
            "--seed", "1", "--out", str(logs))
        reports = tmp_path / "reports"
        run(capsys, "classify", "--log", str(logs), "--out", str(reports))
        code, _, err = run(capsys, "stats", "--reports", str(reports))
        assert code == 1
        assert "group non-perspicuous is empty" in err

    def test_stats_report_without_blocks_exits_1(self, capsys, tmp_path):
        reports = self.prepare_reports(capsys, tmp_path, sessions=2)
        broken = sorted(reports.glob("*.json"))[0]
        data = json.loads(broken.read_text())
        del data["blocks"]
        broken.write_text(json.dumps(data))
        code, out, err = run(capsys, "stats", "--reports", str(reports))
        assert code == 1
        assert out == ""
        assert err == f"error: {broken}: missing key 'blocks'\n"

    @pytest.mark.parametrize("mangle", [
        lambda data: {**data, "metrics": 3},
        lambda data: [1, 2],
        lambda data: {**data, "verdict": {**data["verdict"], "perspicuous": "no"}},
        lambda data: {**data, "metrics": {**data["metrics"], "max_simul_block": [1]}},
        lambda data: {**data, "metrics": {**data["metrics"], "max_simul_block": "7"}},
        lambda data: {**data, "metrics": {**data["metrics"], "tot_time": "911.859"}},
        lambda data: {**data, "metrics": {**data["metrics"], "tot_create_time": True}},
        lambda data: {**data, "metrics": {**data["metrics"], "tot_time": None}},
        lambda data: {**data, "verdict": {**data["verdict"], "soundness": {
            **data["verdict"]["soundness"], "states_explored": "many"}}},
        lambda data: {**data, "verdict": {**data["verdict"], "soundness": {
            **data["verdict"]["soundness"], "states_explored": True}}},
        lambda data: {**data, "verdict": {**data["verdict"], "soundness": {
            **data["verdict"]["soundness"],
            "violations": [{"kind": 5, "witness": None, "trace": None}]}}},
        lambda data: {**data, "verdict": {**data["verdict"], "normalization": {
            **data["verdict"]["normalization"], "rejected": "no"}}},
        lambda data: {**data, "verdict": {**data["verdict"], "normalization": {
            **data["verdict"]["normalization"], "reason": 5}}},
        lambda data: {**data, "verdict": {**data["verdict"], "normalization": {
            **data["verdict"]["normalization"],
            "applied_rules": [{"rule": 5, "nodes": ["g"]}]}}},
        lambda data: {**data, "verdict": {**data["verdict"], "normalization": {
            **data["verdict"]["normalization"],
            "applied_rules": [{"rule": "join", "nodes": "abc"}]}}},
        lambda data: {**data, "verdict": {**data["verdict"], "normalization": {
            **data["verdict"]["normalization"],
            "applied_rules": [{"rule": "join", "nodes": ["g", 7]}]}}},
        lambda data: {**data, "verdict": {**data["verdict"], "soundness": {
            **data["verdict"]["soundness"], "violations": [
                {"kind": "DeadlockNoCompletion", "witness": None, "trace": "xyz"}]}}},
        lambda data: {**data, "verdict": {**data["verdict"], "soundness": {
            **data["verdict"]["soundness"], "violations": [
                {"kind": "DeadlockNoCompletion", "witness": None, "trace": ["t", None]}]}}},
    ], ids=["metrics_is_number", "report_is_array", "perspicuous_is_string",
            "max_simul_block_is_array", "max_simul_block_is_string",
            "tot_time_is_string", "tot_create_time_is_bool", "tot_time_is_null",
            "states_explored_is_string", "states_explored_is_bool",
            "violation_kind_is_number", "rejected_is_string", "reason_is_number",
            "applied_rule_is_number", "applied_rule_nodes_is_string",
            "applied_rule_node_is_number", "violation_trace_is_string",
            "violation_trace_step_is_null"])
    def test_stats_report_of_wrong_type_exits_1(self, capsys, tmp_path, mangle):
        reports = self.prepare_reports(capsys, tmp_path, sessions=2)
        broken = sorted(reports.glob("*.json"))[0]
        broken.write_text(json.dumps(mangle(json.loads(broken.read_text()))))
        code, out, err = run(capsys, "stats", "--reports", str(reports))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {broken}: wrong value type: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind, witness", [
        *((kind, witness) for kind in ("DeadlockNoCompletion", "ImproperCompletion", "Unbounded")
          for witness in (3.5, [1, 2], {"p": True}, {"p": "x"}, [], {}, None, "p")),
        *(("DeadTransition", witness) for witness in (None, 5, ["t"], {"t": 1})),
        *(("NotWFStructured", witness) for witness in ([], "n", ["n", 5], {"n": 1}, None)),
        *(("StateSpaceExceeded", witness) for witness in ("x", 0, [], {})),
    ])
    def test_stats_report_with_witness_of_wrong_shape_exits_1(self, capsys, tmp_path,
                                                              kind, witness):
        # Each kind has one witness shape; the first report's first is a marking.
        reports = self.prepare_reports(capsys, tmp_path, sessions=2)
        broken = sorted(reports.glob("*.json"))[0]
        data = json.loads(broken.read_text())
        violation = data["verdict"]["soundness"]["violations"][0]
        assert violation["kind"] == "DeadlockNoCompletion"
        violation.update(kind=kind, witness=witness)
        broken.write_text(json.dumps(data))
        code, out, err = run(capsys, "stats", "--reports", str(reports))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {broken}: wrong value type: {kind} witness must be ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mangle, message", [
        (lambda v: v.update(stage="Bogus"), "unknown stage 'Bogus'"),
        (lambda v: v.update(stage="Sound", perspicuous=False),
         "perspicuous False does not match stage 'Sound'"),
        (lambda v: v.update(stage="Sound", perspicuous=True),
         "stage 'Sound' does not match 'Unsound' from its evidence"),
        (lambda v: v.update(stage="MixedGateway"),
         "stage 'MixedGateway' does not match 'Unsound' from its evidence"),
        (lambda v: v.update(stage="Sound", perspicuous=True, soundness=None),
         "soundness null does not match rejected False"),
        (lambda v: v.update(stage="Sound", perspicuous=True,
                            soundness={**v["soundness"], "verdict": "Sound"}),
         "soundness verdict 'Sound' does not match 'Unsound' from its violations"),
        (lambda v: v["soundness"].update(verdict="Maybe"),
         "soundness verdict 'Maybe' does not match 'Unsound' from its violations"),
        (lambda v: v.update(stage="StateSpaceExceeded"),
         "stage 'StateSpaceExceeded' does not match 'Unsound' from its evidence"),
        (lambda v: v["normalization"].update(reason="mixed gateway: g"),
         "rejected False does not match reason 'mixed gateway: g'"),
    ], ids=["unknown_stage", "perspicuous_against_stage", "unsound_relabelled_sound",
            "mixed_gateway_not_rejected", "sound_without_soundness",
            "sound_verdict_with_violations", "unknown_verdict", "capped_without_cap",
            "reason_not_rejected"])
    def test_stats_report_with_inconsistent_verdict_exits_1(self, capsys, tmp_path,
                                                            mangle, message):
        reports = self.prepare_reports(capsys, tmp_path, sessions=2)
        broken = sorted(reports.glob("*.json"))[0]
        data = json.loads(broken.read_text())
        assert data["verdict"]["stage"] == "Unsound"  # the mangles start from here
        mangle(data["verdict"])
        broken.write_text(json.dumps(data))
        code, out, err = run(capsys, "stats", "--reports", str(reports))
        assert code == 1
        assert out == ""
        assert err == f"error: {broken}: {message}\n"

    def test_stats_no_reports(self, capsys, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code, _, err = run(capsys, "stats", "--reports", str(empty))
        assert code == 1
        assert "no .json reports" in err

    def test_stats_unknown_metric_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["stats", "--reports", str(tmp_path), "--metric", "speed"])
        assert err.value.code == 2


class TestUsageErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["parse"])
        assert err.value.code == 2

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "parse", "--log", "no/such/file.csv")
        assert code == 1
        assert "error:" in err


def test_chart_defaults_are_the_specs():
    args = build_parser().parse_args(["chart", "--log", DIAMOND])
    spec = PPMChartSpec()
    assert (args.window, args.width, args.height) == (spec.window, spec.width, spec.height)
    assert {key: getattr(args, f"color_{key}") for key in spec.colors} == spec.colors


def test_readme_cli_lines_parse():
    """Every `ppmkit` line in README's CLI section is a valid command."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    commands = [shlex.split(line, comments=True)
                for line in section.splitlines() if line.startswith("ppmkit ")]
    assert len(commands) >= 14
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
