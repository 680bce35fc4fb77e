"""Command-line entry point.

Subcommands mirror the library: parse and replay logs, compute metrics,
classify sessions, draw charts, run the group statistics, and generate
synthetic cohorts. Machine output is JSON (or CSV/SVG where noted) on
stdout or --out; everything human goes to stderr. Exit codes: 0 ok,
1 validation or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .blocks import detect_blocks
from .chart import PPMChartSpec, render_ppmchart
from .classify import SessionReport, classify_model, classify_session, session_json
from .eventlog import (
    EventKind,
    EventLog,
    LogFormatError,
    expand_reconnect,
    format_timestamp,
    parse_log,
    parse_timestamp,
    serialize_log,
)
from .metrics import METRIC_NAMES, compute_session_metrics
from .model import ProcessModel
from .replay import replay, replay_until
from .simulate import PROFILES, simulate_cohort
from .soundness import DEFAULT_MAX_STATES
from .stats import compare_groups, render_table

# The failure list of a log-directory run, kept beside the reports
ERRORS_FILE = "errors.json"

def _read_log(path: str) -> EventLog:
    p = Path(path)
    try:
        return parse_log(p.read_bytes(), session_id=p.stem)
    except LogFormatError as exc:
        raise ValueError(f"{p}: {exc}") from None


def _load_json(path: Path, from_json):
    try:
        return from_json(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dump(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def _cmd_parse(args) -> int:
    log = _read_log(args.log)
    if args.out:
        Path(args.out).write_text(serialize_log(log), encoding="utf-8")
        return 0
    objects = {e.object_id for e in log.events}
    summary = {
        "session_id": log.session_id,
        "events": len(log.events),
        "objects": len(objects),
        "reconnect_events": sum(1 for e in log.events if e.kind is EventKind.RECONNECT_EDGE),
        "first_timestamp": format_timestamp(log.events[0].timestamp) if log.events else None,
        "last_timestamp": format_timestamp(log.events[-1].timestamp) if log.events else None,
    }
    sys.stdout.write(_dump(summary))
    return 0


def _cmd_replay(args) -> int:
    log = _read_log(args.log)
    if args.at is not None:
        model = replay_until(log, args.at)
    elif args.at_time is not None:
        model = replay_until(log, parse_timestamp(args.at_time))
    else:
        model = replay(log)
    _write_or_print(model.to_json() + "\n", args.out)
    return 0


def _session_payload(log: EventLog) -> str:
    expanded = expand_reconnect(log)  # once; each stage's own expansion then returns it
    blocks = detect_blocks(replay(expanded), expanded)
    return session_json(log.session_id, compute_session_metrics(expanded, blocks), blocks)


def _run_per_log(args, render) -> int:
    if Path(args.log).is_dir():
        if not args.out:
            raise ValueError("--out directory is required with a log directory")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = sorted(Path(args.log).glob("*.csv"))
        if not paths:
            raise ValueError(f"no .csv logs in {args.log}")
        errors_path = out_dir / ERRORS_FILE
        errors_path.unlink(missing_ok=True)  # the failure list of an earlier run
        errors = []
        for p in paths:
            report_path = out_dir / f"{p.stem}.json"
            try:
                if report_path == errors_path:
                    raise ValueError(f"its report would overwrite {ERRORS_FILE}")
                text = render(parse_log(p.read_bytes(), session_id=p.stem))
            except (ValueError, OSError) as exc:
                errors.append({"file": p.name, "error": str(exc)})
                continue
            report_path.write_text(text, encoding="utf-8")
        if errors:
            errors_path.write_text(_dump(errors), encoding="utf-8")
            raise ValueError(f"{len(errors)} of {len(paths)} logs failed")
        return 0
    log = _read_log(args.log)
    _write_or_print(render(log), args.out)
    return 0


def _cmd_metrics(args) -> int:
    return _run_per_log(args, _session_payload)


def _cmd_classify(args) -> int:
    if args.max_states < 1:
        raise ValueError(f"--max-states must be >= 1, got {args.max_states}")
    if args.model is not None:
        model = _load_json(Path(args.model), ProcessModel.from_json)
        verdict = classify_model(model, max_states=args.max_states)
        _write_or_print(verdict.to_json(), args.out)
        return 0

    def render(log: EventLog) -> str:
        return classify_session(log, max_states=args.max_states).to_json()

    return _run_per_log(args, render)


def _cmd_chart(args) -> int:
    log = _read_log(args.log)
    spec = PPMChartSpec(window=args.window, width=args.width, height=args.height)
    spec.colors.update((key, getattr(args, f"color_{key}")) for key in spec.colors)
    _write_or_print(render_ppmchart(log, spec), args.out)
    return 0


def _cmd_stats(args) -> int:
    report_dir = Path(args.reports)
    paths = sorted(p for p in report_dir.glob("*.json") if p.name != ERRORS_FILE)
    if not paths:
        raise ValueError(f"no .json reports in {args.reports}")
    reports = [_load_json(p, SessionReport.from_json) for p in paths]
    metrics = METRIC_NAMES if args.metric == "all" else (args.metric,)
    comparison = compare_groups(
        reports, exclude_unknown=args.exclude_unknown, metrics=metrics
    )
    if args.format == "json":
        _write_or_print(_dump(comparison.to_dict()), args.out)
    else:
        _write_or_print(render_table(comparison), args.out)
    return 0


def _cmd_simulate(args) -> int:
    profile = PROFILES[args.profile]
    logs = simulate_cohort(profile, args.sessions, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for log in logs:
        (out_dir / f"{log.session_id}.csv").write_text(
            serialize_log(log), encoding="utf-8"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppmkit",
        description="Analyze how a process model was modeled, event by event.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a log; write canonical CSV or a summary")
    p.add_argument("--log", required=True, help="CSV event log")
    p.add_argument("--out", help="write canonical CSV here instead of a summary")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("replay", help="fold a log into a model (JSON)")
    p.add_argument("--log", required=True)
    stop = p.add_mutually_exclusive_group()
    stop.add_argument("--at", type=int, help="stop after this seq number")
    stop.add_argument("--at-time", help="stop after this timestamp")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("metrics", help="session metrics and detected blocks")
    p.add_argument("--log", required=True, help="CSV log or a directory of logs")
    p.add_argument("--out", help="output file, or directory for a log directory")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("classify", help="full session report with perspicuity verdict")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--log", help="CSV log or a directory of logs")
    source.add_argument("--model", help="classify a model JSON instead of a session")
    p.add_argument("--out")
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES,
                   help="cap on the markings the soundness check explores")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("chart", help="render a session as a dotted chart (SVG)")
    p.add_argument("--log", required=True)
    p.add_argument("--out")
    chart = PPMChartSpec()
    p.add_argument("--window", type=float, default=chart.window, help="seconds of chart width")
    p.add_argument("--width", type=float, default=chart.width)
    p.add_argument("--height", type=float, default=chart.height)
    for key, color in chart.colors.items():
        p.add_argument(f"--color-{key}", default=color)
    p.set_defaults(func=_cmd_chart)

    p = sub.add_parser("stats", help="compare metric distributions between groups")
    p.add_argument("--reports", required=True, help="directory of session report JSON")
    p.add_argument("--exclude-unknown", action="store_true",
                   help="drop sessions whose soundness check hit the state cap")
    p.add_argument("--metric", default="all", choices=("all",) + METRIC_NAMES)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("simulate", help="generate synthetic session logs")
    p.add_argument("--profile", required=True, choices=sorted(PROFILES))
    p.add_argument("--sessions", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="directory for the CSV logs")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
