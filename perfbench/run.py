"""Corpus-classify benchmark: measure one workload in this process.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cohort --seed 7 --seconds 15 --trace 0

The run generates the workload's session logs from the seed and writes them
as CSV files. It then times every session along the path `ppmkit classify`
takes per file: read the CSV, parse_log, classify_session, to_json, write
the report. It also times the `chart` path (expand_reconnect +
render_ppmchart) and the `stats` path (SessionReport.from_json on every
report, then compare_groups). Every output is checked against the answer
the generator knows, and report bytes must repeat across passes.

With --trace 1 the run instead times the calls into each module's public
functions (see probes.py) and reports per-layer metrics.

A run makes passes over the workload until --seconds have gone by. Every
timed step (one session's classify path, its chart path, one stats step,
one set-up) is scaled to the speed of a fixed reference task timed before,
after and, in a longer step, during it (see reference.py), so the
end-to-end times read as milliseconds or seconds on the reference machine
however fast the shared host runs at the moment. Each session's time is
the median of its scaled samples over the passes; the median, tail and
rate are taken over those per-session times. The per-layer metrics of
--trace 1 are not scaled.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. `failed` counts session attempts that
raised, missed their known stage, block count or chart rows, or whose
report bytes changed between passes. A StateSpaceExceeded verdict where the
net has more markings than the default cap is an accepted, undecided
answer, not a failure. The line before it holds the details: seed, sha256
of the generated CSV bytes, tail percentile and sample count, failed and
undecided shares, and the first errors.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from checks import ROW_MARK, STATS_REPS, Tally, check, compare, expected_groups  # noqa: E402

# A run makes passes over the workload until --seconds have gone by. Report
# bytes are compared between passes, and each session's time is the median
# of at least three samples; a traced run makes at least one pass.
MIN_PASSES = 3
SETUP_REPS = 11

END_TO_END_UNITS = {
    "session_ms_p50": "ms",
    "session_ms_tail": "ms",
    "sessions_per_s": "1/s",
    "chart_ms_p50": "ms",
    "stats_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_library():
    """Import ppmkit from the checkout's src/; None when it is not there."""
    if not (SRC / "ppmkit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import ppmkit

    return ppmkit


def setup(workload: str, seed: int, log_dir: Path):
    """Generate and write the inputs SETUP_REPS times.

    Returns (sessions, csv paths, scaled seconds per set-up, distinct digests).
    """
    generate = workloads.GENERATORS[workload]

    def write(sessions):
        paths = []
        for s in sessions:
            path = log_dir / f"{s.session_id}.csv"
            path.write_text(s.csv_text, encoding="utf-8")
            paths.append(path)
        return sessions, paths

    meter = reference.Meter()
    times, digests = [], set()
    for _ in range(SETUP_REPS):
        (sessions, paths), ms = meter.measure(lambda: write(generate(seed)))
        times.append(ms / 1e3)
        digests.add(workloads.digest(sessions))
    return sessions, paths, times, digests


def untraced(ppm, sessions, paths, report_dir: Path, passes: summary.Passes, tally: Tally):
    """Time the classify, chart and stats paths over the passes.

    Returns each session's classify and chart times and the stats time, in
    ms scaled to the reference speed.
    """
    session_ms = [[] for _ in sessions]
    chart_ms = [[] for _ in sessions]
    stats_ms = []
    first_bytes: dict[str, str] = {}
    # Warm-up: first calls import and compile lazily (e.g. strptime).
    ppm.classify_session(ppm.parse_log(paths[0].read_text(encoding="utf-8")))
    meter = reference.Meter()

    def classify_path(src: Path):
        log = ppm.parse_log(src.read_text(encoding="utf-8"), session_id=src.stem)
        report = ppm.classify_session(log)
        text = report.to_json()
        (report_dir / f"{src.stem}.json").write_text(text, encoding="utf-8")
        return log, report, text

    def stats_path(reports):
        loaded = [ppm.SessionReport.from_json(text) for text in reports]
        return loaded, compare(ppm, loaded)

    for _ in passes:
        reports = []
        for index, (s, src) in enumerate(zip(sessions, paths)):
            try:
                (log, report, text), took = meter.measure(lambda: classify_path(src))
                svg, chart_took = meter.measure(
                    lambda: ppm.render_ppmchart(ppm.expand_reconnect(log)))
            except Exception as exc:  # one bad session must not end the run
                tally.session(f"{s.session_id}: {type(exc).__name__}: {exc}")
                continue
            session_ms[index].append(took)
            chart_ms[index].append(chart_took)
            reports.append(text)
            tally.undecided += report.verdict.stage == "StateSpaceExceeded"
            problem = check(s, report, svg.count(ROW_MARK))
            if problem is None and first_bytes.setdefault(s.session_id, text) != text:
                problem = f"{s.session_id}: report bytes differ between passes"
            tally.session(problem)
        for _ in range(STATS_REPS):
            (loaded, got), took = meter.measure(lambda: stats_path(reports))
            stats_ms.append(took)
        if got != expected_groups(loaded):
            tally.error(f"stats: groups {got}, expected {expected_groups(loaded)}")
    return (summary.per_session(session_ms), summary.per_session(chart_ms),
            summary.median(stats_ms))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    ppm = load_library()
    if ppm is None:
        print(f"error: no ppmkit sources under {SRC}", file=sys.stderr)
        return 2

    work = HERE / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    log_dir, report_dir = work / "logs", work / "reports"
    log_dir.mkdir(parents=True, exist_ok=True)
    report_dir.mkdir(exist_ok=True)
    try:
        sessions, paths, setup_times, digests = setup(args.workload, args.seed, log_dir)
        tally = Tally()
        if len(digests) != 1:
            tally.error("set-up produced different inputs from one seed")
        passes = summary.Passes(args.seconds, 1 if args.trace else MIN_PASSES)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "input_sha256": sorted(digests)[0],
            "sessions": len(sessions),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        }
        if args.trace:
            import probes

            trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics = probes.traced(ppm, sessions, paths, report_dir, passes, tally,
                                    args.seed, trace_file, detail)
            detail["trace_file"] = str(trace_file.relative_to(HERE.parent))
        else:
            session_ms, chart_ms, stats_ms = untraced(
                ppm, sessions, paths, report_dir, passes, tally)
            percentile, tail_ms, n = summary.tail(session_ms)
            values = {
                "session_ms_p50": summary.median(session_ms),
                "session_ms_tail": tail_ms,
                # One whole pass at each session's typical time.
                "sessions_per_s": len(session_ms) / (sum(session_ms) / 1e3),
                "chart_ms_p50": summary.median(chart_ms),
                "stats_ms": stats_ms,
                "setup_s": summary.median(setup_times),
                "peak_rss_mb": peak_rss_mb(),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            detail["session_ms_tail"] = {"percentile": percentile, "n": n}
        detail["passes"] = passes.count
        detail["failed_share"] = tally.failed / max(tally.attempted, 1)
        detail["undecided_share"] = tally.undecided / max(tally.attempted, 1)
        detail["errors"] = tally.errors
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
