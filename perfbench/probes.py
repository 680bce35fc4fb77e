"""Traced run: time the calls into each module's public functions.

Spans are recorded in this file, around each call into the library, so
the library itself needs no change. Per session, a `session` span holds
a `classify_path` span (the same read, parse_log, classify_session,
to_json, write path the untraced run times) and one span per layer probe
on the same inputs: expand_reconnect, replay, detect_blocks,
compute_session_metrics, normalize, to_wfnet, check_soundness and
render_ppmchart. Per pass, from_json and compare_groups are timed over
every report, and simulate_cohort on the cohort recipe with the run's
seed. Counts come from the return values.

A probe whose call fails with TypeError or AttributeError (a changed
signature or a removed function) is reported as missing: its metrics are
null and the run goes on. The same path run untraced in this process
gives the tracing overhead. Spans stay in memory and are written as JSON
lines when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import checks
import summary
import workloads

MISSING = object()

# Per-layer metric -> (unit, span name or counter, how it is summarised).
# "p50": median over sessions of each session's shortest span; stats and
# simulate spans belong to no session, so theirs is the shortest of the
# run. "pass": counter total per pass.
LAYER_METRICS = {
    "eventlog.parse_ms": ("ms", "eventlog.parse_log", "p50"),
    "eventlog.events": ("count", "events", "pass"),
    "eventlog.expand_ms": ("ms", "eventlog.expand_reconnect", "p50"),
    "eventlog.reconnects": ("count", "reconnects", "pass"),
    "replay.replay_ms": ("ms", "replay.replay", "p50"),
    "blocks.detect_ms": ("ms", "blocks.detect_blocks", "p50"),
    "blocks.found": ("count", "blocks", "pass"),
    "metrics.compute_ms": ("ms", "metrics.compute_session_metrics", "p50"),
    "normalize.normalize_ms": ("ms", "normalize.normalize", "p50"),
    "normalize.rules_applied": ("count", "rules_applied", "pass"),
    "wfnet.to_wfnet_ms": ("ms", "wfnet.to_wfnet", "p50"),
    "wfnet.places": ("count", "places", "pass"),
    "wfnet.transitions": ("count", "transitions", "pass"),
    "soundness.check_ms": ("ms", "soundness.check_soundness", "p50"),
    "soundness.states_explored": ("count", "states_explored", "pass"),
    "soundness.states_per_ms": ("1/ms", None, "rate"),
    "soundness.undecided_share": ("ratio", None, "share"),
    "classify.session_ms": ("ms", "classify.classify_session", "p50"),
    "classify.report_ms": ("ms", "classify.to_json", "p50"),
    "chart.render_ms": ("ms", "chart.render_ppmchart", "p50"),
    "chart.rows": ("count", "rows", "pass"),
    "stats.load_ms": ("ms", "stats.from_json", "p50"),
    "stats.compare_ms": ("ms", "stats.compare_groups", "p50"),
    "simulate.cohort_ms": ("ms", "simulate.simulate_cohort", "p50"),
}
# Which probe each counter comes from, so a missing probe nulls its counts.
COUNTER_SPAN = {
    "events": "eventlog.parse_log",
    "reconnects": "eventlog.expand_reconnect",
    "blocks": "blocks.detect_blocks",
    "rules_applied": "normalize.normalize",
    "places": "wfnet.to_wfnet",
    "transitions": "wfnet.to_wfnet",
    "states_explored": "soundness.check_soundness",
    "checks": "soundness.check_soundness",
    "undecided": "soundness.check_soundness",
    "rows": "chart.render_ppmchart",
}
SIMULATE_REPS = 3


class Spans:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.records: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: dict[str, str] = {}

    def open(self, name: str, session: str, parent: int | None = None) -> int:
        self.records.append({"span": len(self.records), "parent": parent,
                             "session": session, "name": name,
                             "start_ns": time.perf_counter_ns(), "end_ns": None})
        return len(self.records) - 1

    def close(self, span: int) -> int:
        record = self.records[span]
        record["end_ns"] = time.perf_counter_ns()
        return record["end_ns"] - record["start_ns"]

    def call(self, name: str, session: str, parent: int, fn, *args):
        """One span around fn(*args); for calls the benchmark relies on."""
        span = self.open(name, session, parent)
        result = fn(*args)
        self.close(span)
        return result

    def probe(self, name: str, session: str, parent: int, call, count=None):
        """One span around call(), a single call into the library.

        TypeError or AttributeError from the call, or from reading its
        result in count(), marks the probe missing and returns MISSING.
        """
        try:
            start = time.perf_counter_ns()
            result = call()
            end = time.perf_counter_ns()
            counts = count(result) if count else {}
        except (TypeError, AttributeError) as exc:
            self.missing.setdefault(name, f"{type(exc).__name__}: {exc}")
            return MISSING
        self.records.append({"span": len(self.records), "parent": parent,
                             "session": session, "name": name,
                             "start_ns": start, "end_ns": end})
        for key, value in counts.items():
            self.counts[key] += value
        return result

    def best_ms(self) -> dict[str, list[float]]:
        """Per span name, each session's shortest duration in ms."""
        best: dict[tuple[str, str], int] = {}
        for r in self.records:
            if r["end_ns"] is not None:
                key = (r["name"], r["session"])
                took = r["end_ns"] - r["start_ns"]
                best[key] = min(took, best.get(key, took))
        out: dict[str, list[float]] = defaultdict(list)
        for (name, _), took in best.items():
            out[name].append(took / 1e6)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")


def _plain_path(ppm, src: Path, dst: Path) -> tuple[int, str]:
    t0 = time.perf_counter_ns()
    log = ppm.parse_log(src.read_text(encoding="utf-8"), session_id=src.stem)
    text = ppm.classify_session(log).to_json()
    dst.write_text(text, encoding="utf-8")
    return time.perf_counter_ns() - t0, text


def _traced_path(ppm, spans: Spans, sid: str, parent: int, src: Path, dst: Path):
    path = spans.open("classify_path", sid, parent)
    text = spans.call("io.read", sid, path, src.read_text, "utf-8")
    log = spans.call("eventlog.parse_log", sid, path,
                     lambda: ppm.parse_log(text, session_id=src.stem))
    report = spans.call("classify.classify_session", sid, path, ppm.classify_session, log)
    out = spans.call("classify.to_json", sid, path, report.to_json)
    spans.call("io.write", sid, path, lambda: dst.write_text(out, encoding="utf-8"))
    return spans.close(path), log, report, out


def _layer_probes(ppm, spans: Spans, sid: str, parent: int, log) -> int | None:
    """Probe every layer on one session's log; returns the chart rows."""
    spans.counts["events"] += len(log.events)

    def needs(name, *inputs):
        if any(x is MISSING for x in inputs):
            spans.missing.setdefault(name, "an input probe is missing")
            return False
        return True

    expanded = spans.probe(
        "eventlog.expand_reconnect", sid, parent, lambda: ppm.expand_reconnect(log),
        lambda r: {"reconnects": len(r.events) - len(log.events)})
    model = MISSING
    if needs("replay.replay", expanded):
        model = spans.probe("replay.replay", sid, parent, lambda: ppm.replay(expanded))
    blocks = MISSING
    if needs("blocks.detect_blocks", model):
        blocks = spans.probe("blocks.detect_blocks", sid, parent,
                             lambda: ppm.detect_blocks(model, expanded),
                             lambda r: {"blocks": len(r)})
    if needs("metrics.compute_session_metrics", blocks):
        spans.probe("metrics.compute_session_metrics", sid, parent,
                    lambda: ppm.compute_session_metrics(expanded, blocks=list(blocks)))
    outcome = MISSING
    if needs("normalize.normalize", model):
        outcome = spans.probe("normalize.normalize", sid, parent, lambda: ppm.normalize(model),
                              lambda r: {"rules_applied": len(r.applied_rules)})
    if outcome is not MISSING and not outcome.rejected:
        net = spans.probe("wfnet.to_wfnet", sid, parent, lambda: ppm.to_wfnet(outcome.model),
                          lambda r: {"places": len(r.places),
                                     "transitions": len(r.transitions)})
        if needs("soundness.check_soundness", net):
            spans.probe("soundness.check_soundness", sid, parent,
                        lambda: ppm.check_soundness(net),
                        lambda r: {"states_explored": r.states_explored, "checks": 1,
                                   "undecided": r.verdict == "Unknown"})
    rows = MISSING
    if needs("chart.render_ppmchart", expanded):
        rows = spans.probe("chart.render_ppmchart", sid, parent,
                           lambda: ppm.render_ppmchart(expanded).count(checks.ROW_MARK),
                           lambda r: {"rows": r})
    return None if rows is MISSING else rows


def _simulate_probe(ppm, spans: Spans, seed: int) -> None:
    for _ in range(SIMULATE_REPS):
        spans.probe(
            "simulate.simulate_cohort", "", None,
            lambda: [ppm.simulate_cohort(ppm.PROFILES[p], workloads.COHORT_SESSIONS, seed)
                     for p in ("structured", "chaotic")])


def _summarise(spans: Spans, passes: int) -> dict:
    durations = spans.best_ms()
    values = {}
    for metric, (unit, source, how) in LAYER_METRICS.items():
        value = None
        if how == "p50":
            if source not in spans.missing and durations.get(source):
                value = summary.median(durations[source])
        elif how == "pass":
            if COUNTER_SPAN[source] not in spans.missing:
                value = spans.counts[source] / passes
        elif "soundness.check_soundness" not in spans.missing and spans.counts["checks"]:
            if how == "rate":
                value = spans.counts["states_explored"] / passes / sum(
                    durations["soundness.check_soundness"])
            else:
                value = spans.counts["undecided"] / spans.counts["checks"]
        values[metric] = {"value": value, "unit": unit}
    return values


def traced(ppm, sessions, paths, report_dir: Path, passes: summary.Passes, tally, seed: int,
           trace_file: Path, detail: dict) -> dict:
    """Run the traced passes; returns the per-layer metrics and fills
    `detail` with the tracing overhead and any missing probes."""
    spans = Spans()
    plain_ns = [[] for _ in sessions]
    traced_ns = [[] for _ in sessions]
    first_bytes: dict[str, str] = {}
    _plain_path(ppm, paths[0], report_dir / "warmup.json")
    for _ in passes:
        reports = []
        for index, (s, src) in enumerate(zip(sessions, paths)):
            dst = report_dir / f"{src.stem}.json"
            try:
                # Alternate which copy of the path runs first.
                if index % 2:
                    plain, plain_text = _plain_path(ppm, src, dst)
                session = spans.open("session", s.session_id)
                took, log, report, text = _traced_path(ppm, spans, s.session_id, session,
                                                       src, dst)
                rows = _layer_probes(ppm, spans, s.session_id, session, log)
                spans.close(session)
                if not index % 2:
                    plain, plain_text = _plain_path(ppm, src, dst)
            except Exception as exc:  # one bad session must not end the run
                tally.session(f"{s.session_id}: {type(exc).__name__}: {exc}")
                continue
            plain_ns[index].append(plain)
            traced_ns[index].append(took)
            reports.append(text)
            tally.undecided += report.verdict.stage == "StateSpaceExceeded"
            problem = checks.check(s, report, rows)
            if problem is None and not (first_bytes.setdefault(s.session_id, text)
                                        == text == plain_text):
                problem = f"{s.session_id}: report bytes differ between runs of the path"
            tally.session(problem)
        for _ in range(checks.STATS_REPS):
            loaded = spans.call("stats.from_json", "", None, lambda: [
                ppm.SessionReport.from_json(text) for text in reports])
            got = spans.call("stats.compare_groups", "", None, checks.compare, ppm, loaded)
        if got != checks.expected_groups(loaded):
            tally.error(f"stats: groups {got}, expected {checks.expected_groups(loaded)}")
    _simulate_probe(ppm, spans, seed)
    spans.write(trace_file)

    plain_ms = summary.median(summary.best_ms(plain_ns))
    traced_ms = summary.median(summary.best_ms(traced_ns))
    detail["trace_overhead"] = {
        "untraced_path_ms_p50": plain_ms,
        "traced_path_ms_p50": traced_ms,
        "overhead_ms": traced_ms - plain_ms,
        "overhead_share": (traced_ms - plain_ms) / plain_ms,
    }
    detail["missing"] = spans.missing
    return _summarise(spans, passes.count)
