"""Golden digests of the whole pipeline's outputs on the benchmark corpora.

For every workload of `perfbench/workloads.py` at seeds 7 and 11 this
regenerates the session CSVs, then records one sha256 for the input bytes
and for each artifact a user gets from them: every session's `classify`
report JSON, `chart` SVG, final model JSON (what `replay` prints) and
canonical CSV (`serialize_log`), and the `stats` output (text and JSON,
or its one-line error) over the workload's reports. `golden_corpus.json` holds
the digests; a change that moves bytes on purpose regenerates it and says
why.

Stdlib only, so it runs without pytest on any supported Python:

    python tests/golden.py            # compare; name every artifact that moved
    python tests/golden.py --update   # rewrite golden_corpus.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "golden_corpus.json"
SEEDS = (7, 11)

for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import workloads  # noqa: E402

from ppmkit import (  # noqa: E402
    classify_session,
    cli,
    expand_reconnect,
    parse_log,
    render_ppmchart,
    replay,
    serialize_log,
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stats(report_dir: Path, fmt: str) -> str:
    """What `ppmkit stats --format fmt` writes to stdout and stderr, and
    its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["stats", "--reports", str(report_dir), "--format", fmt])
    return f"{out.getvalue()}\0{err.getvalue()}\0{code}"


def corpus_digests(workload: str, seed: int) -> dict:
    """Digests of one workload's input and of every artifact made from it."""
    sessions = workloads.GENERATORS[workload](seed)
    digests: dict = {"input": workloads.digest(sessions), "sessions": {}}
    with tempfile.TemporaryDirectory() as tmp:
        report_dir = Path(tmp)
        for s in sessions:
            log = parse_log(s.csv_text, session_id=s.session_id)
            report = classify_session(log).to_json()
            (report_dir / f"{s.session_id}.json").write_text(report, encoding="utf-8")
            expanded = expand_reconnect(log)
            digests["sessions"][s.session_id] = {
                "report": _sha(report),
                "chart": _sha(render_ppmchart(expanded)),
                "replay": _sha(replay(expanded).to_json() + "\n"),
                "csv": _sha(serialize_log(log)),
            }
        digests["stats_text"] = _sha(_stats(report_dir, "text"))
        digests["stats_json"] = _sha(_stats(report_dir, "json"))
    return digests


def generate() -> dict:
    return {f"{w}/{seed}": corpus_digests(w, seed)
            for w in workloads.GENERATORS for seed in SEEDS}


def moved(expected: dict, actual: dict) -> list[str]:
    """Every artifact whose digest differs, or that is new or missing, as
    `workload/seed artifact` or `workload/seed session artifact`."""
    out = []
    for corpus in sorted(expected.keys() | actual.keys()):
        want, got = expected.get(corpus), actual.get(corpus)
        if want is None or got is None:
            out.append(f"{corpus} {'new' if want is None else 'missing'}")
            continue
        for name in ("input", "stats_text", "stats_json"):
            if want[name] != got[name]:
                out.append(f"{corpus} {name}")
        ws, gs = want["sessions"], got["sessions"]
        for sid in sorted(ws.keys() | gs.keys()):
            for name in ("report", "chart", "replay", "csv"):
                if ws.get(sid, {}).get(name) != gs.get(sid, {}).get(name):
                    out.append(f"{corpus} {sid} {name}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {MANIFEST.name} instead of comparing")
    args = parser.parse_args(argv)
    actual = generate()
    if args.update:
        MANIFEST.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
        return 0
    diff = moved(json.loads(MANIFEST.read_text(encoding="utf-8")), actual)
    for line in diff:
        print(f"moved: {line}")
    print(f"{len(diff)} artifacts moved" if diff else "all artifacts match")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
