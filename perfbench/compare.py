"""Compare two snapshots (or saved run outputs) metric by metric.

    python3 perfbench/compare.py perfbench/BENCH_1.json new.json

Runs are paired by workload, seed and trace mode. A pair whose input
digests differ measured different inputs (for instance after a change to
the simulator) and is refused: the comparison exits with status 1. For
each end-to-end metric the change is given as a share of the base value
and checked against the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> dict[tuple, dict]:
    """Runs keyed by (workload, seed, trace), from a snapshot file or from
    the saved stdout of run.py (detail line, then result line)."""
    text = path.read_text(encoding="utf-8")
    try:
        runs = json.loads(text)["runs"]
    except (ValueError, KeyError, TypeError):
        detail, result = text.strip().splitlines()[-2:]
        runs = [{**json.loads(detail)["detail"], "result": json.loads(result)}]
    return {(r["workload"], r["seed"], "trace_overhead" in r): r for r in runs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    base, new = load_runs(args.base), load_runs(args.new)
    refused = 0
    for key in sorted(base.keys() & new.keys()):
        b, n = base[key], new[key]
        workload, seed, traced = key
        label = f"{workload} seed={seed} {'traced' if traced else 'untraced'}"
        if b["input_sha256"] != n["input_sha256"]:
            print(f"{label}: REFUSED, input digests differ "
                  f"({b['input_sha256'][:12]} vs {n['input_sha256'][:12]})")
            refused += 1
            continue
        print(f"{label}: correct {b['result']['correct']} -> {n['result']['correct']}")
        for name, metric in b["result"]["metrics"].items():
            old = metric["value"]
            cur = n["result"]["metrics"].get(name, {}).get("value")
            if old is None or cur is None:
                print(f"  {name}: {old} -> {cur}")
                continue
            share = (cur - old) / old if old else 0.0
            verdict = ""
            if name in bounds:
                better, bound = bounds[name]
                worse = share if better == "lower" else -share
                verdict = "  WORSE than bound" if worse > bound else ""
            print(f"  {name}: {old:.6g} -> {cur:.6g} {metric['unit']} "
                  f"({share:+.1%}){verdict}")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
