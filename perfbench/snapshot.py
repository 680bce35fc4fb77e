"""Measure every workload, untraced and traced, and save a snapshot.

    python3 perfbench/snapshot.py --out perfbench/BENCH_1.json

Workloads run one after another, each in a fresh single-threaded process,
so peak memory is the workload's own and no workload warms the caches of
the next. The snapshot records the git commit measured (when the checkout
is a git repository), the Python version, the processor count and every
run's detail and result lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    detail, result = done.stdout.strip().splitlines()[-2:]
    return {**json.loads(detail)["detail"], "result": json.loads(result)}


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args()

    runs = []
    for workload in workloads.GENERATORS:
        for trace in (0, 1):
            print(f"{workload} trace={trace}", file=sys.stderr)
            runs.append(run_once(workload, args.seed, args.seconds, trace))
    snapshot = {
        "git_commit": git_commit(),
        "taken": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": runs,
    }
    args.out.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
