"""Smoke test of the benchmark at a tiny topology; finishes in seconds.

    python3 perfbench/smoke.py

Runs every workload untraced and traced through ``run.py --shape tiny`` and
fails unless each run exits 0, checks out correct with no failed operation,
and prints every metric that ``BENCHMARK.json`` declares.  It is not part of
the repository's test suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in declared["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                   "--seed", "7", "--seconds", "1", "--trace", str(trace),
                   "--shape", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            label = f"{workload['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result}\n{proc.stderr[-2000:]}")
            for metric in declared[kind]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{label}: metric {metric['name']} is {got}")
            print(f"ok {label}: {result['attempted']} operations")
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
