"""Benchmark entry point.

    python3 perfbench/run.py --workload hon_gru --seed 1 --seconds 20 --trace 0

Generates every input from ``--seed`` (outside the measurement), runs the
workload in its own process with BLAS limited to one thread, and prints as
its last stdout line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of a traced run, whose spans go to ``.bench_out/``).  An untraced
run first starts two more processes of the workload that stop once set up,
so that ``setup_s`` is a median of three set-ups, each timed from process
start.  A program call that fails is counted in ``failed``; a metric that
could not be measured reads null.  Run from any directory; it reads the
program from ``src/`` beside this directory and writes only under
``.bench_work/`` and ``.bench_out/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNITS = {"setup_s": "s", "train_posts_per_s": "posts/s",
         "predict_posts_per_s": "posts/s", "peak_rss_mb": "MB"}

os.environ.update(BLAS_ENV)  # before numpy is imported, here and in the child

import spec  # noqa: E402
from tracer import UNITS as LAYER_UNITS  # noqa: E402


def _child(cmd: list[str], deadline: float):
    """Starts one workload process, timed from just before its start, and
    returns its last stdout line as JSON, or None if it produced none."""
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _result(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    parser = argparse.ArgumentParser(description="hatenet pipeline benchmark")
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=sorted(spec.SHAPES), default="paper",
                        help="'tiny' is for the smoke test only")
    args = parser.parse_args(argv)
    units = LAYER_UNITS if args.trace else UNITS

    if not (ROOT / "src" / "hatenet" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'hatenet'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hatenet as hn

    import gen

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        try:
            gen.generate(hn, args.seed, args.shape, work / "inputs")
        except Exception:
            traceback.print_exc()
            print("error: input generation failed", file=sys.stderr)
            print(_result(False, 1, 1, {}, units))
            return 0
        cmd = [sys.executable, str(HERE / "workload.py"),
               "--workload", args.workload, "--inputs", str(work / "inputs"),
               "--shape", args.shape, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        setups, attempted, failed = [], 0, 0
        try:
            if not args.trace:
                for _ in range(spec.SETUP_REPEATS - 1):
                    only = _child(cmd + ["--setup-only"], deadline)
                    if only is None:
                        return 1
                    attempted += only["attempted"]
                    failed += only["failed"]
                    if only["setup_s"] is not None:
                        setups.append(only["setup_s"])
            else:
                out_dir = ROOT / ".bench_out"
                out_dir.mkdir(exist_ok=True)
                cmd += ["--trace-out",
                        str(out_dir / f"trace_{args.workload}_seed{args.seed}.jsonl")]
            child = _child(cmd, deadline)
        except subprocess.TimeoutExpired:
            print("error: workload did not finish in time", file=sys.stderr)
            return 3
        if child is None:
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = child["e2e"]
    if e2e["setup_s"] is not None:
        setups.append(e2e["setup_s"])
    e2e["setup_s"] = median(setups) if setups else None
    print(f"{args.workload}: {child['rounds']} round(s); set-ups {setups}; e2e "
          + json.dumps(e2e), file=sys.stderr)
    if args.trace and child["absent"]:
        print("absent from the program: " + ", ".join(child["absent"]), file=sys.stderr)
    values = child["per_layer"] if args.trace else e2e
    print(_result(child["correct"], attempted + child["attempted"],
                  failed + child["failed"], values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
