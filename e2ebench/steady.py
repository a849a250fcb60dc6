#!/usr/bin/env python3
"""Steadiness check: run each workload N times and compare spreads to bounds.

    python3 e2ebench/steady.py --runs 10 [--workload image-fresh ...] [--seconds 20]

Each run uses another seed (``--first-seed``, ``--first-seed + 1``, ...).
For every end-to-end metric of ``BENCHMARK.json`` it prints the median, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
quartile spread as a share of the median against the metric's bound.  A
spread under a third of its bound is steady; ``setup_s`` is reported but
exempt.  The raw values go to ``.bench_work/steady.json``.  Exits 1 when a
run fails or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a child process: its final line, plus wall time."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    result["exit_code"] = completed.returncode
    result["wall_s"] = time.perf_counter() - started
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from bench.stats import spread

    workloads = args.workload or [entry["name"] for entry in spec["workloads"]]
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    record = {"seconds": args.seconds, "runs": {}}
    ok = True
    for workload in workloads:
        results = [run_once(workload, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        record["runs"][workload] = results
        walls = [result["wall_s"] for result in results]
        print(f"{workload}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for result, seed in zip(results, range(args.first_seed, args.first_seed + args.runs)):
            if result["exit_code"] != 0 or not result["correct"]:
                ok = False
                print(f"  seed {seed}: FAILED (exit {result['exit_code']})")
        print(f"  {'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for result in results
                      if name in result.get("metrics", {})]
            if len(values) < 2:
                continue
            figure = spread(values)
            if name == "setup_s":
                verdict = "exempt"
            elif figure.relative <= bound / 3:
                verdict = "steady"
            elif figure.relative <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            print(f"  {name:26s} {figure.median:12.4f} {figure.q1:12.4f} {figure.q3:12.4f} "
                  f"{figure.relative:8.4f} {bound:6.3f}  {verdict}")
    out = ROOT / ".bench_work" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
