#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 e2ebench/run.py --workload image-fresh --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Above it, a table prints every metric with its unit and
sample count.  A result file with provenance (and, traced, the spans and
the self-time table) goes to ``.bench_work/results/``.

``--workload all`` runs the three in turn and prints one final line for
all of them, its metric names prefixed by workload.

The exit code is 0 when every answer checked out, 1 when any op failed its
check, 2 when the checkout holds no ``src/repro`` to measure.  ``--canary``
plants one wrong answer to show the check can fail; ``--write-answers``
regenerates ``e2ebench/answers.json`` from cold solves.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("image-fresh", "matrix-store", "daemon-edit")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--canary", action="store_true",
                        help="plant one wrong answer; the run must then fail")
    parser.add_argument("--write-answers", action="store_true",
                        help="regenerate e2ebench/answers.json and exit")
    args = parser.parse_args(argv)
    if not args.write_answers and args.workload is None:
        parser.error("--workload is required")
    return args


def _metric_names(traced: bool):
    """The metric names the final line carries, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in spec["per_layer" if traced else "end_to_end"]]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from bench import answers

    if args.write_answers:
        answers.write_answers()
        print(f"wrote {answers.ANSWERS_PATH}")
        return 0

    if args.workload != "all":
        line = _run_one(args.workload, args)
    else:
        lines = {workload: _run_one(workload, args) for workload in WORKLOADS}
        line = {"correct": all(one["correct"] for one in lines.values()),
                "attempted": sum(one["attempted"] for one in lines.values()),
                "failed": sum(one["failed"] for one in lines.values()),
                "metrics": {f"{workload}.{name}": metric for workload, one in lines.items()
                            for name, metric in one["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _run_one(workload: str, args) -> dict:
    """Run, check and report one workload; returns its final-line object."""
    from bench import answers, report
    from bench.spans import Tracer
    from bench.workloads import Context, run_workload

    traced = bool(args.trace)
    run_dir = WORK / f"run-{workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # Every temporary file of the run, ours, a library's or a child process's,
    # stays in the checkout.
    previous_tmpdir = os.environ.get("TMPDIR")
    tempfile.tempdir = os.environ["TMPDIR"] = str(run_dir)
    ctx = Context(seed=args.seed, seconds=args.seconds, root=ROOT, work_dir=run_dir,
                  answers=answers.Answers.load(), tracer=Tracer() if traced else None,
                  canary=args.canary)
    try:
        outcome = run_workload(workload, ctx)
    finally:
        tempfile.tempdir = None
        if previous_tmpdir is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = previous_tmpdir
        shutil.rmtree(run_dir, ignore_errors=True)

    e2e = report.end_to_end(outcome)
    failed = sum(1 for op in outcome.ops if not op.ok)
    correct = failed == 0 and not outcome.failures and bool(outcome.ops)
    stem = f"{workload}-s{args.seed}"
    document = {
        "provenance": report.provenance(ROOT, workload, args.seed, args.seconds, traced),
        "correct": correct,
        "attempted": len(outcome.ops),
        "failed": failed,
        "failures": outcome.failures,
        "passes": outcome.passes,
        "elapsed_s": outcome.elapsed,
        "setup_seconds": outcome.setup_seconds,
        "reference_ms": outcome.reference_ms,
        "reference_at": outcome.reference_at,
        "end_to_end": {name: vars(metric) for name, metric in e2e.items()},
        "ops": [vars(op) for op in outcome.ops],
    }
    print(f"{workload} seed={args.seed} seconds={args.seconds} traced={traced} "
          f"passes={outcome.passes} window={outcome.elapsed:.1f}s "
          f"attempted={len(outcome.ops)} failed={failed}")
    print("end to end:")
    print("\n".join(report.format_table(e2e)))
    shown = e2e
    if traced:
        layers = report.per_layer(outcome, ctx.tracer)
        untraced_path = WORK / "results" / f"{stem}-t0.json"
        untraced = json.loads(untraced_path.read_text()) if untraced_path.is_file() else None
        if untraced is not None and untraced["provenance"]["run_seconds"] == args.seconds:
            rate = untraced["end_to_end"]["ops_per_s"]["value"]
            traced_rate = e2e["ops_per_s"].value
            if traced_rate:
                layers["trace.overhead_pct"] = report.Metric(
                    100.0 * (rate / traced_rate - 1.0), "%")
        table = report.self_time_table(ctx.tracer)
        document["per_layer"] = {name: vars(metric) for name, metric in layers.items()}
        document["self_time"] = table
        report.write_result(WORK / "results" / f"{stem}-spans.json",
                            {"provenance": document["provenance"],
                             "spans": [span.as_dict() for span in ctx.tracer.spans]})
        print("per layer:")
        print("\n".join(report.format_table(layers)))
        print("self time (layer, calls, total ms, mean ms):")
        for row in table:
            print(f"  {row['layer']:34s} {row['calls']:7d} {row['self_ms']:12.2f} "
                  f"{row['mean_self_ms']:10.3f}")
        shown = layers
    for line in outcome.failures:
        print(f"FAILED: {line}")
    report.write_result(WORK / "results" / f"{stem}-t{args.trace}.json", document)
    return {"correct": correct, "attempted": len(outcome.ops), "failed": failed,
            "metrics": {name: {"value": shown[name].value, "unit": shown[name].unit}
                        for name in _metric_names(traced)}}


if __name__ == "__main__":
    sys.exit(main())
