"""Solver-steps regression gate for CI.

Re-runs the ``bench_solver_scaling`` specs (sizes 100/300/600, PTA and
SkipFlow) and compares ``solver.steps`` — the machine-independent cost proxy —
against the checked-in baseline.  Fails when any measurement exceeds its
baseline by more than the tolerance (default 10%), which catches accidental
algorithmic regressions (extra worklist churn, lost dedup) that wall-clock
timing on shared CI runners cannot.

Benchmark generation and the solver are fully deterministic, so on an
unchanged algorithm the measured steps are *exactly* the baseline.  After an
intentional solver change, regenerate with::

    python benchmarks/check_solver_regression.py --update

Every spec is solved by the arena kernel, the one propagation loop, over
the generated program's in-memory lowering.  Counters are this gate's
business alone: the fuzz oracle and the identity grids compare fixpoints
with the executable specification (:mod:`repro.checks.reference`), never
counters.

A negative ``--tolerance`` plants a failure: ``--tolerance=-0.5`` sets every
limit to half its baseline entry, which the unchanged solver must breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.workloads.generator import generate_benchmark, spec_from_reduction

BASELINE_PATH = Path(__file__).parent / "baselines" / "solver_steps.json"

#: Mirrors ``bench_solver_scaling._SIZES``.
SIZES = (100, 300, 600)

#: Counters printed per spec; only ``steps`` has a baseline.
COUNTERS = ("steps", "joins", "transfers")


def measure() -> dict:
    """Counters per baseline key: ``{key: {"steps": n, "joins": n,
    "transfers": n}}``."""
    measurements = {}
    for size in SIZES:
        spec = spec_from_reduction(
            name=f"scaling-{size}", suite="scaling",
            total_methods=size, reduction_percent=10.0,
        )
        program = generate_benchmark(spec)
        for config in (AnalysisConfig.baseline_pta(), AnalysisConfig.skipflow()):
            result = SkipFlowAnalysis(program, config).run()
            measurements[f"{spec.name}/{config.name}"] = {
                counter: getattr(result.stats, counter)
                for counter in COUNTERS}
    return measurements


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional increase over the baseline")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current measurement")
    args = parser.parse_args(argv)

    measurements = measure()
    if args.update:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        steps = {key: counters["steps"]
                 for key, counters in measurements.items()}
        BASELINE_PATH.write_text(json.dumps(steps, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    failures = []
    for key, counters in sorted(measurements.items()):
        expected = baseline.get(key)
        if expected is None:
            failures.append(f"{key}: no baseline entry (run with --update)")
            continue
        limit = expected * (1.0 + args.tolerance)
        steps = counters["steps"]
        marker = "OK"
        if steps > limit:
            marker = "FAIL"
            failures.append(
                f"{key}: {steps} steps exceeds baseline {expected} by more "
                f"than {args.tolerance:.0%}")
        print(f"  {key:<24} steps={steps:<8} "
              f"joins={counters['joins']:<8} "
              f"transfers={counters['transfers']:<8} "
              f"baseline={expected:<8} [{marker}]")

    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("solver steps within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
