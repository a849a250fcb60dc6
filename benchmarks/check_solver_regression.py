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

``--kernel arena`` runs the same gate through the arena propagation kernel
against the *same* baseline — the kernels are bit-identical by contract, so
one baseline file serves both and any divergence fails loudly here.
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


def measure(kernel: str = "object") -> dict:
    measurements = {}
    for size in SIZES:
        spec = spec_from_reduction(
            name=f"scaling-{size}", suite="scaling",
            total_methods=size, reduction_percent=10.0,
        )
        for config in (AnalysisConfig.baseline_pta(), AnalysisConfig.skipflow()):
            config = config.with_kernel(kernel)
            result = SkipFlowAnalysis(generate_benchmark(spec), config).run()
            # Baseline keys deliberately omit the kernel: both kernels must
            # reproduce the same counts, so they share one baseline file.
            measurements[f"{spec.name}/{config.name}"] = result.steps
    return measurements


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional increase over the baseline")
    parser.add_argument("--kernel", choices=("object", "arena"),
                        default="object",
                        help="propagation kernel to gate (same baseline)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current measurement")
    args = parser.parse_args(argv)

    measurements = measure(args.kernel)
    if args.update:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(measurements, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    failures = []
    for key, steps in sorted(measurements.items()):
        expected = baseline.get(key)
        if expected is None:
            failures.append(f"{key}: no baseline entry (run with --update)")
            continue
        limit = expected * (1.0 + args.tolerance)
        marker = "OK"
        if steps > limit:
            marker = "FAIL"
            failures.append(
                f"{key}: {steps} steps exceeds baseline {expected} "
                f"by more than {args.tolerance:.0%}")
        print(f"  {key:<24} steps={steps:<8} baseline={expected:<8} [{marker}]")

    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("solver steps within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
