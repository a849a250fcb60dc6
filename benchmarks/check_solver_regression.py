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

Every spec is gated on two legs against the *same* baseline: the plain
generated program (solved by the object kernel) and its attached freeze,
``open_program(freeze(program))`` (solved by the arena kernel).  The kernels
are bit-identical by contract, so one baseline file serves both, and a leg
whose steps differ from the other's fails the gate even within tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.ir.arena import freeze, open_program
from repro.workloads.generator import generate_benchmark, spec_from_reduction

BASELINE_PATH = Path(__file__).parent / "baselines" / "solver_steps.json"

#: Mirrors ``bench_solver_scaling._SIZES``.
SIZES = (100, 300, 600)

#: The two legs, by the kernel that solves them.
KERNELS = ("object", "arena")


def measure() -> dict:
    """Steps per baseline key and leg: ``{key: {"object": n, "arena": n}}``."""
    measurements = {}
    for size in SIZES:
        spec = spec_from_reduction(
            name=f"scaling-{size}", suite="scaling",
            total_methods=size, reduction_percent=10.0,
        )
        program = generate_benchmark(spec)
        attached = open_program(freeze(program))
        for config in (AnalysisConfig.baseline_pta(), AnalysisConfig.skipflow()):
            legs = {}
            for leg in (program, attached):
                result = SkipFlowAnalysis(leg, config).run()
                legs[result.kernel_ran] = result.steps
            if sorted(legs) != sorted(KERNELS):
                raise SystemExit(
                    f"{spec.name}/{config.name}: the legs ran on "
                    f"{sorted(legs)}, not one per kernel {list(KERNELS)}")
            measurements[f"{spec.name}/{config.name}"] = legs
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
        steps = {key: legs["object"] for key, legs in measurements.items()}
        BASELINE_PATH.write_text(json.dumps(steps, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    failures = []
    for key, legs in sorted(measurements.items()):
        expected = baseline.get(key)
        if expected is None:
            failures.append(f"{key}: no baseline entry (run with --update)")
            continue
        limit = expected * (1.0 + args.tolerance)
        for kernel in KERNELS:
            steps = legs[kernel]
            marker = "OK"
            if steps > limit:
                marker = "FAIL"
                failures.append(
                    f"{key} [{kernel}]: {steps} steps exceeds baseline "
                    f"{expected} by more than {args.tolerance:.0%}")
            elif steps != legs[KERNELS[0]]:
                marker = "FAIL"
                failures.append(
                    f"{key} [{kernel}]: {steps} steps, but the "
                    f"{KERNELS[0]} leg took {legs[KERNELS[0]]}")
            print(f"  {key:<24} {kernel:<6} steps={steps:<8} "
                  f"baseline={expected:<8} [{marker}]")

    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("solver steps within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
