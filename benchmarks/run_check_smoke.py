"""Check smoke: post-solve audits over the extended suites, with an overhead gate.

Usage::

    python benchmarks/run_check_smoke.py [--scale 3.0] [--specs-per-suite 2]
                                         [--suite DaCapo] [--benchmark fop]
                                         [--schedulings fifo,degree]
                                         [--saturations off,allocated-type]
                                         [--threshold 64]
                                         [--max-overhead-percent 10.0]

For every sampled benchmark of the extended suites (Table 1's three paper
suites plus ``WideHierarchy``), the smoke

* runs the IR lint passes once per program and requires them error-free
  (warnings are advisory and only counted);
* solves every config-backed analyzer (``pta``, the two ablations,
  ``skipflow``) under every scheduling x saturation combination and runs
  the post-solve audits (:func:`repro.checks.audit_state`) on each solver
  state, requiring zero findings;
* round-trips one snapshot per benchmark through
  ``SolverState.to_bytes``/``from_bytes`` with the full audit (the
  ``snapshot`` integrity check included) — priced separately, because the
  serialization probe is not part of the per-solve audit surface;
* gates the **aggregate** audit overhead: total fast-audit wall-time
  divided by total cold-solve wall-time across the whole matrix must stay
  under ``--max-overhead-percent`` (default 10%).  The ratio is aggregate
  rather than per-combo on purpose — every combination is audited exactly
  once, so the aggregate is the real price of auditing the matrix, and it
  is not distorted by tiny solves where fixed costs dominate.

``--specs-per-suite`` samples the N cheapest benchmarks of each suite
(default 2, a CI-sized matrix); ``--specs-per-suite 0`` keeps every spec.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Tuple

from repro.api.registry import config_backed_analyzers, get_analyzer
from repro.checks import audit_state, has_errors, lint_program
from repro.core.analysis import SkipFlowAnalysis
from repro.core.kernel import (
    SolverPolicy,
    available_saturation_policies,
    available_scheduling_policies,
)
from repro.engine.scheduler import estimated_cost
from repro.workloads.generator import generate_benchmark
from repro.workloads.suites import extended_suites

DEFAULT_SCHEDULINGS = ("fifo", "degree")
DEFAULT_SATURATIONS = ("off", "allocated-type")
DEFAULT_THRESHOLD = 64
DEFAULT_SPECS_PER_SUITE = 2
DEFAULT_MAX_OVERHEAD = 10.0


def _parse_names(text: str, kind: str, available) -> List[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ValueError(f"no {kind} policies given")
    for name in names:
        if name not in available:
            raise ValueError(f"unknown {kind} policy {name!r}; available: "
                             f"{', '.join(available)}")
    return names


def _sample_specs(args) -> List:
    suites = extended_suites(args.scale)
    if args.suite:
        matches = {name: specs for name, specs in suites.items()
                   if name.lower() == args.suite.lower()}
        if not matches:
            raise ValueError(f"unknown suite {args.suite!r}; expected one "
                             f"of {sorted(suites)}")
        suites = matches
    specs = []
    for _, suite_specs in sorted(suites.items()):
        ranked = sorted(suite_specs, key=estimated_cost)
        if args.specs_per_suite > 0:
            ranked = ranked[:args.specs_per_suite]
        specs.extend(ranked)
    if args.benchmark:
        specs = [spec for spec in specs if spec.name == args.benchmark]
        if not specs:
            raise ValueError(
                f"benchmark {args.benchmark!r} is not in the sampled set; "
                f"drop --specs-per-suite or pick another name")
    return specs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=3.0,
                        help="workload scale factor (default: 3.0)")
    parser.add_argument("--specs-per-suite", type=int,
                        default=DEFAULT_SPECS_PER_SUITE,
                        help="cheapest N benchmarks per suite; 0 = all "
                             f"(default: {DEFAULT_SPECS_PER_SUITE})")
    parser.add_argument("--suite", type=str, default=None,
                        help="restrict to one suite (case-insensitive)")
    parser.add_argument("--benchmark", type=str, default=None,
                        help="restrict to one benchmark of the sampled set")
    parser.add_argument("--schedulings", type=str,
                        default=",".join(DEFAULT_SCHEDULINGS))
    parser.add_argument("--saturations", type=str,
                        default=",".join(DEFAULT_SATURATIONS))
    parser.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD,
                        help="saturation threshold for non-off policies "
                             f"(default: {DEFAULT_THRESHOLD})")
    parser.add_argument("--max-overhead-percent", type=float,
                        default=DEFAULT_MAX_OVERHEAD,
                        help="aggregate audit/solve wall-time gate "
                             f"(default: {DEFAULT_MAX_OVERHEAD})")
    args = parser.parse_args(argv)

    try:
        schedulings = _parse_names(args.schedulings, "scheduling",
                                   available_scheduling_policies())
        saturations = _parse_names(args.saturations, "saturation",
                                   available_saturation_policies())
        if args.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {args.threshold}")
        specs = _sample_specs(args)
    except ValueError as error:
        print(f"run_check_smoke: {error}", file=sys.stderr)
        return 2

    analyzers = config_backed_analyzers()
    policies: List[Tuple[str, SolverPolicy]] = []
    for saturation in saturations:
        for scheduling in schedulings:
            policy = SolverPolicy(
                scheduling=scheduling, saturation=saturation,
                saturation_threshold=(None if saturation == "off"
                                      else args.threshold))
            policies.append((policy.label, policy))

    combos = len(specs) * len(analyzers) * len(policies)
    print(f"check smoke: {len(specs)} benchmarks x {len(analyzers)} "
          f"analyzers x {len(policies)} policies = {combos} audited solves "
          f"(scale {args.scale})", file=sys.stderr)

    failures: List[str] = []
    lint_warnings = 0
    solve_seconds = 0.0
    audit_seconds = 0.0
    snapshot_seconds = 0.0

    for spec in specs:
        program = generate_benchmark(spec)

        diagnostics = lint_program(program)
        lint_warnings += len(diagnostics)
        if has_errors(diagnostics):
            errors = [diag for diag in diagnostics
                      if diag.severity.label == "error"]
            failures.append(f"{spec.name}: lint reported "
                            f"{len(errors)} error(s): {errors[0].render()}")

        snapshot_state = None
        for analyzer_name in analyzers:
            analyzer = get_analyzer(analyzer_name)
            for label, policy in policies:
                config = analyzer.config(policy=policy)
                started = time.perf_counter()
                result = SkipFlowAnalysis(program, config).run()
                solve_seconds += time.perf_counter() - started

                started = time.perf_counter()
                findings = audit_state(result.solver_state, program,
                                       snapshot=False)
                audit_seconds += time.perf_counter() - started
                if findings:
                    failures.append(
                        f"{spec.name} [{analyzer_name} {label}]: audit "
                        f"reported {len(findings)} finding(s), first: "
                        f"{findings[0].render()}")
                if analyzer_name == "skipflow" and label == "fifo/off":
                    snapshot_state = result.solver_state

        # One serialization integrity probe per benchmark: the full audit
        # on the default skipflow state, snapshot round-trip included.
        if snapshot_state is not None:
            started = time.perf_counter()
            findings = audit_state(snapshot_state, program)
            snapshot_seconds += time.perf_counter() - started
            if findings:
                failures.append(
                    f"{spec.name}: full audit (snapshot round-trip) "
                    f"reported {len(findings)} finding(s), first: "
                    f"{findings[0].render()}")
        print(f"  {spec.name}: audited", file=sys.stderr)

    overhead = (100.0 * audit_seconds / solve_seconds
                if solve_seconds > 0 else 0.0)
    print(f"check smoke: {combos} solves in {solve_seconds:.2f}s, fast "
          f"audits in {audit_seconds:.2f}s (aggregate overhead "
          f"{overhead:.1f}%, gate {args.max_overhead_percent:.1f}%), "
          f"snapshot probes in {snapshot_seconds:.2f}s, "
          f"{lint_warnings} advisory lint finding(s)")
    if overhead >= args.max_overhead_percent:
        failures.append(
            f"aggregate audit overhead {overhead:.1f}% breaches the "
            f"{args.max_overhead_percent:.1f}% gate")

    if failures:
        for failure in failures:
            print(f"CHECK SMOKE FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"check smoke ok: {combos} combos audited clean across "
          f"{len(specs)} extended-suite benchmarks, overhead "
          f"{overhead:.1f}% < {args.max_overhead_percent:.1f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
