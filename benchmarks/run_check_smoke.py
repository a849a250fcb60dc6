"""Check smoke: post-solve audits over the extended suites, with an overhead gate.

Usage::

    python benchmarks/run_check_smoke.py [--scale 3.0] [--specs-per-suite 2]
                                         [--suite DaCapo] [--benchmark fop]
                                         [--saturations off,allocated-type]
                                         [--threshold 64]
                                         [--max-audit-walk-ratio 5.7]

For every sampled benchmark of the extended suites (Table 1's three paper
suites plus ``WideHierarchy``), the smoke

* runs the IR lint passes once per program and requires them error-free
  (warnings are advisory and only counted);
* solves every config-backed analyzer (``pta``, the two ablations,
  ``skipflow``) under every saturation policy and runs
  the post-solve audits (:func:`repro.checks.audit_state`) on each solver
  state, requiring zero findings;
* round-trips one snapshot per benchmark — the default ``skipflow``
  state of the arena kernel over the attached freeze, through
  ``ArenaSolverState.to_bytes``/``from_bytes`` — with the full audit (the
  ``snapshot`` integrity check included), priced separately, because the
  serialization probe is not part of the per-solve audit surface;
* gates the **aggregate** audit cost against a fixed reference: right
  after each fast audit, a reference walk over the same state visits
  ``pvpg.all_flows()`` and each flow's ``uses``, reading only the fields
  the audit sweep reads and checking nothing.  Total fast-audit wall time
  divided by total walk wall time across the whole matrix must stay under
  ``--max-audit-walk-ratio`` (default 5.7).  Both legs walk the same
  graph in the same process state, so neither solver speed nor garbage
  the solves leave for the collector can move the ratio; a second sweep
  per audit (what the sweep memo prevents) roughly doubles it.  The ratio is aggregate rather than per-combo on purpose: every
  combination is audited exactly once, so the aggregate is the real price
  of auditing the matrix, and tiny states where fixed costs dominate do
  not distort it.  The audit's share of cold-solve wall time is printed as
  information only.

``--specs-per-suite`` samples the N cheapest benchmarks of each suite
(default 2, a CI-sized matrix); ``--specs-per-suite 0`` keeps every spec.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Tuple

from repro.api.registry import config_backed_analyzers, get_analyzer
from repro.checks import audit_state, has_errors, lint_program
from repro.core.analysis import SkipFlowAnalysis
from repro.core.kernel import available_saturation_policies
from repro.engine.scheduler import estimated_cost
from repro.ir.arena import freeze, open_program
from repro.workloads.generator import generate_benchmark
from repro.workloads.suites import extended_suites

DEFAULT_SATURATIONS = ("off", "allocated-type")
DEFAULT_THRESHOLD = 64
DEFAULT_SPECS_PER_SUITE = 2
#: 1.25x the median audit/walk ratio of the tree before edge sets became
#: dicts (4.37-4.69x over 5 runs, median 4.58x; 4.13-4.36x after, on 2
#: cores, Python 3.11.7).  Sweeping twice per audit reads about 8.3x.
DEFAULT_MAX_WALK_RATIO = 5.7


def _reference_walk(state) -> None:
    """The audit gate's yardstick: one pass over the flows and use edges the
    audit sweep visits, reading the fields it reads and checking nothing."""
    for flow in state.pvpg.all_flows():
        _ = (flow.in_worklist, flow.saturated, flow.enabled, flow.state,
             flow.input_state)
        for target in flow.uses:
            _ = (target.saturated, target.input_state)


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
    parser.add_argument("--saturations", type=str,
                        default=",".join(DEFAULT_SATURATIONS))
    parser.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD,
                        help="saturation threshold for non-off policies "
                             f"(default: {DEFAULT_THRESHOLD})")
    parser.add_argument("--max-audit-walk-ratio", type=float,
                        default=DEFAULT_MAX_WALK_RATIO,
                        help="gate on aggregate fast-audit wall time over "
                             "reference-walk wall time "
                             f"(default: {DEFAULT_MAX_WALK_RATIO})")
    args = parser.parse_args(argv)

    try:
        saturations = _parse_names(args.saturations, "saturation",
                                   available_saturation_policies())
        if args.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {args.threshold}")
        specs = _sample_specs(args)
    except ValueError as error:
        print(f"run_check_smoke: {error}", file=sys.stderr)
        return 2

    analyzers = config_backed_analyzers()
    # (label, saturation_threshold, saturation_policy) per grid column.
    policies: List[Tuple[str, Optional[int], str]] = [
        ("off", None, "off") if saturation == "off"
        else (f"{saturation}@{args.threshold}", args.threshold, saturation)
        for saturation in saturations]

    combos = len(specs) * len(analyzers) * len(policies)
    print(f"check smoke: {len(specs)} benchmarks x {len(analyzers)} "
          f"analyzers x {len(policies)} policies = {combos} audited solves "
          f"(scale {args.scale})", file=sys.stderr)

    failures: List[str] = []
    lint_warnings = 0
    solve_seconds = 0.0
    audit_seconds = 0.0
    walk_seconds = 0.0
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

        for analyzer_name in analyzers:
            analyzer = get_analyzer(analyzer_name)
            for label, threshold, saturation in policies:
                config = analyzer.config(threshold, saturation)
                started = time.perf_counter()
                result = SkipFlowAnalysis(program, config).run()
                solve_seconds += time.perf_counter() - started

                started = time.perf_counter()
                findings = audit_state(result.solver_state, program,
                                       snapshot=False)
                audit_seconds += time.perf_counter() - started

                started = time.perf_counter()
                _reference_walk(result.solver_state)
                walk_seconds += time.perf_counter() - started
                if findings:
                    failures.append(
                        f"{spec.name} [{analyzer_name} {label}]: audit "
                        f"reported {len(findings)} finding(s), first: "
                        f"{findings[0].render()}")

        # One serialization integrity probe per benchmark: the full audit
        # on the default skipflow state's arena tables, snapshot round-trip
        # included.
        if "skipflow" in analyzers:
            attached = open_program(freeze(program))
            state = SkipFlowAnalysis(
                attached, get_analyzer("skipflow").config()).run().arena_state
            started = time.perf_counter()
            findings = audit_state(state, attached)
            snapshot_seconds += time.perf_counter() - started
            if findings:
                failures.append(
                    f"{spec.name}: full audit (snapshot round-trip) "
                    f"reported {len(findings)} finding(s), first: "
                    f"{findings[0].render()}")
        print(f"  {spec.name}: audited", file=sys.stderr)

    overhead = (100.0 * audit_seconds / solve_seconds
                if solve_seconds > 0 else 0.0)
    ratio = audit_seconds / walk_seconds if walk_seconds > 0 else 0.0
    print(f"check smoke: {combos} solves in {solve_seconds:.2f}s, fast "
          f"audits in {audit_seconds:.2f}s, reference walks in "
          f"{walk_seconds:.3f}s (audit/walk {ratio:.2f}x, gate "
          f"{args.max_audit_walk_ratio:.2f}x; audit/solve {overhead:.1f}%, "
          f"information only), snapshot probes in {snapshot_seconds:.2f}s, "
          f"{lint_warnings} advisory lint finding(s)")
    if ratio >= args.max_audit_walk_ratio:
        failures.append(
            f"aggregate audit/walk ratio {ratio:.2f}x breaches the "
            f"{args.max_audit_walk_ratio:.2f}x gate")

    if failures:
        for failure in failures:
            print(f"CHECK SMOKE FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"check smoke ok: {combos} combos audited clean across "
          f"{len(specs)} extended-suite benchmarks, audit/walk "
          f"{ratio:.2f}x < {args.max_audit_walk_ratio:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
