"""Standalone runner: the differential fuzzing study.

Usage::

    python benchmarks/run_fuzz_study.py --quick            # CI mode
    python benchmarks/run_fuzz_study.py --budget 600 --profile deep
    python benchmarks/run_fuzz_study.py --seed 7 --cases 200 \
                                        --out fuzz-artifacts

Each case is a seeded random (program, edit script) pair.  The program
runs under the concrete IR interpreter, and the trace is checked against
every analyzer (CHA, RTA, baseline PTA, SkipFlow) across every
saturation policy, cold and warm-resumed per edit step
(see ``docs/fuzzing.md`` for the invariants).  Failing cases shrink to
minimal repro files under ``--out``.

``--quick`` is the PR gate: at least :data:`QUICK_CASES` cases through the
full matrix plus the mutation smoke (a deliberately broken analyzer must
be caught and shrunk), zero soundness violations expected.  ``--budget``
is the nightly mode: a wall-clock-bounded campaign, typically with the
``deep`` profile's 10-100x program sizes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.fuzz import run_campaign, run_mutation_smoke

QUICK_CASES = 50
QUICK_SEED = 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=QUICK_SEED,
                        help=f"campaign seed (default {QUICK_SEED}); the "
                             f"case stream is a pure function of it")
    parser.add_argument("--cases", type=int, default=None,
                        help="number of cases to run")
    parser.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds (nightly mode)")
    parser.add_argument("--profile", choices=("quick", "deep"),
                        default="quick",
                        help="case size profile (default: quick)")
    parser.add_argument("--threshold", type=int, default=4,
                        help="saturation threshold swept by the oracle "
                             "(default: 4)")
    parser.add_argument("--out", type=str, default=None,
                        help="directory for shrunk repro files")
    parser.add_argument("--skip-smoke", action="store_true",
                        help="skip the mutation smoke self-check")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI mode: {QUICK_CASES} cases, quick profile, "
                             f"mutation smoke included")
    args = parser.parse_args(argv)

    if args.cases is not None and args.budget is not None:
        print("run_fuzz_study: pass --cases or --budget, not both",
              file=sys.stderr)
        return 2
    cases = args.cases
    if args.quick and cases is None and args.budget is None:
        cases = QUICK_CASES
    if cases is None and args.budget is None:
        cases = QUICK_CASES

    if not args.skip_smoke:
        report, original, shrunk = run_mutation_smoke(seed=args.seed)
        print(f"mutation smoke: planted analyzer bug caught "
              f"({len(report.violations)} violations), case shrunk "
              f"{original.base.expected_total_methods} -> "
              f"{shrunk.base.expected_total_methods} methods",
              file=sys.stderr)

    print(f"fuzz study: seed {args.seed}, profile {args.profile}, "
          + (f"{cases} cases" if cases is not None
             else f"{args.budget:.0f}s budget")
          + ", full saturation x warm/cold matrix...",
          file=sys.stderr)
    result = run_campaign(
        seed=args.seed, cases=cases, budget_seconds=args.budget,
        profile=args.profile, threshold=args.threshold,
        out_dir=Path(args.out) if args.out else None,
        log=lambda message: print(f"  {message}", file=sys.stderr,
                                  flush=True))

    print(f"fuzz study: {result.cases_run} cases, "
          f"{result.prefixes_checked} program prefixes, "
          f"{result.combos_checked} analyzer combos in "
          f"{result.duration_seconds:.1f}s — "
          f"{len(result.failures)} soundness failure(s)")
    for failure in result.failures:
        first = failure.report.violations[0]
        where = f" (repro: {failure.repro_path})" if failure.repro_path else ""
        print(f"  case {failure.case_index}: "
              f"{len(failure.report.violations)} violation(s), "
              f"first: {first}{where}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
