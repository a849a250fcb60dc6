"""Standalone runner: regenerate the full Table 1 (all three suites).

Usage::

    python benchmarks/run_table1.py [--scale 3.0] [--suite DaCapo]
                                    [--jobs 4] [--cache-dir .bench-cache]
                                    [--saturation-threshold N]
                                    [--output table1_output.txt]

Prints one Table-1 block per suite (PTA row, SkipFlow row with percentage
deltas) plus the max/min/avg reachable-method reductions the paper quotes in
Section 1, and optionally writes everything to a file.

The comparisons run through :mod:`repro.engine`: ``--jobs`` fans benchmarks
out to a process pool and ``--cache-dir`` enables the on-disk result cache,
so repeated invocations only re-solve what changed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.core.analysis import AnalysisConfig
from repro.engine import ResultCache, run_specs
from repro.reporting.table import format_matrix_table, summarize_reductions
from repro.workloads.suites import all_suites, suite_by_name


def add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine flags shared by the standalone benchmark runners."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the benchmark engine")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="directory for the on-disk result cache")
    parser.add_argument("--saturation-threshold", type=int, default=None,
                        help="saturate flows whose type set exceeds this size "
                             "(default: off, exact paper semantics)")


def engine_options(args) -> dict:
    """Translate parsed engine flags into ``run_specs`` keyword arguments."""
    baseline = AnalysisConfig.baseline_pta()
    skipflow = AnalysisConfig.skipflow()
    if args.saturation_threshold is not None:
        baseline = baseline.with_saturation_threshold(args.saturation_threshold)
        skipflow = skipflow.with_saturation_threshold(args.saturation_threshold)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    return {
        "jobs": max(args.jobs, 1),
        "cache": cache,
        "baseline_config": baseline,
        "skipflow_config": skipflow,
    }


def _print_progress(spec, row) -> None:
    origin = "cache" if row.from_cache else f"{row.elapsed_seconds:.1f}s"
    print(f"  {spec.name:<28} reduction="
          f"{row.reduction_percent('reachable_methods', 'SkipFlow'):5.1f}% "
          f"(paper {spec.paper_reduction_percent or 0.0:5.1f}%)  [{origin}]",
          file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=2.0,
                        help="synthetic methods per thousand paper-reported methods")
    parser.add_argument("--suite", type=str, default=None,
                        help="run a single suite (DaCapo, Microservices, Renaissance)")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the tables to this file")
    add_engine_arguments(parser)
    args = parser.parse_args(argv)

    if args.suite:
        try:
            suites = {args.suite: suite_by_name(args.suite, scale=args.scale)}
        except KeyError as error:
            print(f"run_table1: {error.args[0]}", file=sys.stderr)
            return 2
    else:
        suites = all_suites(scale=args.scale)
    options = engine_options(args)

    sections: List[str] = []
    for suite_name, specs in suites.items():
        print(f"running suite {suite_name} ({len(specs)} benchmarks)...", file=sys.stderr)
        rows = run_specs(specs, progress=_print_progress, **options)
        summary = summarize_reductions(rows)
        section = format_matrix_table(rows, title=f"Table 1 ({suite_name})")
        section += (
            f"\n\nreachable methods reduction: max {summary['max']:.1f}%, "
            f"min {summary['min']:.1f}%, avg {summary['avg']:.1f}%\n"
        )
        sections.append(section)
        print(section)

    cache = options["cache"]
    if cache is not None:
        print(f"cache: {cache.hits} hits, {cache.misses} misses "
              f"({cache.directory})", file=sys.stderr)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write("\n\n".join(sections))
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
