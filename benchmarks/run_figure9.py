"""Standalone runner: regenerate Figure 9 (normalized metrics per suite).

Usage::

    python benchmarks/run_figure9.py [--scale 2.0] [--jobs 4]
                                     [--cache-dir .bench-cache]
                                     [--saturation-threshold N]
                                     [--output figure9_output.txt]

For every suite the script prints one panel: each benchmark's SkipFlow metrics
normalized to the PTA baseline (anything below 1.0 is an improvement), plus the
suite averages quoted in the paper's Figure 9 caption.  Comparisons run
through :mod:`repro.engine` (see ``run_table1.py`` for the shared flags).
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from run_table1 import add_engine_arguments, engine_options

from repro.engine import run_specs
from repro.reporting.figures import format_figure9, suite_averages
from repro.workloads.suites import all_suites


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=2.0)
    parser.add_argument("--output", type=str, default=None)
    add_engine_arguments(parser)
    args = parser.parse_args(argv)
    options = engine_options(args)

    sections: List[str] = []
    overall_reductions = []
    for suite_name, specs in all_suites(scale=args.scale).items():
        print(f"running suite {suite_name}...", file=sys.stderr)
        rows = run_specs(specs, **options)
        section = format_figure9(rows, suite_name)
        sections.append(section)
        print(section)
        print()
        overall_reductions.append(1.0 - suite_averages(rows)["reachable_methods"])

    overall = 100.0 * sum(overall_reductions) / len(overall_reductions)
    footer = (f"average reachable-method reduction across suites: {overall:.1f}% "
              "(paper: ~9%)")
    sections.append(footer)
    print(footer)

    if args.output:
        with open(args.output, "w") as handle:
            handle.write("\n\n".join(sections))
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
