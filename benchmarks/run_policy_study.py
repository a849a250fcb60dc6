"""Standalone runner: the solver-kernel policy study on the wide-hierarchy suite.

Usage::

    python benchmarks/run_policy_study.py [--saturations off,allocated-type,
                                                         allocated-type-reachable]
                                          [--thresholds 2,4,8,16]
                                          [--benchmark composed-duo-112]
                                          [--jobs 4] [--cache-dir .bench-cache]
                                          [--bench-dir benchmarks/trajectories]
                                          [--bench-index N]
                                          [--output policy_study.txt] [--quick]

For every benchmark of the ``WideHierarchy`` suite — the five single-tree
wide specs plus the composed multi-hierarchy specs — the script runs the
SkipFlow configuration exactly (``off``) and under every requested
saturation policy at every requested threshold through the benchmark
engine, and prints one table per benchmark (:mod:`repro.reporting.policy`):
reachable-method and polymorphic-call precision loss, and solver
steps/joins/wall-time deltas, against the bit-identical ``off`` reference.

The question the study answers directly: how much reachable-set
re-inflation each saturation sentinel costs as the threshold shrinks —
``allocated-type``, the RTA-style top a bare threshold engages, against its
reachability-refined variant ``allocated-type-reachable`` — and what the
cutoff saves or costs in solver effort.

Every combination is one engine configuration, so each (spec, policy,
threshold) half is cached independently under ``--cache-dir`` and the whole
grid reuses any halves earlier runs already computed.  ``--quick`` shrinks
the grid to a CI-sized smoke (two cheap specs, ``off`` and
``allocated-type@16``).

Every run is also persisted as a versioned ``BENCH_<n>.json`` trajectory
under ``--bench-dir`` (:mod:`repro.reporting.trajectory`), one row per
(spec, policy, threshold) cell with its solver steps, joins, and wall time.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Tuple

from repro.core.analysis import AnalysisConfig
from repro.core.kernel import available_saturation_policies
from repro.engine import ResultCache, run_config_matrix
from repro.engine.scheduler import estimated_cost
from repro.reporting.policy import (
    REFERENCE_LABEL,
    format_policy_study,
    policy_points,
    summarize_policy_sweep,
)
from repro.reporting.trajectory import TrajectoryRow, write_trajectory
from repro.workloads.suites import wide_hierarchy_suite

DEFAULT_SATURATIONS = available_saturation_policies()
DEFAULT_THRESHOLDS = (2, 4, 8, 16)

QUICK_SATURATIONS = ("off", "allocated-type")
QUICK_THRESHOLDS = (16,)
QUICK_SPECS = 2


def _parse_names(text: str, kind: str, available) -> List[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ValueError(f"no {kind} policies given")
    for name in names:
        if name not in available:
            raise ValueError(f"unknown {kind} policy {name!r}; available: "
                             f"{', '.join(available)}")
    return names


def parse_thresholds(text: str) -> List[int]:
    """Parse ``"2,4,8,16"`` into distinct cutoffs, smallest first."""
    thresholds = set()
    for part in text.split(","):
        if part.strip():
            thresholds.add(int(part))
    if not thresholds:
        raise ValueError("no thresholds given")
    if min(thresholds) < 1:
        raise ValueError(f"threshold must be >= 1, got {min(thresholds)}")
    return sorted(thresholds)


def build_policies(saturations: List[str], thresholds: List[int]
                   ) -> List[Tuple[str, AnalysisConfig]]:
    """``(label, config)`` per cell: ``off`` (the reference) first, then
    every other policy at every threshold."""
    skipflow = AnalysisConfig.skipflow()
    return [(REFERENCE_LABEL, skipflow)] + [
        (f"{name}@{threshold}",
         skipflow.with_saturation_policy(name, threshold))
        for name in saturations if name != REFERENCE_LABEL
        for threshold in thresholds]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--saturations", type=str, default=None,
                        help="comma-separated saturation policies "
                             f"(default: {','.join(DEFAULT_SATURATIONS)})")
    parser.add_argument("--thresholds", type=str, default=None,
                        help="comma-separated saturation thresholds for the "
                             "non-off policies (default: "
                             f"{','.join(map(str, DEFAULT_THRESHOLDS))})")
    parser.add_argument("--benchmark", type=str, default=None,
                        help="restrict to one wide-hierarchy benchmark")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the benchmark engine")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="directory for the on-disk result cache")
    parser.add_argument("--bench-dir", type=str, default=None,
                        help="directory for the BENCH_<n>.json trajectory "
                             "(default: benchmarks/trajectories; pass '' "
                             "to skip writing)")
    parser.add_argument("--bench-index", type=int, default=None,
                        help="pin the trajectory number instead of taking "
                             "the next free one")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the tables to this file")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized grid: the two cheapest specs, off and "
                             f"allocated-type@{QUICK_THRESHOLDS[0]}")
    args = parser.parse_args(argv)

    try:
        saturations = _parse_names(
            args.saturations or ",".join(
                QUICK_SATURATIONS if args.quick else DEFAULT_SATURATIONS),
            "saturation", available_saturation_policies())
        thresholds = parse_thresholds(
            args.thresholds or ",".join(map(str, (
                QUICK_THRESHOLDS if args.quick else DEFAULT_THRESHOLDS))))
    except ValueError as error:
        print(f"run_policy_study: {error}", file=sys.stderr)
        return 2

    specs = wide_hierarchy_suite()
    if args.benchmark:
        specs = [spec for spec in specs if spec.name == args.benchmark]
        if not specs:
            names = ", ".join(spec.name for spec in wide_hierarchy_suite())
            print(f"run_policy_study: unknown benchmark {args.benchmark!r}; "
                  f"expected one of: {names}", file=sys.stderr)
            return 2
    elif args.quick:
        specs = sorted(specs, key=estimated_cost)[:QUICK_SPECS]

    policies = build_policies(saturations, thresholds)
    labels = [label for label, _ in policies]
    configs = [config for _, config in policies]

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    print(f"policy grid: {len(policies)} cells x {len(specs)} benchmarks "
          f"(thresholds {','.join(map(str, thresholds))})...", file=sys.stderr)
    rows = run_config_matrix(specs, configs, names=labels,
                             jobs=max(args.jobs, 1), cache=cache)

    sections: List[str] = []
    trajectory_rows: List[TrajectoryRow] = []
    total_steps = 0
    for spec, row in zip(specs, rows):
        points = policy_points(row)
        for point in points:
            trajectory_rows.append(TrajectoryRow(
                spec=spec.name, policy=point.label,
                kernel=row.report(point.label).kernel_ran,
                steps=point.solver_steps, joins=point.solver_joins,
                wall_time_seconds=point.analysis_time_seconds))
            total_steps += point.solver_steps
        section = format_policy_study(spec.name, points)
        summary = summarize_policy_sweep(points)
        losses = ", ".join(
            f"{saturation}: {loss:+.1f}%" for saturation, loss in
            summary["reachable_loss_percent_by_saturation"].items())
        section += (
            f"\n\ncheapest: {summary['cheapest_label']} "
            f"({summary['cheapest_steps_delta_percent']:+.1f}% steps); "
            f"reachable loss by sentinel: {losses}\n"
        )
        sections.append(section)
        print(section)

    bench_dir = args.bench_dir
    if bench_dir is None:
        bench_dir = str(Path(__file__).parent / "trajectories")
    if bench_dir:
        target = write_trajectory(
            bench_dir, study="policy-grid", rows=trajectory_rows,
            headline=("policy_grid_total_steps", total_steps),
            extra={"benchmarks": [spec.name for spec in specs],
                   "saturations": saturations,
                   "thresholds": thresholds, "quick": args.quick},
            index=args.bench_index)
        print(f"wrote {target}", file=sys.stderr)
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
