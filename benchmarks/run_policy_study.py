"""Standalone runner: the solver-kernel policy study on the wide-hierarchy suite.

Usage::

    python benchmarks/run_policy_study.py [--saturations off,closed-world,allocated-type,
                                                         allocated-type-reachable]
                                          [--threshold 16]
                                          [--benchmark composed-duo-112]
                                          [--jobs 4] [--cache-dir .bench-cache]
                                          [--bench-dir benchmarks/trajectories]
                                          [--bench-index N]
                                          [--output policy_study.txt] [--quick]

For every benchmark of the ``WideHierarchy`` suite — the five single-tree
wide specs plus the composed multi-hierarchy specs — the script runs the
SkipFlow configuration under every requested saturation policy through the
benchmark engine and prints one table per benchmark
(:mod:`repro.reporting.policy`): solver steps/joins/wall-time deltas against
the bit-identical ``off`` reference, plus the reachable-method precision
loss each saturation sentinel costs.

The question the study answers directly: whether the RTA-style
``allocated-type`` sentinel — whose top excludes declared-but-never-
allocated types — keeps the reachable-set re-inflation (and the
solver-steps *increase* the closed-world sentinel shows on this suite)
smaller than ``closed-world`` by discharging the rare guards, and how much
more its reachability-refined variant ``allocated-type-reachable``
recovers.

Every combination is one engine configuration, so each (spec, policy) half
is cached independently under ``--cache-dir`` and the whole grid reuses any
halves earlier runs (or the saturation study) already computed.  ``--quick``
shrinks the grid to a CI-sized smoke (two cheap specs, off and
allocated-type).

Every run is also persisted as a versioned ``BENCH_<n>.json`` trajectory
under ``--bench-dir`` (:mod:`repro.reporting.trajectory`), one row per
(spec, policy) cell with its solver steps, joins, and wall time.
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

DEFAULT_SATURATIONS = ("off", "closed-world", "allocated-type",
                       "allocated-type-reachable")
DEFAULT_THRESHOLD = 16

QUICK_SATURATIONS = ("off", "allocated-type")
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


def build_policies(saturations: List[str], threshold: int
                   ) -> List[Tuple[str, AnalysisConfig]]:
    """``(label, config)`` per policy, ``off`` (the reference) always first."""
    names = [REFERENCE_LABEL] + [
        name for name in saturations if name != REFERENCE_LABEL]
    skipflow = AnalysisConfig.skipflow()
    return [(REFERENCE_LABEL, skipflow) if name == REFERENCE_LABEL
            else (f"{name}@{threshold}",
                  skipflow.with_saturation_policy(name, threshold))
            for name in names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--saturations", type=str, default=None,
                        help="comma-separated saturation policies "
                             f"(default: {','.join(DEFAULT_SATURATIONS)})")
    parser.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD,
                        help="saturation threshold for the non-off policies "
                             f"(default: {DEFAULT_THRESHOLD})")
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
                        help="CI-sized grid: the two cheapest specs, "
                             f"{'/'.join(QUICK_SATURATIONS)}")
    args = parser.parse_args(argv)

    try:
        saturations = _parse_names(
            args.saturations or ",".join(
                QUICK_SATURATIONS if args.quick else DEFAULT_SATURATIONS),
            "saturation", available_saturation_policies())
        if args.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {args.threshold}")
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

    policies = build_policies(saturations, args.threshold)
    labels = [label for label, _ in policies]
    configs = [config for _, config in policies]

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    print(f"policy grid: {len(policies)} policies x {len(specs)} "
          f"benchmarks (threshold {args.threshold})...", file=sys.stderr)
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
                   "threshold": args.threshold, "quick": args.quick},
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
