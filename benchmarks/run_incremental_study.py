"""Standalone runner: warm re-analysis versus cold solves over edit sequences.

Usage::

    python benchmarks/run_incremental_study.py [--benchmark wide-huge-512]
                                               [--steps 4]
                                               [--saturation-policy allocated-type
                                                --threshold 16]
                                               [--cache-dir .bench-cache]
                                               [--bench-dir benchmarks/trajectories]
                                               [--bench-index N]
                                               [--output incremental_study.txt]
                                               [--quick]

For every benchmark of the ``WideHierarchy`` suite (or one ``--benchmark``),
the script solves the base program cold, then replays a deterministic edit
sequence (:func:`repro.workloads.edits.default_edit_script`: a new type
variant, a new dispatch site, a new guarded module, rotating): after each
edit the solve is *resumed* from the previous fixpoint and the same edited
program is also solved *cold*, so every step reports the warm increment
against the full from-scratch cost — steps, joins, and wall time — plus an
equivalence check that both solves reached the identical fixpoint
(:mod:`repro.reporting.incremental` renders the table).

The first step is always the single-method ``add-variant`` edit; its
``Warm%`` column is the study's headline number (a few percent of the cold
solve on the larger specs).

Every solve runs on the arena kernel over an attached program, which each
edit extends in place.  With ``--cache-dir``, the base program is the
engine's program store blob and every post-edit solver state (the arena
tables) is persisted into the
:class:`~repro.engine.snapshots.SnapshotStore` under
``<cache dir>/snapshots``, keyed by the edit-script prefix — a later run
(or the CI smoke) can resume any step without replaying the chain.
``--quick`` shrinks the sweep to the two cheapest specs and two steps.

With ``--bench-dir``, a run is also persisted as a versioned
``BENCH_<n>.json`` trajectory there (:mod:`repro.reporting.trajectory`): per spec, one
``warm``-policy row (the edit sequence's total warm cost) and one ``cold``
row, with the aggregate first-step warm percentage as the headline the
trend renderer tracks.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.engine import ProgramStore, ResultCache, SnapshotStore
from repro.engine.scheduler import estimated_cost
from repro.ir.arena import ArenaProgram, freeze, open_program
from repro.reporting.incremental import (
    IncrementalPoint,
    format_incremental_study,
    summarize_incremental,
)
from repro.reporting.trajectory import TrajectoryRow, write_trajectory
from repro.workloads.edits import build_edit_delta, default_edit_script
from repro.workloads.generator import generate_benchmark
from repro.workloads.suites import wide_hierarchy_suite

DEFAULT_STEPS = 4
QUICK_SPECS = 2
QUICK_STEPS = 2


def _study_config(args) -> AnalysisConfig:
    config = AnalysisConfig.skipflow()
    if args.saturation_policy and args.saturation_policy != "off":
        config = config.with_saturation_policy(args.saturation_policy,
                                               args.threshold)
    return config


def run_edit_sequence(spec, config, steps, *, program_store=None,
                      snapshot_store=None):
    """One spec's edit sequence; returns (script, points, snapshots stored).

    The chain is the arena kernel's over an attached program (the program
    store's blob, or a freeze of the generated program): each edit extends
    it in place, the tables resume over the extension, and the cold solve
    of each step runs on the arena kernel over the same program.
    """
    if program_store is not None:
        program, _ = program_store.attach_or_build(spec)
    else:
        program = generate_benchmark(spec)
    if not isinstance(program, ArenaProgram):
        program = open_program(freeze(program))
    script = default_edit_script(spec, steps)

    started = time.perf_counter()
    base = SkipFlowAnalysis(program, config).run()
    base_time = time.perf_counter() - started
    chain = base.arena_state
    stored = 0
    if snapshot_store is not None:
        snapshot_store.store(script.prefix(0), config, chain, program)
        stored += 1

    points: List[IncrementalPoint] = []
    for count, step in enumerate(script.steps, start=1):
        delta = build_edit_delta(spec, step)
        delta.apply_to(program, require_monotone=True)

        before = chain.counters()
        started = time.perf_counter()
        warm = SkipFlowAnalysis(program, config, state=chain).run()
        warm_time = time.perf_counter() - started

        started = time.perf_counter()
        cold = SkipFlowAnalysis(program, config).run()
        cold_time = time.perf_counter() - started

        points.append(IncrementalPoint(
            label=step.label,
            warm_steps=warm.steps - before["steps"],
            warm_joins=warm.stats.joins - before["joins"],
            warm_time_seconds=warm_time,
            cold_steps=cold.steps,
            cold_joins=cold.stats.joins,
            cold_time_seconds=cold_time,
            reachable_methods=cold.reachable_method_count,
            fixpoints_match=(
                warm.reachable_methods == cold.reachable_methods
                and sorted(warm.call_edges()) == sorted(cold.call_edges())),
        ))
        chain = warm.arena_state
        if snapshot_store is not None:
            snapshot_store.store(script.prefix(count), config, chain, program)
            stored += 1
    return script, points, stored, base.steps, base_time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", type=str, default=None,
                        help="restrict to one wide-hierarchy benchmark")
    parser.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                        help=f"edit steps per benchmark (default {DEFAULT_STEPS})")
    parser.add_argument("--saturation-policy", type=str, default=None,
                        help="saturation sentinel (default: off)")
    parser.add_argument("--threshold", type=int, default=16,
                        help="saturation threshold for a non-off policy")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="engine cache directory (program store + "
                             "snapshot store)")
    parser.add_argument("--bench-dir", type=str, default=None,
                        help="directory for the BENCH_<n>.json trajectory "
                             "(written only when given, e.g. "
                             "benchmarks/trajectories)")
    parser.add_argument("--bench-index", type=int, default=None,
                        help="pin the trajectory number instead of taking "
                             "the next free one")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the tables to this file")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI-sized sweep: {QUICK_SPECS} cheapest specs, "
                             f"{QUICK_STEPS} steps")
    args = parser.parse_args(argv)

    specs = wide_hierarchy_suite()
    if args.benchmark:
        specs = [spec for spec in specs if spec.name == args.benchmark]
        if not specs:
            names = ", ".join(spec.name for spec in wide_hierarchy_suite())
            print(f"run_incremental_study: unknown benchmark "
                  f"{args.benchmark!r}; expected one of: {names}",
                  file=sys.stderr)
            return 2
    elif args.quick:
        specs = sorted(specs, key=estimated_cost)[:QUICK_SPECS]
    steps = QUICK_STEPS if args.quick and args.steps == DEFAULT_STEPS else args.steps

    try:
        config = _study_config(args)
    except ValueError as error:
        print(f"run_incremental_study: {error}", file=sys.stderr)
        return 2

    program_store = snapshot_store = None
    if args.cache_dir:
        cache = ResultCache(args.cache_dir)
        program_store = ProgramStore(cache.directory / "programs",
                                     code_version=cache.code_version)
        snapshot_store = SnapshotStore(cache.directory / "snapshots",
                                       code_version=cache.code_version)

    print(f"incremental study: {len(specs)} benchmarks x {steps} edits "
          f"(saturation {config.saturation_policy}, threshold "
          f"{config.saturation_threshold})...", file=sys.stderr)
    sections: List[str] = []
    trajectory_rows: List[TrajectoryRow] = []
    first_step_percents: List[float] = []
    mismatches = 0
    for spec in specs:
        script, points, stored, base_steps, base_time = run_edit_sequence(
            spec, config, steps, program_store=program_store,
            snapshot_store=snapshot_store)
        summary = summarize_incremental(points)
        trajectory_rows.append(TrajectoryRow(
            spec=spec.name, policy="warm", kernel="arena",
            steps=summary["total_warm_steps"],
            joins=sum(point.warm_joins for point in points),
            wall_time_seconds=sum(
                point.warm_time_seconds for point in points)))
        trajectory_rows.append(TrajectoryRow(
            spec=spec.name, policy="cold", kernel="arena",
            steps=summary["total_cold_steps"],
            joins=sum(point.cold_joins for point in points),
            wall_time_seconds=sum(
                point.cold_time_seconds for point in points)))
        first_step_percents.append(summary["first_step_warm_percent"])
        section = format_incremental_study(script.name, points)
        section += (
            f"\n\nbase (cold) solve: {base_steps} steps, "
            f"{base_time * 1000:.1f} ms; "
            f"single-method edit warm cost: "
            f"{summary['first_step_warm_percent']:.1f}% of cold; "
            f"sequence total: {summary['total_warm_steps']} warm vs "
            f"{summary['total_cold_steps']} cold steps "
            f"({summary['total_saved_steps']} saved)")
        if stored:
            section += f"; {stored} snapshots stored"
        section += "\n"
        if not summary["all_fixpoints_match"]:
            mismatches += 1
        sections.append(section)
        print(section)

    bench_dir = args.bench_dir
    if bench_dir and trajectory_rows:
        headline = round(
            sum(first_step_percents) / len(first_step_percents), 3)
        target = write_trajectory(
            bench_dir, study="incremental-warm-resume",
            rows=trajectory_rows,
            headline=("first_step_warm_percent", headline),
            extra={"benchmarks": [spec.name for spec in specs],
                   "steps": steps, "quick": args.quick},
            index=args.bench_index)
        print(f"wrote {target}", file=sys.stderr)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write("\n\n".join(sections))
        print(f"wrote {args.output}", file=sys.stderr)
    if mismatches:
        print(f"run_incremental_study: {mismatches} benchmark(s) had "
              f"warm/cold fixpoint mismatches", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
