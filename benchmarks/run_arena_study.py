"""Standalone runner: arena-kernel cold-solve throughput vs the object kernel.

Usage::

    python benchmarks/run_arena_study.py [--benchmark fop]
                                         [--cache-dir .bench-cache]
                                         [--min-speedup 1.5]
                                         [--bench-dir benchmarks/trajectories]
                                         [--bench-index N]
                                         [--output arena_study.txt]
                                         [--quick]

For every benchmark of the DaCapo-style suite (or one ``--benchmark``) under
the N-way policy matrix (PTA, SkipFlow, SkipFlow + allocated-type
saturation), the script measures what one engine worker
pays for a *cold* solve — program decode plus analysis plus image reports —
under both propagation kernels:

* **object**: thaw the stored arena blob into a plain program (every
  method body decoded), run the object kernel over that object graph;
* **arena**: ``mmap``-attach the stored arena blob (zero decode) and run the
  index-based kernel straight on the buffer.

Both halves produce the full per-configuration payload of the engine matrix
(``repro.engine.runner._report_payload``); the study asserts the payloads
are bit-identical modulo timing, so the speedup column can never hide a
results divergence.  The headline is total object wall time over total
arena wall time; ``--min-speedup`` (default 1.5, the tentpole target) turns
it into an exit-code gate.  Per-half decode time (thaw vs attach) is
reported separately so "decode gone" is visible, not inferred.

The study also tracks what the arena blob costs to make: per spec, the
min-of-``FREEZE_REPEATS`` (3) times of ``generate_benchmark`` and of
``freeze`` and their ratio land on the spec's arena rows (``layers``), so
the freeze/generate ratio is a series across runs.  It is reported, not
gated.

With ``--bench-dir``, a run is persisted as a versioned ``BENCH_<n>.json``
trajectory there (:mod:`repro.reporting.trajectory`); ``BENCH_1.json`` is the
study's first recorded run and later runs extend the series that
``python -m repro.reporting.trajectory <dir>`` renders.  ``--quick``
shrinks the sweep to the two cheapest specs and two configurations and
relaxes the default gate to 1.0 (CI runners are too noisy for a hard 1.5).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from typing import Dict, List, Tuple

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.engine import ProgramStore, ResultCache
from repro.engine.runner import _report_payload
from repro.engine.scheduler import estimated_cost
from repro.image.builder import NativeImageBuilder
from repro.ir.arena import freeze
from repro.reporting.trajectory import TrajectoryRow, write_trajectory
from repro.workloads.generator import generate_benchmark
from repro.workloads.suites import dacapo_suite

QUICK_SPECS = 2
QUICK_CONFIGS = 2
DEFAULT_MIN_SPEEDUP = 1.5
QUICK_MIN_SPEEDUP = 1.0
#: Generate/freeze timings per spec are the min of this many runs.
FREEZE_REPEATS = 3

#: Timing keys excluded from the bit-identity comparison (everything else
#: in the payload — counts, sizes, step/join/transfer counters — must match
#: exactly between the kernels).
_TIMING_KEYS = frozenset({"analysis_time_seconds", "total_time_seconds"})


def matrix_configs() -> List[Tuple[str, AnalysisConfig]]:
    """The study's policy columns: the N-way matrix the engine sweeps."""
    return [
        ("pta", AnalysisConfig.baseline_pta()),
        ("skipflow", AnalysisConfig.skipflow()),
        ("skipflow+alloc16", AnalysisConfig.skipflow()
            .with_saturation_policy("allocated-type", 16)),
    ]


def _strip_timing(payload: Dict[str, object]) -> Dict[str, object]:
    return {key: value for key, value in payload.items()
            if key not in _TIMING_KEYS}


def measure_half(program, config: AnalysisConfig, spec) -> Dict[str, object]:
    """One cold solve (analysis + image reports) over an already-decoded program.

    The analysis picks the kernel from the program: a plain (thawed)
    program runs on the object kernel and its report comes from the PVPG
    walks, an attached one on the arena kernel.  (``NativeImageBuilder.build``
    would lower a plain program and solve it on the arena kernel too.)
    """
    builder = NativeImageBuilder(program, config, benchmark_name=spec.name)
    return _report_payload(builder.report(SkipFlowAnalysis(program, config).run()))


def measure_freeze(spec) -> Tuple[Tuple[str, float], ...]:
    """Min-of-``FREEZE_REPEATS`` generate and freeze times of ``spec`` (ms), and their ratio."""
    generate_s = freeze_s = float("inf")
    for _ in range(FREEZE_REPEATS):
        started = time.perf_counter()
        program = generate_benchmark(spec)
        generate_s = min(generate_s, time.perf_counter() - started)
        started = time.perf_counter()
        freeze(program)
        freeze_s = min(freeze_s, time.perf_counter() - started)
    return (("generate_ms", round(generate_s * 1000, 3)),
            ("freeze_ms", round(freeze_s * 1000, 3)),
            ("freeze_over_generate", round(freeze_s / generate_s, 3)))


def run_cell(spec, label: str, config: AnalysisConfig,
             store: ProgramStore, freeze_cost: Tuple[Tuple[str, float], ...]):
    """Measure one (spec, policy) cell under both kernels.

    Returns (rows, object_seconds, arena_seconds, decode_seconds pair,
    payloads_match).  Decode is *inside* the timed window for both halves —
    the study measures what a worker pays, and killing the decode is half
    the point.  The arena row carries the spec's ``freeze_cost`` figures.
    """
    store.load_or_build(spec)  # Warm the disk blob; not part of either half.

    started = time.perf_counter()
    program = store.load(spec)
    object_decode = time.perf_counter() - started
    assert program is not None, f"store lost the blob for {spec.name}"
    object_payload = measure_half(program, config, spec)
    object_total = time.perf_counter() - started

    started = time.perf_counter()
    attached = store.attach(spec)
    arena_decode = time.perf_counter() - started
    assert attached is not None, f"store lost the arena for {spec.name}"
    arena_payload = measure_half(attached, config, spec)
    arena_total = time.perf_counter() - started

    rows = [
        TrajectoryRow(spec=spec.name, policy=label, kernel="object",
                      steps=int(object_payload["solver_steps"]),
                      joins=int(object_payload["solver_joins"]),
                      wall_time_seconds=object_total),
        TrajectoryRow(spec=spec.name, policy=label, kernel="arena",
                      steps=int(arena_payload["solver_steps"]),
                      joins=int(arena_payload["solver_joins"]),
                      wall_time_seconds=arena_total, layers=freeze_cost),
    ]
    match = _strip_timing(object_payload) == _strip_timing(arena_payload)
    return rows, object_total, arena_total, (object_decode, arena_decode), match


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", type=str, default=None,
                        help="restrict to one DaCapo-style benchmark")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="program-store directory (default: a fresh "
                             "temporary directory)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help=f"fail below this aggregate speedup (default "
                             f"{DEFAULT_MIN_SPEEDUP}, or "
                             f"{QUICK_MIN_SPEEDUP} with --quick)")
    parser.add_argument("--bench-dir", type=str, default=None,
                        help="directory for the BENCH_<n>.json trajectory "
                             "(written only when given, e.g. "
                             "benchmarks/trajectories)")
    parser.add_argument("--bench-index", type=int, default=None,
                        help="pin the trajectory number instead of taking "
                             "the next free one")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the study text to this file")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI-sized sweep: {QUICK_SPECS} cheapest specs, "
                             f"{QUICK_CONFIGS} configurations")
    args = parser.parse_args(argv)

    specs = list(dacapo_suite())
    if args.benchmark:
        specs = [spec for spec in specs if spec.name == args.benchmark]
        if not specs:
            names = ", ".join(spec.name for spec in dacapo_suite())
            print(f"run_arena_study: unknown benchmark {args.benchmark!r}; "
                  f"expected one of: {names}", file=sys.stderr)
            return 2
    elif args.quick:
        specs = sorted(specs, key=estimated_cost)[:QUICK_SPECS]
    configs = matrix_configs()
    if args.quick:
        configs = configs[:QUICK_CONFIGS]
    min_speedup = args.min_speedup
    if min_speedup is None:
        min_speedup = QUICK_MIN_SPEEDUP if args.quick else DEFAULT_MIN_SPEEDUP

    if args.cache_dir:
        cache = ResultCache(args.cache_dir)
        store = ProgramStore(cache.directory / "programs",
                             code_version=cache.code_version)
        scratch = None
    else:
        scratch = tempfile.TemporaryDirectory(prefix="repro-arena-study-")
        store = ProgramStore(scratch.name)

    print(f"arena study: {len(specs)} benchmarks x {len(configs)} "
          f"configurations, both kernels...", file=sys.stderr)
    rows: List[TrajectoryRow] = []
    lines: List[str] = []
    object_sum = arena_sum = 0.0
    object_decode_sum = arena_decode_sum = 0.0
    mismatches = 0
    header = (f"{'benchmark':<16} {'policy':<16} {'object':>9} {'arena':>9} "
              f"{'speedup':>8} {'decode o/a (ms)':>16}  identical")
    lines.append(header)
    lines.append("-" * len(header))
    freeze_costs = {spec.name: dict(measure_freeze(spec))
                    for spec in specs}
    for spec in specs:
        for label, config in configs:
            (cell_rows, object_total, arena_total,
             (object_decode, arena_decode), match) = run_cell(
                spec, label, config, store,
                tuple(freeze_costs[spec.name].items()))
            rows.extend(cell_rows)
            object_sum += object_total
            arena_sum += arena_total
            object_decode_sum += object_decode
            arena_decode_sum += arena_decode
            if not match:
                mismatches += 1
            lines.append(
                f"{spec.name:<16} {label:<16} {object_total:>8.3f}s "
                f"{arena_total:>8.3f}s {object_total / arena_total:>7.2f}x "
                f"{object_decode * 1000:>7.1f}/{arena_decode * 1000:<7.1f}  "
                f"{'yes' if match else 'NO'}")

    speedup = object_sum / arena_sum if arena_sum else float("inf")
    lines.append("-" * len(header))
    lines.append(
        f"total: object {object_sum:.3f}s vs arena {arena_sum:.3f}s "
        f"-> {speedup:.2f}x cold-solve speedup")
    lines.append(
        f"decode: thaw {object_decode_sum * 1000:.1f} ms total vs "
        f"arena attach {arena_decode_sum * 1000:.1f} ms total")
    lines.append("")
    lines.append(f"{'benchmark':<16} {'generate':>11} {'freeze':>11} "
                 f"{'freeze/gen':>10}  (min of {FREEZE_REPEATS})")
    for name, cost in freeze_costs.items():
        lines.append(f"{name:<16} {cost['generate_ms']:>8.1f} ms "
                     f"{cost['freeze_ms']:>8.1f} ms "
                     f"{cost['freeze_over_generate']:>9.2f}x")
    generate_total = sum(cost["generate_ms"] for cost in freeze_costs.values())
    freeze_total = sum(cost["freeze_ms"] for cost in freeze_costs.values())
    freeze_ratio = freeze_total / generate_total
    lines.append(f"freeze: {freeze_total:.1f} ms total vs generate "
                 f"{generate_total:.1f} ms -> {freeze_ratio:.2f}x")
    text = "\n".join(lines)
    print(text)

    bench_dir = args.bench_dir
    if bench_dir:
        target = write_trajectory(
            bench_dir, study="arena-cold-solve", rows=rows,
            headline=("arena_cold_solve_speedup_x", round(speedup, 3)),
            extra={"benchmarks": [spec.name for spec in specs],
                   "policies": [label for label, _ in configs],
                   "freeze_over_generate_x": round(freeze_ratio, 3),
                   "quick": args.quick},
            index=args.bench_index)
        print(f"wrote {target}", file=sys.stderr)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    if scratch is not None:
        scratch.cleanup()

    if mismatches:
        print(f"run_arena_study: {mismatches} cell(s) had payload "
              f"divergence between the kernels", file=sys.stderr)
        return 1
    if speedup < min_speedup:
        print(f"run_arena_study: aggregate speedup {speedup:.2f}x is below "
              f"the required {min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
